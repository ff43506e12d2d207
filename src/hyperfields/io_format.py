"""Serialization of hyperfields and paper-style Cayley table rendering.

Wire format: a single JSON document, version 1,

    {
      "version": 1,
      "order": 2,
      "labels": ["0", "1"],          // optional
      "mul": [[0, 0], [0, 1]],
      "hyperadd": [[[0], [1]], [[1], [0, 1]]],
      "metadata": "free-form text"   // optional
    }

Hyperaddition cells are sorted index arrays (human-diffable archives beat
compactness at this scale).  The parser enforces structure only -- shape,
index ranges, nonempty sorted cells, and the normalization that zero
behaves as index 0 and one as index 1; axiom checking stays on demand.
render_document() emits one canonical byte form, so parse-then-render is
the identity on rendered files.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from typing import Optional

from .core import Hyperfield, HyperfieldCandidate, iter_bits, mask_of
from .errors import DomainError, HyperfieldError

FORMAT_VERSION = 1


class DocumentError(HyperfieldError, ValueError):
    """Base for serialization problems; .code is a stable machine tag."""

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


class ParseError(DocumentError):
    """The text is not well-formed; carries line/column when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        at = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{at}", code="malformed")
        self.line = line
        self.column = column


class ValidationError(DocumentError):
    """Well-formed text violating a structural rule; .code names the rule."""


@dataclass(frozen=True)
class HyperfieldDocument:
    version: int
    order: int
    mul: tuple[tuple[int, ...], ...]
    hyperadd: tuple[tuple[tuple[int, ...], ...], ...]
    labels: Optional[tuple[str, ...]] = None
    metadata: Optional[str] = None


def default_labels(n: int) -> tuple[str, ...]:
    """0, 1, a, b, c, ... while letters last; 0, 1, e2, e3, ... beyond."""
    if n <= 2 + len(string.ascii_lowercase):
        return ("0", "1", *string.ascii_lowercase[:n - 2])
    return ("0", "1", *(f"e{i}" for i in range(2, n)))


def to_document(c, labels=None, metadata: Optional[str] = None) -> HyperfieldDocument:
    """Snapshot a candidate or verified hyperfield as a document."""
    if isinstance(c, Hyperfield):
        c = c.candidate
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != c.n:
            raise DomainError(f"expected {c.n} labels, got {len(labels)}")
    hyperadd = tuple(tuple(tuple(iter_bits(m)) for m in row) for row in c.hyperadd)
    return HyperfieldDocument(FORMAT_VERSION, c.n, c.mul, hyperadd, labels, metadata)


def candidate_from_document(doc: HyperfieldDocument) -> HyperfieldCandidate:
    rows = tuple(tuple(mask_of(cell) for cell in row) for row in doc.hyperadd)
    return HyperfieldCandidate(doc.order, rows, doc.mul)


def render_document(doc: HyperfieldDocument) -> str:
    """Canonical text: fixed key order, one table row per line."""
    out = ["{"]
    out.append(f'  "version": {doc.version},')
    out.append(f'  "order": {doc.order},')
    if doc.labels is not None:
        out.append(f'  "labels": {json.dumps(list(doc.labels))},')
    out.append('  "mul": [')
    for i, row in enumerate(doc.mul):
        comma = "," if i + 1 < len(doc.mul) else ""
        out.append(f"    {json.dumps(list(row))}{comma}")
    out.append("  ],")
    out.append('  "hyperadd": [')
    for i, row in enumerate(doc.hyperadd):
        comma = "," if i + 1 < len(doc.hyperadd) else ""
        out.append(f"    {json.dumps([list(cell) for cell in row])}{comma}")
    tail = "," if doc.metadata is not None else ""
    out.append(f"  ]{tail}")
    if doc.metadata is not None:
        out.append(f'  "metadata": {json.dumps(doc.metadata)}')
    out.append("}")
    return "\n".join(out) + "\n"


_KEYS = {"version", "order", "labels", "mul", "hyperadd", "metadata"}


def _want_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer")
    return value


def parse_document(text) -> HyperfieldDocument:
    """Parse and structurally validate a document.

    Distinct error codes: malformed (bad text or types), version,
    dimensions, index-range, empty-cell, cell-order, identity-misplaced.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc

    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    unknown = set(raw) - _KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    for key in ("version", "order", "mul", "hyperadd"):
        if key not in raw:
            raise ParseError(f"missing required key {key!r}")

    version = _want_int(raw["version"], "version")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {version}", code="version")
    n = _want_int(raw["order"], "order")
    if n < 2:
        raise ValidationError(f"order must be at least 2, got {n}", code="dimensions")

    labels = None
    if "labels" in raw:
        if (not isinstance(raw["labels"], list)
                or any(not isinstance(x, str) for x in raw["labels"])):
            raise ParseError("labels must be an array of strings")
        if len(raw["labels"]) != n:
            raise ValidationError(
                f"expected {n} labels, got {len(raw['labels'])}", code="dimensions")
        labels = tuple(raw["labels"])

    metadata = raw.get("metadata")
    if metadata is not None and not isinstance(metadata, str):
        raise ParseError("metadata must be a string")

    mul = raw["mul"]
    if not isinstance(mul, list) or any(not isinstance(r, list) for r in mul):
        raise ParseError("mul must be an array of arrays")
    if len(mul) != n or any(len(r) != n for r in mul):
        raise ValidationError(f"mul must be {n}x{n}", code="dimensions")
    for i, row in enumerate(mul):
        for j, v in enumerate(row):
            _want_int(v, f"mul[{i}][{j}]")
            if not 0 <= v < n:
                raise ValidationError(
                    f"mul entry {v} at ({i},{j}) out of range", code="index-range")

    hyperadd = raw["hyperadd"]
    if not isinstance(hyperadd, list) or any(not isinstance(r, list) for r in hyperadd):
        raise ParseError("hyperadd must be an array of arrays")
    if len(hyperadd) != n or any(len(r) != n for r in hyperadd):
        raise ValidationError(f"hyperadd must be {n}x{n}", code="dimensions")
    for i, row in enumerate(hyperadd):
        for j, cell in enumerate(row):
            if not isinstance(cell, list):
                raise ParseError(f"hyperadd cell at ({i},{j}) must be an array")
            if not cell:
                raise ValidationError(f"empty cell at ({i},{j})", code="empty-cell")
            for v in cell:
                _want_int(v, f"hyperadd[{i}][{j}]")
                if not 0 <= v < n:
                    raise ValidationError(
                        f"hyperadd entry {v} at ({i},{j}) out of range",
                        code="index-range")
            if list(cell) != sorted(set(cell)):
                raise ValidationError(
                    f"cell at ({i},{j}) must be strictly ascending", code="cell-order")

    # Index normalization: reject rather than relabel, so 0 and 1 sit at
    # indices 0 and 1 in every stored table, as the verifier expects.
    for y in range(n):
        if hyperadd[0][y] != [y]:
            raise ValidationError(
                f"zero must be index 0: hyperadd[0][{y}] != [{y}]",
                code="identity-misplaced")
        if mul[1][y] != y:
            raise ValidationError(
                f"one must be index 1: mul[1][{y}] != {y}",
                code="identity-misplaced")

    return HyperfieldDocument(
        version, n,
        tuple(tuple(r) for r in mul),
        tuple(tuple(tuple(cell) for cell in r) for r in hyperadd),
        labels, metadata)


def _grid(header: str, labels, rows) -> list[str]:
    table = [[header, *labels]]
    for lab, cells in zip(labels, rows):
        table.append([lab, *cells])
    widths = [max(len(r[c]) for r in table) for c in range(len(table[0]))]
    return [" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in table]


def pretty_table(c, labels=None) -> str:
    """Both Cayley tables as aligned text grids, hyperaddition first."""
    if isinstance(c, Hyperfield):
        c = c.candidate
    if labels is None:
        labels = default_labels(c.n)
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != c.n:
            raise DomainError(f"expected {c.n} labels, got {len(labels)}")

    add_rows = [["{" + ",".join(labels[i] for i in iter_bits(m)) + "}"
                 for m in row] for row in c.hyperadd]
    mul_rows = [[labels[v] for v in row] for row in c.mul]
    lines = _grid("⊕", labels, add_rows)
    lines.append("")
    lines.extend(_grid("·", labels, mul_rows))
    return "\n".join(lines) + "\n"
