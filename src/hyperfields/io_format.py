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
compactness at this scale); a document holds only a candidate's mask rows,
and render_document(), pretty_table() and doc.hyperadd decode each distinct
mask once through core._members.  The parser enforces structure only --
shape, index ranges, nonempty sorted cells, and the normalization that zero
is index 0 and one index 1; axiom checking stays on demand.  Each distinct
cell is checked and converted once.  render_document() emits one canonical
byte form, so parse-then-render is the identity on rendered files.  Its
one encoder skips json.dumps()'s check for reference cycles, which rows of
ints, labels and a string cannot hold; the bytes are json.dumps()'s.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter, lt
from typing import Optional

from .core import Hyperfield, HyperfieldCandidate, _members, _tuple
from .errors import DomainError, HyperfieldError

FORMAT_VERSION = 1

_encode = json.JSONEncoder(check_circular=False).encode


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
        self.line, self.column = line, column


class ValidationError(DocumentError):
    """Well-formed text violating a structural rule; .code names the rule."""


@dataclass(frozen=True)
class HyperfieldDocument:
    version: int
    order: int
    mul: tuple[tuple[int, ...], ...]
    masks: tuple[tuple[int, ...], ...]  # the hyperaddition, as a candidate holds it
    labels: Optional[tuple[str, ...]] = None
    metadata: Optional[str] = None

    @property
    def hyperadd(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The cells as sorted index tuples, each distinct mask decoded once."""
        cells = _members(self.masks).__getitem__
        return tuple(tuple(map(cells, row)) for row in self.masks)


def default_labels(n: int) -> tuple[str, ...]:
    """0, 1, a, b, c, ... while letters last; 0, 1, e2, e3, ... beyond."""
    if n <= 2 + len(string.ascii_lowercase):
        return ("0", "1", *string.ascii_lowercase[:n - 2])
    return ("0", "1", *(f"e{i}" for i in range(2, n)))


def _with_labels(c, labels):
    """(the candidate of c, labels as strings or None), checking their count."""
    if isinstance(c, Hyperfield):
        c = c.candidate
    if labels is not None:
        labels = _tuple(labels, str)  # () where labels is not a collection
        if len(labels) != c.n:
            raise DomainError(f"expected {c.n} labels, got {len(labels)}")
    return c, labels


def to_document(c, labels=None, metadata: Optional[str] = None) -> HyperfieldDocument:
    """Snapshot a candidate or verified hyperfield as a document."""
    if metadata is not None and not isinstance(metadata, str):
        raise DomainError("metadata must be a string")
    c, labels = _with_labels(c, labels)
    return HyperfieldDocument(FORMAT_VERSION, c.n, c.mul, c.hyperadd, labels, metadata)


def candidate_from_document(doc: HyperfieldDocument) -> HyperfieldCandidate:
    return HyperfieldCandidate(doc.order, doc.masks, doc.mul)


def render_document(doc: HyperfieldDocument) -> str:
    """Canonical text: fixed key order, one table row per line."""
    def rows(table):  # tuples encode as arrays
        return ",\n".join(f"    {_encode(row)}" for row in table)

    out = ["{", f'  "version": {doc.version},', f'  "order": {doc.order},']
    if doc.labels is not None:
        out.append(f'  "labels": {_encode(doc.labels)},')
    out += ['  "mul": [', rows(doc.mul), "  ],", '  "hyperadd": [', rows(doc.hyperadd)]
    if doc.metadata is None:
        out.append("  ]")
    else:
        out += ["  ],", f'  "metadata": {_encode(doc.metadata)}']
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
    except (RecursionError, ValueError, TypeError) as exc:  # too deep, too many digits, not text
        raise ParseError(f"cannot decode: {exc}") from exc

    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    if unknown := set(raw) - _KEYS:
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
        if set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n:
            continue  # a valid row; only a row that fails is walked for its first error
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
    masks = _masks(hyperadd, n)

    # Index normalization: reject rather than relabel, so 0 and 1 sit at
    # indices 0 and 1 in every stored table, as the verifier expects.
    for y in range(n):
        if masks[0][y] != 1 << y:
            raise ValidationError(
                f"zero must be index 0: hyperadd[0][{y}] != [{y}]",
                code="identity-misplaced")
        if mul[1][y] != y:
            raise ValidationError(
                f"one must be index 1: mul[1][{y}] != {y}",
                code="identity-misplaced")

    return HyperfieldDocument(version, n, tuple(map(tuple, mul)), masks, labels, metadata)


def _masks(hyperadd, n):
    """The masks of a hyperaddition table's cells.  Types are tested on
    every element, as (True,) == (1,) would hide a bool among distinct cells;
    the rest once per distinct cell, at C level.  Laid end to end, the elements
    ascend in every cell iff the ascents not across cells number len(flat) - len(distinct)."""
    if (set(map(type, chain.from_iterable(hyperadd))) == {list}
            and set(map(type, chain.from_iterable(chain.from_iterable(hyperadd)))) == {int}):
        cells = tuple(tuple(map(tuple, row)) for row in hyperadd)
        distinct = list(set(chain.from_iterable(cells)))
        flat = list(chain.from_iterable(distinct))
        if all(distinct) and 0 <= min(flat) and max(flat) < n:
            ascents = sum(map(lt, flat, islice(flat, 1, None))) - sum(map(
                lt, map(itemgetter(-1), distinct), islice(map(itemgetter(0), distinct), 1, None)))
            if ascents == len(flat) - len(distinct):
                pow2 = [1 << i for i in range(n)]  # after the range test: pow2[-1] wraps
                mask = dict(zip(distinct, map(sum, map(map, repeat(pow2.__getitem__), distinct))))
                return tuple(tuple(map(mask.__getitem__, row)) for row in cells)
    for i, row in enumerate(hyperadd):  # some cell breaks a rule: find the first
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


def _grid(header: str, labels, rows) -> list[str]:
    table = [[header, *labels]]
    for lab, cells in zip(labels, rows):
        table.append([lab, *cells])
    widths = [max(map(len, col)) for col in zip(*table)]
    return [" | ".join(map(str.ljust, row, widths)).rstrip() for row in table]


def pretty_table(c, labels=None) -> str:
    """Both Cayley tables as aligned text grids, hyperaddition first."""
    c, labels = _with_labels(c, labels)
    if labels is None:
        labels = default_labels(c.n)

    text = {m: "{" + ",".join(map(labels.__getitem__, bits)) + "}"
            for m, bits in _members(c.hyperadd).items()}
    add_rows = [list(map(text.__getitem__, row)) for row in c.hyperadd]
    mul_rows = [[labels[v] for v in row] for row in c.mul]
    lines = _grid("⊕", labels, add_rows)
    lines.append("")
    lines.extend(_grid("·", labels, mul_rows))
    return "\n".join(lines) + "\n"
