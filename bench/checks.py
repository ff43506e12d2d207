"""Output checks that share no code with the package.

Each check takes what a job returned and the expectation the benchmark
built with its own arithmetic, and returns None when the answer is right
or a one-line reason when it is wrong.  Documents are read with ``json``
and tables are scanned with the loops below; nothing is imported from
``hyperfields``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

_WITNESS = re.compile(r"witness=\(([0-9, ]*)\)")


def _members(mask):
    out, i = [], 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _document_problem(text, order):
    """Why text is not an order-`order` document in the shape the format fixes."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(doc, dict):
        return "document is not an object"
    if doc.get("order") != order:
        return f"document order {doc.get('order')}, expected {order}"
    mul, add = doc.get("mul"), doc.get("hyperadd")
    if not isinstance(mul, list) or len(mul) != order or any(len(r) != order for r in mul):
        return "mul table has the wrong shape"
    if not isinstance(add, list) or len(add) != order or any(len(r) != order for r in add):
        return "hyperadd table has the wrong shape"
    if any(not cell for row in add for cell in row):
        return "empty hyperaddition cell"
    return None


def check_enumerate(expect, rc, out, err):
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    first = out.split("\n", 1)[0].strip()
    if first != str(expect["classes"]):
        return f"printed {first!r}, expected {expect['classes']} classes"
    outdir = expect.get("outdir")
    if outdir:
        if not Path(outdir).is_dir():
            return f"no --out directory {outdir}"
        texts = [p.read_text(encoding="utf-8") for p in sorted(Path(outdir).iterdir())]
        if len(texts) != expect["classes"]:
            return f"{len(texts)} files under --out, expected {expect['classes']}"
        if len(set(texts)) != len(texts):
            return "two class files are identical"
        for text in texts:
            problem = _document_problem(text, expect["order"])
            if problem:
                return problem
    return None


def check_construct(expect, rc, out, err):
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    path = expect.get("out")
    if path and not Path(path).is_file():
        return f"no --out file {path}"
    text = Path(path).read_text(encoding="utf-8") if path else out
    summary = out if path else err
    if f"order={expect['order']} " not in summary or "verification=pass" not in summary:
        return f"summary line missing or wrong: {summary.strip()[:200]!r}"
    return _document_problem(text, expect["order"])


def first_asymmetry(table, same):
    """The first (x, y), x < y, whose entries differ under `same`."""
    n = len(table)
    for x in range(n):
        for y in range(x + 1, n):
            if not same(table[x][y], table[y][x]):
                return (x, y)
    return None


def check_verify(expect, rc, out, err):
    """A corrupted document: exit 1, its axiom FAIL, a real asymmetry as witness."""
    if rc != 1:
        return f"exit {rc}, expected 1: {err.strip()[:200]}"
    axiom = expect["axiom"]
    line = next((ln for ln in out.splitlines() if ln.startswith(axiom + " ")), None)
    if line is None or ": FAIL " not in line:
        return f"{axiom} not reported as FAIL: {line!r}"
    found = _WITNESS.search(line)
    if found is None:
        return f"no witness on the {axiom} line: {line!r}"
    witness = tuple(int(v) for v in found.group(1).split(",") if v.strip())
    if axiom == "CH2":
        real = first_asymmetry(expect["add"], lambda u, v: set(u) == set(v))
    else:
        real = first_asymmetry(expect["mul"], lambda u, v: u == v)
    if real is None or witness != real:
        return f"{axiom} witness {witness}, but the first asymmetric pair is {real}"
    if not out.rstrip().endswith("overall: fail"):
        return "report does not end with 'overall: fail'"
    return None


def check_product(expect, rc, out, err):
    if rc != 1:
        return f"exit {rc}, expected 1"
    if "axiom HF2 fails" not in err or "zero divisor" not in err:
        return f"product did not fail on HF2 alone: {err.strip()[:200]!r}"
    return None


def cell_sizes(h):
    """The benchmark's own isomorphism invariant: sorted hyperaddition cell sizes."""
    return sorted(bin(mask).count("1") for row in h.hyperadd for mask in row)


def maps_tables(mapping, h1, h2):
    """Does `mapping` carry both tables of h1 onto those of h2?"""
    n = h1.n
    if h2.n != n or sorted(mapping) != list(range(n)):
        return False
    for a in range(n):
        for b in range(n):
            if mapping[h1.mul[a][b]] != h2.mul[mapping[a]][mapping[b]]:
                return False
            image = sorted(mapping[w] for w in _members(h1.hyperadd[a][b]))
            if image != _members(h2.hyperadd[mapping[a]][mapping[b]]):
                return False
    return True


def check_iso(expect, pair, result):
    h1, h2 = pair
    if result is not None:
        if not maps_tables(tuple(result.mapping), h1, h2):
            return "witness does not map both tables"
        if not expect["isomorphic"]:
            return "isomorphism found where the constructions differ"
        return None
    if expect["isomorphic"]:
        return "no isomorphism found for a relabelled copy"
    if cell_sizes(h1) == cell_sizes(h2):
        return "negative answer where the cell-size invariant agrees"
    return None


CLI_CHECKS = {
    "enumerate": check_enumerate,
    "construct": check_construct,
    "verify": check_verify,
    "product": check_product,
}
