"""Command-line interface.

Exit codes: 0 success (or "yes"); 1 negative mathematical answer (a table
fails verification, two hyperfields are not isomorphic); 2 usage or parse
problems; 3 capacity bounds or exhausted budgets.  A negative answer is
never reported as a usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from pathlib import Path

from .construct import hyperfield_of_order, massouros, product, quotient, subgroup_closure
from .core import AXIOM_NAMES, verified, verify
from .enumeration import SearchOptions, enumerate_hyperfields
from .errors import (
    AxiomViolationError,
    BudgetExceededError,
    CapacityError,
    ConstructionError,
    DomainError,
    PreconditionError,
    StructuralError,
)
from .galois import gf
from .io_format import (
    DocumentError,
    candidate_from_document,
    parse_document,
    pretty_table,
    render_document,
    to_document,
)
from .iso import are_isomorphic, fingerprint


@functools.cache  # built on first use; parsing leaves no state on it
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperfields",
        description="Construct, verify, enumerate and render finite Krasner hyperfields.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a verified hyperfield document")
    c.add_argument("--order", type=int, help="carrier size (required for --method auto)")
    c.add_argument("--method", default="auto",
                   choices=("auto", "massouros", "quotient", "product"))
    c.add_argument("--field", metavar="P,K", help="base field for massouros/quotient")
    c.add_argument("--gens", default="",
                   help="comma-separated nonzero generators of the quotient subgroup")
    c.add_argument("--inputs", nargs=2, metavar=("A", "B"),
                   help="two hyperfield documents for --method product")
    c.add_argument("--out", help="output path (default: document on stdout)")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="check every axiom of a stored table")
    v.add_argument("path")
    v.add_argument("--report", action="store_true",
                   help="print every axiom with pass/fail and witnesses")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("enumerate",
                       help="count/emit all hyperfields of an order up to isomorphism")
    e.add_argument("--order", type=int, required=True)
    emit = e.add_mutually_exclusive_group()
    emit.add_argument("--count-only", action="store_true", help="print the count alone")
    emit.add_argument("--out", help="directory for one document per class")
    e.add_argument("--jobs", type=_positive_int, default=1)
    e.add_argument("--progress", type=_non_negative_int, default=0, metavar="N",
                   help="report progress to stderr every N candidates")
    e.add_argument("--budget", type=_positive_seconds, default=3600.0, metavar="SECONDS")
    e.set_defaults(func=cmd_enumerate)

    i = sub.add_parser("iso", help="decide whether two stored hyperfields are isomorphic")
    i.add_argument("path_a")
    i.add_argument("path_b")
    i.set_defaults(func=cmd_iso)

    s = sub.add_parser("show", help="render the Cayley tables of a document")
    s.add_argument("path")
    s.add_argument("--labels", help="comma-separated element labels")
    s.set_defaults(func=cmd_show)

    return p


def _checked(convert, ok, what):
    def parse(arg):
        try:
            value = convert(arg)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {arg!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {arg}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "at least 0")
_positive_seconds = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")


def _parse_field(arg):
    if arg is None:
        raise DomainError("--field P,K is required for this method")
    parts = arg.split(",")
    try:
        p = int(parts[0])
        k = int(parts[1]) if len(parts) > 1 else 1
    except (ValueError, IndexError) as exc:
        raise DomainError(f"cannot parse --field {arg!r}") from exc
    if len(parts) > 2:
        raise DomainError(f"cannot parse --field {arg!r}")
    return gf(p, k)


def _parse_gens(arg):
    if not arg:
        return ()
    try:
        return tuple(int(x) for x in arg.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse --gens {arg!r}") from exc


def _read_document(path):
    """The parsed document at path; bad UTF-8 is a ParseError like bad JSON."""
    return parse_document(Path(path).read_bytes())


def _load_verified(path):
    return verified(candidate_from_document(_read_document(path)))


def cmd_construct(args) -> int:
    method = args.method
    if method == "auto":
        if args.order is None:
            raise DomainError("--order is required with --method auto")
        h = hyperfield_of_order(args.order)
        recipe = f"hyperfield_of_order({args.order})"
    elif method == "massouros":
        f = _parse_field(args.field)
        h = massouros(f)
        recipe = f"massouros(gf({f.p},{f.k}))"
    elif method == "quotient":
        f = _parse_field(args.field)
        gens = _parse_gens(args.gens)
        h = quotient(f, subgroup_closure(f, gens))
        recipe = f"quotient(gf({f.p},{f.k}), gens={list(gens)})"
    else:
        if not args.inputs:
            raise DomainError("--inputs A B is required with --method product")
        h = product(_load_verified(args.inputs[0]), _load_verified(args.inputs[1]))
        recipe = f"product({args.inputs[0]}, {args.inputs[1]})"

    if args.order is not None and h.n != args.order:
        raise DomainError(
            f"--order {args.order} is inconsistent with the result order {h.n}")

    text = render_document(to_document(h.candidate, metadata=recipe))
    summary = f"order={h.n} method={method} verification=pass"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    doc = _read_document(args.path)
    report = verify(candidate_from_document(doc))
    if args.report:
        for r in report.results:
            if r.passed:
                print(f"{r.axiom} {AXIOM_NAMES[r.axiom]}: pass")
            else:
                print(f"{r.axiom} {AXIOM_NAMES[r.axiom]}: FAIL "
                      f"witness={r.witness} reason={r.reason}")
        print(f"overall: {'pass' if report.ok else 'fail'}")
    elif report.ok:
        print("pass")
    else:
        print(f"fail: {report.failures()[0].axiom}")
    return 0 if report.ok else 1


def cmd_enumerate(args) -> int:
    options = SearchOptions(jobs=args.jobs, progress_interval=args.progress,
                            budget_seconds=args.budget)
    outdir = args.out and Path(args.out)
    if outdir:  # before the search, so a DIR that cannot be made fails fast
        outdir.mkdir(parents=True, exist_ok=True)
    classes = enumerate_hyperfields(args.order, options)
    for h in classes if outdir else ():
        digest = hashlib.sha256(repr(fingerprint(h)).encode()).hexdigest()[:12]
        name = f"order{args.order}_{digest}.json"
        (outdir / name).write_text(render_document(to_document(h.candidate)),
                                   encoding="utf-8")
    print(len(classes))
    return 0


def cmd_iso(args) -> int:
    loaded = []
    for path in (args.path_a, args.path_b):
        try:
            loaded.append(_load_verified(path))
        except AxiomViolationError as exc:
            first = exc.report.failures()[0]
            print(f"input {path} fails verification: {first.axiom} "
                  f"witness={first.witness}")
            return 1
    witness = are_isomorphic(*loaded)
    if witness is None:
        print("not isomorphic")
        return 1
    print("isomorphic: " + " ".join(
        f"{i}->{v}" for i, v in enumerate(witness.mapping)))
    return 0


def cmd_show(args) -> int:
    doc = _read_document(args.path)
    labels = args.labels.split(",") if args.labels else doc.labels
    sys.stdout.write(pretty_table(candidate_from_document(doc), labels))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: scanned={exc.scanned} survivors={exc.survivors}",
              file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AxiomViolationError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DocumentError, DomainError, StructuralError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    if hasattr(sys.stdout, "reconfigure"):
        try:
            sys.stdout.reconfigure(encoding="utf-8")
        except Exception:
            pass
    raise SystemExit(main())


if __name__ == "__main__":
    run()
