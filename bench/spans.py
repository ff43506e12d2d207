"""Spans around the package's layer boundaries, installed from outside.

The tracer replaces module bindings through which one layer calls another
(``enumeration.ch5_violation``, the entries of ``core.AXIOM_CHECKS``, the
names ``cli`` imports, ...) with wrappers that record a span and put the
original back on ``restore()``.  A span is ``[name, site, start, end,
parent, job, info]``: ``name`` is the called function, ``site`` the module
whose binding was wrapped, ``parent`` the index of the enclosing span.

Bindings hit once per enumeration candidate or candidate map are "hot":
they keep one aggregate per (parent span, name) -- calls, busy seconds and
non-None results -- instead of one span per call, which would hold millions
of spans at order 6.  Hot calls run one after another inside their parent, so their
busy time is time the parent's span covers.
"""

from __future__ import annotations

import json
from time import perf_counter

SPAN_NAME, SPAN_SITE, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_JOB, SPAN_INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.hot = {}
        self.stack = []
        self.job = None
        self._saved = []

    def wrap(self, fn, name, site, hot=False, note=None):
        spans, stack, hot_table = self.spans, self.stack, self.hot
        if hot:
            def traced(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                busy = perf_counter() - t0
                key = (stack[-1] if stack else None, name, site)
                agg = hot_table.get(key)
                if agg is None:
                    agg = hot_table[key] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += busy
                if result is not None:
                    agg[2] += 1
                return result
        else:
            def traced(*args, **kwargs):
                span = [name, site, perf_counter(), None,
                        stack[-1] if stack else None, self.job, None]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[SPAN_END] = perf_counter()
                    stack.pop()
                if note is not None:
                    span[SPAN_INFO] = note(args, result)
                return result
        return traced

    def patch(self, module, attr, name, hot=False, note=None):
        original = getattr(module, attr)
        site = module.__name__.rsplit(".", 1)[-1]
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, site, hot, note))

    def patch_value(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "site", "start", "end", "parent", "job", "info"), span))) + "\n")
            for (parent, name, site), (calls, busy, hits) in self.hot.items():
                fh.write(json.dumps({"name": name, "site": site, "parent": parent,
                                     "calls": calls, "busy": busy, "non_none": hits}) + "\n")


def _verify_note(args, report):
    return {"work": args[0].n ** 3, "fail": int(not report.ok)}


def _bytes_note(args, result):
    text = args[0] if isinstance(args[0], (str, bytes)) else result
    return len(text.encode("utf-8") if isinstance(text, str) else text)


def _render_note(args, text):
    return len(text.encode("utf-8"))


def _classes_note(args, classes):
    return len(classes)


def _iso_note(args, witness):
    return int(witness is not None)


def install(tracer, hf):
    """Wrap every cross-layer binding of the imported package `hf`."""
    cli, core, enum = hf.cli, hf.core, hf.enumeration
    construct, iso = hf.construct, hf.iso
    patch = tracer.patch

    patch(cli, "main", "cli.main")
    for attr in ("hyperfield_of_order", "massouros", "product", "quotient",
                 "subgroup_closure"):
        patch(cli, attr, "construct." + attr)
    patch(cli, "verified", "core.verified")
    patch(cli, "verify", "core.verify", note=_verify_note)
    patch(cli, "enumerate_hyperfields", "enumeration.enumerate_hyperfields",
          note=_classes_note)
    patch(cli, "gf", "galois.gf")
    patch(cli, "parse_document", "io_format.parse_document", note=_bytes_note)
    patch(cli, "candidate_from_document", "io_format.candidate_from_document")
    patch(cli, "to_document", "io_format.to_document")
    patch(cli, "render_document", "io_format.render_document", note=_render_note)
    patch(cli, "pretty_table", "io_format.pretty_table")
    patch(cli, "are_isomorphic", "iso.are_isomorphic", note=_iso_note)
    patch(cli, "fingerprint", "iso.fingerprint")

    patch(core, "verify", "core.verify", note=_verify_note)
    tracer.patch_value(core, "AXIOM_CHECKS", tuple(
        (code, tracer.wrap(fn, "core." + code, "core")) for code, fn in core.AXIOM_CHECKS))

    patch(enum, "_shards", "enumeration.shards")
    patch(enum, "_run_shard", "enumeration.run_shard")
    patch(enum, "_expand", "enumeration.expand", hot=True)
    patch(enum, "ch5_violation", "enumeration.ch5", hot=True)
    patch(enum, "ch1_violation", "enumeration.ch1", hot=True)
    patch(enum, "verified", "core.verified")
    patch(enum, "fingerprint", "iso.fingerprint")
    patch(enum, "are_isomorphic", "iso.are_isomorphic", note=_iso_note)

    patch(construct, "verified", "core.verified")
    patch(construct, "gf", "galois.gf")

    patch(iso, "is_isomorphism", "iso.is_isomorphism", hot=True)
    patch(iso, "fingerprint", "iso.fingerprint")
    # Library jobs call the package-level name.
    patch(hf, "are_isomorphic", "iso.are_isomorphic", note=_iso_note)


def covered(start, end, children):
    """Length of [start, end] covered by the union of the child intervals."""
    total = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def self_times(tracer):
    """Each span's duration minus the time its child spans cover."""
    children = [[] for _ in tracer.spans]
    hot_busy = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span[SPAN_PARENT] is not None:
            children[span[SPAN_PARENT]].append((span[SPAN_START], span[SPAN_END]))
    for (parent, _, _), (_, busy, _) in tracer.hot.items():
        if parent is not None:
            hot_busy[parent] += busy
    out = []
    for i, span in enumerate(tracer.spans):
        start, end = span[SPAN_START], span[SPAN_END]
        out.append(max(0.0, end - start - covered(start, end, children[i]) - hot_busy[i]))
    return out


MINOR_AXIOMS = ("CH2", "CH3", "CH4", "KR2", "HF1", "HF2")

# Counts that depend only on the job list, so two traced passes must agree.
DETERMINISTIC = ("enumeration.candidates", "enumeration.ch5_rejects",
                 "enumeration.ch1_rejects", "enumeration.survivors",
                 "enumeration.classes", "enumeration.dedup_iso_calls",
                 "core.verify_calls", "core.verify_work", "core.verify_fails",
                 "galois.gf_calls", "construct.calls", "iso.calls",
                 "iso.maps_checked", "iso.isomorphic",
                 "io_format.parse_bytes", "io_format.render_bytes")


def layer_metrics(tracer):
    """Per-layer totals over every traced job."""
    spans = tracer.spans
    selfs = self_times(tracer)

    def pick(name=None, site=None, prefix=None):
        return [i for i, s in enumerate(spans)
                if (name is None or s[SPAN_NAME] == name)
                and (site is None or s[SPAN_SITE] == site)
                and (prefix is None or s[SPAN_NAME].startswith(prefix))]

    def dur(idx):
        return sum(spans[i][SPAN_END] - spans[i][SPAN_START] for i in idx)

    def hot(name, field):
        return sum(agg[field] for (_, n, _), agg in tracer.hot.items() if n == name)

    def info(idx, key=None):
        return sum((spans[i][SPAN_INFO] or 0) if key is None
                   else (spans[i][SPAN_INFO] or {}).get(key, 0) for i in idx)

    enum = pick("enumeration.enumerate_hyperfields")
    survivors = pick("core.verified", site="enumeration")
    dedup = pick("iso.fingerprint", site="enumeration") + pick("iso.are_isomorphic",
                                                               site="enumeration")
    verify = pick("core.verify")
    construct = pick(prefix="construct.")
    iso_calls = pick("iso.are_isomorphic")
    parse = pick("io_format.parse_document") + pick("io_format.candidate_from_document")
    render = (pick("io_format.to_document") + pick("io_format.render_document")
              + pick("io_format.pretty_table"))
    return {
        "enumeration.enumerate_s": dur(enum),
        "enumeration.self_s": sum(selfs[i] for i in enum),
        "enumeration.shard_setup_s": dur(pick("enumeration.shards")),
        "enumeration.loop_self_s": sum(selfs[i] for i in pick("enumeration.run_shard")),
        "enumeration.expand_s": hot("enumeration.expand", 1),
        "enumeration.candidates": hot("enumeration.ch5", 0),
        "enumeration.ch5_s": hot("enumeration.ch5", 1),
        "enumeration.ch5_rejects": hot("enumeration.ch5", 2),
        "enumeration.ch1_s": hot("enumeration.ch1", 1),
        "enumeration.ch1_rejects": hot("enumeration.ch1", 2),
        "enumeration.survivors": len(survivors),
        "enumeration.survivor_verify_s": dur(survivors),
        "enumeration.dedup_s": dur(dedup),
        "enumeration.dedup_iso_calls": len(pick("iso.are_isomorphic", site="enumeration")),
        "enumeration.classes": info(enum),
        "core.verify_s": dur(verify),
        "core.verify_calls": len(verify),
        "core.verify_work": info(verify, "work"),
        "core.verify_fails": info(verify, "fail"),
        "core.CH1_s": dur(pick("core.CH1")),
        "core.CH5_s": dur(pick("core.CH5")),
        "core.KR1_s": dur(pick("core.KR1")),
        "core.KR3_s": dur(pick("core.KR3")),
        "core.minor_axioms_s": sum(dur(pick("core." + a)) for a in MINOR_AXIOMS),
        "galois.gf_s": dur(pick("galois.gf")),
        "galois.gf_calls": len(pick("galois.gf")),
        "construct.self_s": sum(selfs[i] for i in construct),
        "construct.calls": len(construct),
        "iso.are_isomorphic_s": dur(iso_calls),
        "iso.calls": len(iso_calls),
        "iso.maps_checked": hot("iso.is_isomorphism", 0),
        "iso.isomorphic": info(iso_calls),
        "iso.fingerprint_s": dur(pick("iso.fingerprint")),
        "io_format.parse_s": dur(parse),
        "io_format.parse_bytes": info(pick("io_format.parse_document")),
        "io_format.render_s": dur(render),
        "io_format.render_bytes": info(pick("io_format.render_document")),
        "cli.self_s": sum(selfs[i] for i in pick("cli.main")),
    }


def job_counts(tracer, job):
    """Enumeration counters of one job: candidates, CH5 rejections, survivors, classes."""
    spans = tracer.spans
    ch5 = [agg for (parent, name, _), agg in tracer.hot.items()
           if name == "enumeration.ch5" and parent is not None
           and spans[parent][SPAN_JOB] == job]
    survivors = sum(1 for s in spans if s[SPAN_JOB] == job and s[SPAN_NAME] == "core.verified"
                    and s[SPAN_SITE] == "enumeration")
    classes = sum(s[SPAN_INFO] for s in spans if s[SPAN_JOB] == job
                  and s[SPAN_NAME] == "enumeration.enumerate_hyperfields")
    return (sum(a[0] for a in ch5), sum(a[2] for a in ch5), survivors, classes)
