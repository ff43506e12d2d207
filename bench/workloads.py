"""Seeded job lists and inputs for the four workloads.

Every choice below comes from ``random.Random(seed)``, so one seed always
gives the same job list and byte-identical input documents.  What sets a
job's cost -- its kind, order and source family, and the row of a
corrupted cell -- is fixed per workload.  The seed picks everything else:
the job order, the rest of each corrupted cell, the added element or
changed product, relabellings, quotient generators, which jobs write
``--out`` files and how a prime-power order is asked for.  So every seed
does nearly the same work, and runs on different seeds compare.

Each workload's mix puts its median job inside a cluster of jobs of one
kind and nearly one cost, so job_p50_ms does not jump between kinds.

Job counts are given for a 20-second run and scale with ``--seconds``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import tables

WORKLOADS = ("classify", "construct", "verify_reject", "iso_pairs")
BASE_SECONDS = 20.0

# Published class counts (orders 2..6: 2, 5, 7, 27, 16).
CLASS_COUNTS = {4: 7, 5: 27, 6: 16}

# construct: --order k over 8-64 in steps of 4, plus sixteen jobs at order
# 29 (asked for as --order 29 or as --method massouros --field 29,1) that
# hold the median job; fields for --method massouros;
# and (p, s) for --method quotient: GF(p) modulo its subgroup of order s
# has 1 + (p-1)/s elements (8, 19, 46 and 64 here).
CONSTRUCT_ORDERS = tuple(range(8, 65, 4)) + (29,) * 16
MASSOUROS_FIELDS = ((13, 1), (41, 1), (7, 2))
QUOTIENTS = ((29, 4), (37, 2), (181, 4), (127, 2))

# verify_reject sources: (family, choices), the choices used in turn.  The
# corrupted rows sit at evenly spaced heights, since the early exits of the
# failing checks follow them.  Hyperaddition corruptions span orders
# 32-128; above 64 they use the triple-sum and quotient families, whose CH1
# exit varies less than the pair family's (0.7-6 s at order 128).
# Multiplication corruptions stop at 64: they leave CH1 to scan all n^3
# triples, which takes 7-16 s at order 128.
ADD_SLOTS = (("pair", tuple(range(32, 41))), ("pair", tuple(range(56, 65))),
             ("triple", (37, 41, 43)), ("triple", (59, 61)),
             ("triple", (89, 97)), ("triple", (113, 127)),
             ("quotient", ((97, 3), (103, 3))), ("quotient", ((127, 2), (113, 2))),
             ("quotient", ((193, 2), (191, 2))), ("quotient", ((509, 4), (251, 2))))
MUL_SLOTS = (("pair", tuple(range(32, 41))), ("pair", tuple(range(44, 53))),
             ("pair", tuple(range(56, 65))),
             ("triple", (37, 41, 43)), ("triple", (47, 53)), ("triple", (59, 61)),
             ("quotient", ((97, 3), (103, 3))), ("quotient", ((97, 2), (101, 2))),
             ("quotient", ((127, 2), (113, 2))))
# Groups of (kind, slots, rows per slot, jobs per row).  The last group,
# sixteen multiplication corruptions in one row of the order-40 pair
# hyperfield, holds the median job.
CORRUPTIONS = (("add", ADD_SLOTS, 3, 1), ("mul", MUL_SLOTS, 2, 1),
               ("mul", (("pair", (40,)),), 1, 16))
# Order-8 product inputs, all on a cyclic group of order 7.  The pairs are
# fixed because a product's cost depends on them (1.0-3.9 s); the seed
# relabels each input and picks which one comes first.
PRODUCTS = ((("pair", 8), ("pair", 8)), (("pair", 8), ("quotient", (29, 4))),
            (("pair", 8), ("quotient", (43, 6))), (("pair", 8), ("quotient", (113, 16))))

# iso_pairs bases by order: (recipe, positive jobs per 20 s).  Same-order
# bases are different constructions whose cell-size multisets differ.
ISO_BASES = {
    32: ((("massouros", 2, 5), 20), (("pair", 32), 30)),
    44: ((("quotient", 173, 4), 20), (("pair", 44), 30)),
    54: ((("pair", 54), 30),),
    64: ((("massouros", 2, 6), 25),),
}
ISO_NEGATIVE_PER_ORDER = 20


@dataclass
class Job:
    """One timed call: CLI argv, or a pair of hyperfields for are_isomorphic."""

    kind: str
    argv: list = field(default_factory=list)
    pair: tuple = ()
    expect: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    label: str = ""


def scaled(count, scale):
    return max(1, round(count * scale))


def prime_power(q):
    """(p, k) with p**k == q, or None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def subgroup_size(p, gens):
    """Order of the subgroup of GF(p)* generated by gens."""
    group = {1}
    frontier = [1]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = a * g % p
            if b not in group:
                group.add(b)
                frontier.append(b)
    return len(group)


def generators_of(rng, p, s):
    """A seeded generating list for the order-s subgroup of GF(p)*."""
    group = tables.subgroup(p, s)
    exact = [g for g in group if subgroup_size(p, [g]) == s]
    gens = [rng.choice(exact)]
    if rng.random() < 0.5:
        gens.append(rng.choice(group))
    return gens


class Inputs:
    """Input files of one process, under a private directory, plus a digest
    of everything generated (paths are hashed relative to that directory)."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self._digest = hashlib.sha256()

    def path(self, name):
        return str(self.dir / name)

    def note(self, item):
        text = json.dumps(item, sort_keys=True, default=str)
        self._digest.update(text.replace(str(self.dir), "$RUN").encode())

    def write(self, name, text):
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        self._digest.update(text.encode())
        return str(path)

    def digest(self):
        return self._digest.hexdigest()


def classify_jobs(rng, scale, inputs, hf):
    jobs = []
    for order, count in ((6, 28), (5, 8), (4, 4)):
        count = scaled(count, scale)
        with_out = set(rng.sample(range(count), max(1, count // 4)))
        for i in range(count):
            argv = ["enumerate", "--order", str(order), "--jobs", "1"]
            outdir = None
            if i in with_out:
                outdir = inputs.path(f"classes{order}_{i}")
                argv += ["--out", outdir]
            jobs.append(Job("enumerate", argv, expect={
                "order": order, "classes": CLASS_COUNTS[order], "outdir": outdir},
                outputs=[outdir] if outdir else []))
    rng.shuffle(jobs)
    return jobs


def construct_jobs(rng, scale, inputs, hf):
    specs = []
    for k in CONSTRUCT_ORDERS * scaled(1, scale):
        field = prime_power(k)
        if field and rng.random() < 0.5:
            specs.append((["--method", "massouros", "--field", "%d,%d" % field], k))
        else:
            specs.append((["--order", str(k)], k))
    for p, k in MASSOUROS_FIELDS * scaled(1, scale):
        specs.append((["--method", "massouros", "--field", f"{p},{k}"], p ** k))
    for p, s in QUOTIENTS * scaled(1, scale):
        gens = generators_of(rng, p, s)
        order = 1 + (p - 1) // subgroup_size(p, gens)
        specs.append((["--method", "quotient", "--field", f"{p},1",
                       "--gens", ",".join(map(str, gens))], order))
    for _ in range(scaled(2, scale)):
        specs.append((["--method", "massouros", "--field", "2,7"], 128))
    rng.shuffle(specs)
    jobs = []
    for i, (args, order) in enumerate(specs):
        argv = ["construct", *args]
        out = None
        if rng.random() < 1 / 3:
            out = inputs.path(f"construct_{i}.json")
            argv += ["--out", out]
        jobs.append(Job("construct", argv, expect={"order": order, "out": out},
                        outputs=[out] if out else []))
    return jobs


def source_tables(family, choice, cache):
    key = (family, choice)
    if key not in cache:
        if family == "pair":
            cache[key] = tables.pair_tables(choice)
        elif family == "triple":
            cache[key] = tables.triple_sum_tables(choice)
        else:
            cache[key] = tables.quotient_tables(*choice)
    return cache[key]


def corrupt(rng, mul, add, kind, row):
    """Copy the tables with one cell changed at (row, b), row != b, both >= 2.

    kind "add" puts one more element into hyperaddition cell (row, b), so
    CH2 fails; an element above the row is preferred, which keeps the first
    CH1 violation near the row.  Kind "mul" changes multiplication entry
    (row, b), so HF1 fails.
    """
    n = len(mul)
    mul = [r[:] for r in mul]
    add = [r[:] for r in add]
    while True:
        b = rng.randrange(2, n)
        if b == row:
            continue
        if kind == "add":
            missing = [e for e in range(n) if e not in add[row][b]]
            if not missing:
                continue
            above = [e for e in missing if e > row]
            add[row][b] = sorted(add[row][b] + [rng.choice(above or missing)])
        else:
            mul[row][b] = rng.choice([v for v in range(1, n) if v != mul[row][b]])
        return mul, add, (row, b)


def verify_reject_jobs(rng, scale, inputs, hf):
    cache = {}
    specs = []
    for kind, slots, rows, repeats in CORRUPTIONS:
        rows = scaled(rows, scale)
        for family, choices in slots:
            for j in range(rows * scaled(repeats, scale)):
                choice = choices[j % len(choices)]
                n = len(source_tables(family, choice, cache)[0])
                height = 2 + int((j % rows + 0.5) * (n - 2) / rows)
                specs.append((kind, family, choice, height))
    jobs = []
    for i, (kind, family, choice, row) in enumerate(specs):
        mul, add, cell = corrupt(rng, *source_tables(family, choice, cache), kind, row)
        path = inputs.write(f"corrupt_{i}.json", tables.document_text(mul, add))
        inputs.note([kind, family, choice, cell])
        axiom = "CH2" if kind == "add" else "HF1"
        jobs.append(Job("verify", ["verify", "--report", path],
                        expect={"axiom": axiom, "mul": mul, "add": add},
                        label=f"verify {kind} {family} {choice}"))
    for i in range(scaled(len(PRODUCTS), scale)):
        paths = []
        sources = list(PRODUCTS[i % len(PRODUCTS)])
        rng.shuffle(sources)
        for side, (family, choice) in zip("ab", sources):
            mul, add = source_tables(family, choice, cache)
            mul, add = tables.relabel(mul, add, tables.random_perm(rng, 8))
            paths.append(inputs.write(f"product_{i}{side}.json",
                                      tables.document_text(mul, add)))
        jobs.append(Job("product", ["construct", "--method", "product",
                                    "--inputs", *paths]))
    rng.shuffle(jobs)
    return jobs


def build_base(hf, recipe):
    if recipe[0] == "massouros":
        return hf.massouros(hf.gf(recipe[1], recipe[2]))
    if recipe[0] == "pair":
        return hf.pair_hyperfield(recipe[1])
    _, p, s = recipe
    f = hf.gf(p)
    generator = next(g for g in tables.subgroup(p, s) if subgroup_size(p, [g]) == s)
    return hf.quotient(f, hf.subgroup_closure(f, [generator]))


def relabelled(rng, hf, base, inputs):
    """A copy of a verified hyperfield under a seeded relabelling fixing 0, 1.

    The copy is isomorphic to a verified hyperfield by construction, so it
    is wrapped without verifying it again: the other workloads time verify.
    """
    perm = tables.random_perm(rng, base.n)
    inputs.note(perm)
    return hf.Hyperfield(hf.relabel(base.candidate, perm))


def iso_pairs_jobs(rng, scale, inputs, hf):
    jobs = []
    for order, entries in ISO_BASES.items():
        bases = []
        for recipe, count in entries:
            base = build_base(hf, recipe)
            inputs.note(recipe)
            bases.append(base)
            for _ in range(scaled(count, scale)):
                pair = (base, relabelled(rng, hf, base, inputs))
                jobs.append(Job("iso", pair=pair, expect={"isomorphic": True},
                                label=f"iso {recipe}"))
        if len(bases) > 1:
            for _ in range(scaled(ISO_NEGATIVE_PER_ORDER, scale)):
                first, second = rng.sample(bases, 2)
                pair = (first, relabelled(rng, hf, second, inputs))
                jobs.append(Job("iso", pair=pair, expect={"isomorphic": False},
                                label=f"iso order {order} different"))
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {
    "classify": classify_jobs,
    "construct": construct_jobs,
    "verify_reject": verify_reject_jobs,
    "iso_pairs": iso_pairs_jobs,
}


def build_jobs(workload, seed, seconds, inputs, hf):
    """The workload's job list; hf is the imported hyperfields package."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = JOB_LISTS[workload](rng, seconds / BASE_SECONDS, inputs, hf)
    for job in jobs:
        inputs.note([job.kind, job.argv, job.expect.get("order"),
                     job.expect.get("isomorphic")])
    return jobs
