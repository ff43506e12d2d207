"""Data model for Krasner hyperfield candidates and the verifier.

A hyperaddition value is a nonempty subset of the carrier 0..n-1, stored as
an int bitmask (bit i set <=> element i is a member).  Candidates keep both
tables as plain nested tuples of ints, which makes them hashable, cheap to
compare, and fast to scan in the enumeration kernel.

Nothing is assumed about a candidate beyond table shape: the distinguished
zero (index 0) and one (index 1) earn their roles through verify(), which
checks the canonical-hypergroup axioms CH1..CH5, the hyperring axioms
KR1..KR3 and the hyperfield axioms HF1..HF2.  A pass is proved by
reductions that are theorems (see the comment on the axiom checks), and a
failure is found by exhaustion with a concrete witness.

The one row.  A hyperfield is fixed by its multiplication and its row
v(z) = 1 (+) z through the scaling identity x (+) y = x . v(x^-1 y) for
x != 0.  _expand() is the one place it is coded: expand_one_row() builds
the constructions' tables from the v they state, the enumeration kernel
expands each map v it searches, and verify() proves KR3 by checking that
a table is the expansion of its own row 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice
from operator import or_
from typing import Iterable, Iterator, Optional

from .errors import AxiomViolationError, DomainError, PreconditionError, StructuralError


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class ElementSet:
    """A subset of the carrier 0..n-1 held as a membership mask."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError("carrier size must be >= 1")
        if not 0 <= self.mask < (1 << self.n):
            raise StructuralError("membership mask out of range")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "ElementSet":
        idx = tuple(indices)
        if any(not 0 <= i < n for i in idx):
            raise StructuralError("member index out of range")
        return cls(n, mask_of(idx))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0


@dataclass(frozen=True)
class HyperfieldCandidate:
    """An order-n table pair: hyperaddition (masks) and multiplication (indices).

    zero is index 0 and one is index 1 by convention; neither role is
    presumed by the data structure -- verify() establishes them.
    """

    n: int
    hyperadd: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]

    zero = 0
    one = 1

    @classmethod
    def from_sets(cls, n: int, hyperadd_cells, mul) -> "HyperfieldCandidate":
        """Build from per-cell member collections instead of raw masks."""
        rows = tuple(tuple(mask_of(cell) for cell in row) for row in hyperadd_cells)
        return cls(n, rows, tuple(tuple(row) for row in mul))

    def cell(self, a: int, b: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.hyperadd[a][b]))


def validate_candidate(c: HyperfieldCandidate) -> None:
    """Raise StructuralError unless the tables are well-formed."""
    n = c.n
    if n < 2:
        raise StructuralError("carrier must have at least 2 elements")
    if len(c.hyperadd) != n or len(c.mul) != n:
        raise StructuralError("tables must be n x n")
    full = 1 << n
    for row in c.hyperadd:
        if len(row) != n:
            raise StructuralError("tables must be n x n")
        for m in row:
            if not 0 < m < full:
                raise StructuralError("hyperaddition cell empty or out of range")
    for row in c.mul:
        if len(row) != n:
            raise StructuralError("tables must be n x n")
        if any(not 0 <= v < n for v in row):
            raise StructuralError("multiplication entry out of range")


def hyper_sum(c: HyperfieldCandidate, a: int, b: int) -> ElementSet:
    """The hyperaddition value a (+) b."""
    if not (0 <= a < c.n and 0 <= b < c.n):
        raise StructuralError("element index out of range")
    m = c.hyperadd[a][b]
    if m == 0:
        raise StructuralError(f"empty hyperaddition cell at ({a},{b})")
    return ElementSet(c.n, m)


def hyper_sum_sets(c: HyperfieldCandidate, a_set: ElementSet, b_set: ElementSet) -> ElementSet:
    """Union extension of the hyperaddition to subsets."""
    if a_set.n != c.n or b_set.n != c.n:
        raise StructuralError("set carrier size does not match candidate")
    if not a_set or not b_set:
        raise DomainError("hyperaddition of an empty set is undefined")
    out = 0
    rows = c.hyperadd
    for a in a_set:
        row = rows[a]
        for b in b_set:
            out |= row[b]
    return ElementSet(c.n, out)


def _zero_partners(row) -> list[int]:
    """Every y with 0 in x (+) y, given the row of x: its candidate opposites."""
    return [y for y, m in enumerate(row) if m & 1]


def opposite(c: HyperfieldCandidate, a: int) -> int:
    """The unique x' with 0 in a (+) x'."""
    if not 0 <= a < c.n:
        raise StructuralError("element index out of range")
    found = tuple(_zero_partners(c.hyperadd[a]))
    if len(found) != 1:
        raise AxiomViolationError(
            f"element {a} has {len(found)} opposites", candidates=found)
    return found[0]


# --- the multiplicative group ------------------------------------------
#
# Inverses, element orders, spans and isomorphisms of the nonzero part of a
# mul table.  element_orders() and group_isomorphisms() need that part to be
# a group with identity 1; element_orders() loops forever on a table that is
# not associative.


def inverses(n, mul) -> list[int]:
    """inv[x] is the y in 1..n-1 with x.y = 1; inv[0], and inv[x] when x has
    no inverse, is 0."""
    return [0] + [row.index(1, 1) if 1 in row[1:] else 0 for row in mul[1:n]]


def element_orders(n, mul) -> list[int]:
    """orders[x] is the multiplicative order of x; orders[0] is 0."""
    orders = [0] * n
    for x in range(1, n):
        y, k = x, 1
        while y != 1:
            y = mul[y][x]
            k += 1
        orders[x] = k
    return orders


def span(mul, gens) -> list[int]:
    """The subgroup generated by gens, in breadth-first order from 1 along
    right multiplication by each generator.  In a finite group, products of
    the generators already include their inverses."""
    found = [1]
    seen = {1}
    for a in found:  # found grows while it is walked
        row = mul[a]
        for g in gens:
            b = row[g]
            if b not in seen:
                seen.add(b)
                found.append(b)
    return found


def greedy_generators(n, mul) -> Iterator[int]:
    """Each x in 2..n-1 that lies outside the span of the ones yielded before
    it.  In a group every one at least doubles the span, so a group of order
    n-1 has fewer than (n-1).bit_length() of them."""
    gens: list[int] = []
    reached = {1}
    for x in range(2, n):
        if x not in reached:
            gens.append(x)
            yield x
            reached = set(span(mul, gens))


def group_isomorphisms(n, mul1, mul2) -> Iterator[tuple[int, ...]]:
    """Every isomorphism of the nonzero groups of mul1 and mul2, each as a
    permutation of 0..n-1 that fixes 0.

    Greedy generators of the first group take images of equal order by
    backtracking.  Each partial choice is extended from 1 along generator
    edges, a -> a.g mapping to phi(a) -> phi(a).phi(g), and dropped on the
    first contradiction or repeated image; a full choice that survives is a
    homomorphism on a generating set, injective, hence an isomorphism.
    """
    ord1, ord2 = element_orders(n, mul1), element_orders(n, mul2)
    if sorted(ord1) != sorted(ord2):
        return
    by_order: dict[int, list[int]] = {}
    for x in range(1, n):
        by_order.setdefault(ord2[x], []).append(x)
    gens = list(greedy_generators(n, mul1))

    def along_edges(images):
        # phi on the span of gens[:len(images)], or None on a clash.
        phi = [0] * n
        phi[1] = 1
        used = {1}
        edges = list(zip(gens, images))
        walk = [1]
        for a in walk:  # walk grows while it is walked
            row1, row2 = mul1[a], mul2[phi[a]]
            for g, u in edges:
                b, img = row1[g], row2[u]
                if phi[b] != img:
                    if phi[b] or img in used:  # a contradiction or a repeated image
                        return None
                    phi[b] = img
                    used.add(img)
                    walk.append(b)
        return phi

    def backtrack(images, phi):
        if len(images) == len(gens):
            yield tuple(phi)
            return
        for u in by_order[ord1[gens[len(images)]]]:
            trial = images + [u]
            extended = along_edges(trial)
            if extended is not None:
                yield from backtrack(trial, extended)

    yield from backtrack([], along_edges([]))


# --- axiom checks ------------------------------------------------------
#
# Each check returns None on success, else (witness, reason) where witness
# is the lexicographically first violating tuple.  verify() reports every
# failed axiom (full report, not fail-fast); the enumeration kernel reuses
# the two checks its expansion cannot guarantee.
#
# CH1 and KR3 are the O(n^3) costs.  They scan a whole row over z at a time:
# for fixed x and y each side becomes a sequence over z, built by C-level
# map() and compared with one ==; only a mismatching pair of rows is walked
# to find its first z.  A table has few distinct masks, and the image of a
# mask under "x (+) -", "x . -" or "- . x" is the union of the images of its
# members, so for each x every mask's image is computed once into a dict
# that is dropped before the next x.  For CH1, the row (x (+) y) (+) z over
# z depends only on the mask x (+) y, so it is built once per distinct mask
# as the OR of the rows of its members.  Cells must be nonempty, which
# validate_candidate() and the enumeration kernel's expansion guarantee.
#
# A table that passes the six O(n^2) checks (CH2, CH3, CH4, KR2, HF1, HF2)
# is a commutative magma with identity 1, absorbing 0 and inverses.  On such
# a table _passes_reduced() proves the other four axioms by three
# reductions; each is a theorem, so a pass claims no less than the
# exhaustive checks:
#
#   KR1 by Light's test (Clifford & Preston, The Algebraic Theory of
#     Semigroups I, section 1.4): the s with (x.s).y = x.(s.y) for all x, y
#     are closed under products, since (x.ab).y = ((x.a).b).y =
#     (x.a).(b.y) = x.(a.(b.y)) = x.(ab.y); so checking the greedy
#     generators of the nonzero part, with 0 and 1 holding by KR2 and HF1,
#     proves the whole table associative.
#   KR3 by the scaling identity x (+) y = x . v(x^-1 y) for every x != 0,
#     where v(z) = 1 (+) z.  KR3 gives it: x . (1 (+) x^-1 y) = x (+) y.  It
#     gives KR3 back: for a, b != 0, ab (+) ac = ab . v(b^-1 c) =
#     a . (b . v(b^-1 c)) = a . (b (+) c); a = 0 or b = 0 holds by CH3 and
#     KR2, and the right law by HF1.
#   CH1 and CH5 at x = 1 only: under the scaling identity multiplying by
#     x^-1 maps a violation at (x, y, z) with x != 0 onto one at
#     (1, x^-1 y, x^-1 z), because opposites scale as (a.x)' = a.x' by CH4;
#     at x = 0 both axioms follow from CH3.
#
# Cost: Light's test compares n-2 rows of length n per greedy generator, and
# a group of order n-1 has at most log2(n-1) of those (GF(2^k) has k), so it
# is O(n^2 log n).  The scaling identity and the scans at x = 1 take O(n^2)
# mask operations plus one OR per member of each distinct mask they scale or
# sum: O(n^2) on tables with cells of bounded size, such as the triple-sum
# and pair hyperfields.
#
# A table the reductions do not prove goes through every exhaustive check,
# so every failure keeps its lexicographically first witness and reason.


def _members(hyperadd):
    """Each distinct mask of the table -> its member indices."""
    return {m: tuple(iter_bits(m)) for m in set(chain.from_iterable(hyperadd))}


def _images(members, parts):
    """Each mask of the table -> the OR of parts[w] over its members w."""
    get = parts.__getitem__
    return {m: reduce(or_, map(get, bits)) for m, bits in members.items()}


def _or_rows(a, b):
    return tuple(map(or_, a, b))


def _ch1_scan(n, hyperadd, xs):
    """The first CH1 violation with x in xs."""
    members = _members(hyperadd)
    sums = {}  # mask m -> the row m (+) z over z
    for x in xs:
        hx = hyperadd[x]
        left = _images(members, hx).__getitem__  # mask m -> x (+) m
        for y in range(n):
            row = tuple(map(left, hyperadd[y]))
            m = hx[y]
            other = sums.get(m)
            if other is None:  # tuple(): the kernel's rows are lists
                other = sums[m] = tuple(reduce(_or_rows, map(hyperadd.__getitem__, members[m])))
            if row != other:
                z = next(z for z in range(n) if row[z] != other[z])
                return (x, y, z), "regrouped sums differ"
    return None


def ch1_violation(n, hyperadd, mul):
    return _ch1_scan(n, hyperadd, range(n))


def ch2_violation(n, hyperadd, mul):
    for x in range(n):
        for y in range(x + 1, n):
            if hyperadd[x][y] != hyperadd[y][x]:
                return (x, y), "sum not symmetric"
    return None


def ch3_violation(n, hyperadd, mul):
    for x in range(n):
        if hyperadd[0][x] != 1 << x:
            return (x,), "zero row not scalar identity"
    return None


def ch4_violation(n, hyperadd, mul):
    for x in range(n):
        found = _zero_partners(hyperadd[x])
        if not found:
            return (x,), "no opposite"
        if len(found) > 1:
            return (x, found[0], found[1]), "multiple opposites"
    return None


def _ch5_scan(n, hyperadd, xs):
    """The first CH5 violation with x in xs."""
    opp = [p[0] if len(p) == 1 else None for p in map(_zero_partners, hyperadd)]
    for x in xs:
        xo = opp[x]
        for y in range(n):
            yo = opp[y]
            members = hyperadd[x][y]
            for z in iter_bits(members):
                if xo is None or yo is None:
                    return (x, y, z), "opposite undefined"
                if not hyperadd[xo][z] >> y & 1:
                    return (x, y, z), "y not in x'(+)z"
                if not hyperadd[z][yo] >> x & 1:
                    return (x, y, z), "x not in z(+)y'"
    return None


def ch5_violation(n, hyperadd, mul):
    return _ch5_scan(n, hyperadd, range(n))


def kr1_violation(n, hyperadd, mul):
    for x in range(n):
        for y in range(n):
            mxy = mul[x][y]
            for z in range(n):
                if mul[mxy][z] != mul[x][mul[y][z]]:
                    return (x, y, z), "regrouped products differ"
    return None


def kr2_violation(n, hyperadd, mul):
    for x in range(n):
        if mul[x][0] != 0 or mul[0][x] != 0:
            return (x,), "zero not absorbing"
    return None


def kr3_violation(n, hyperadd, mul):
    members = _members(hyperadd)
    for x in range(n):
        mx = mul[x]
        col = [row[x] for row in mul]
        scale_left = _images(members, [1 << v for v in mx]).__getitem__  # mask m -> x . m
        scale_right = _images(members, [1 << v for v in col]).__getitem__  # mask m -> m . x
        for y in range(n):
            hy = hyperadd[y]
            left = list(map(scale_left, hy))
            left_want = list(map(hyperadd[mx[y]].__getitem__, mx))
            right = list(map(scale_right, hy))
            right_want = list(map(hyperadd[col[y]].__getitem__, col))
            if left != left_want or right != right_want:
                for z in range(n):
                    if left[z] != left_want[z]:
                        return (x, y, z), "left distributivity fails"
                    if right[z] != right_want[z]:
                        return (x, y, z), "right distributivity fails"
    return None


def hf1_violation(n, hyperadd, mul):
    for x in range(n):
        for y in range(x + 1, n):
            if mul[x][y] != mul[y][x]:
                return (x, y), "multiplication not commutative"
    for x in range(n):
        if mul[1][x] != x:
            return (x,), "one not identity"
    return None


def hf2_violation(n, hyperadd, mul):
    for x in range(1, n):
        for y in range(1, n):
            if mul[x][y] == 0:
                return (x, y), "zero divisor"
    for x in range(1, n):
        if not any(mul[x][y] == 1 for y in range(1, n)):
            return (x,), "no multiplicative inverse"
    return None


AXIOM_CHECKS = (
    ("CH1", ch1_violation),
    ("CH2", ch2_violation),
    ("CH3", ch3_violation),
    ("CH4", ch4_violation),
    ("CH5", ch5_violation),
    ("KR1", kr1_violation),
    ("KR2", kr2_violation),
    ("KR3", kr3_violation),
    ("HF1", hf1_violation),
    ("HF2", hf2_violation),
)

AXIOM_NAMES = {
    "CH1": "hyperaddition associative",
    "CH2": "hyperaddition commutative",
    "CH3": "zero scalar identity",
    "CH4": "unique opposite",
    "CH5": "reversibility",
    "KR1": "multiplication associative",
    "KR2": "zero bilaterally absorbing",
    "KR3": "multiplication distributes over hyperaddition",
    "HF1": "multiplication commutative with identity",
    "HF2": "nonzero elements form a group",
}


# The checks verify() runs before the reductions: each costs O(n^2).
QUADRATIC_AXIOMS = frozenset(("CH2", "CH3", "CH4", "KR2", "HF1", "HF2"))


# --- the one row ------------------------------------------------------


def _expand(n, mul, inv, smul, keys):
    """The hyperaddition x (+) y = x . v(x^-1 y) of a one row v.

    inv[x] is the inverse of x != 0, and smul[x][keys[z]] is x . v(z).  The
    kernel keys v(z) by its mask, _row_scalars() by an index.  Returns fresh
    lists.
    """
    hyperadd = [[0] * n for _ in range(n)]
    row0 = hyperadd[0]
    for y in range(n):
        row0[y] = 1 << y
    for x in range(1, n):
        rx = hyperadd[x]
        rx[0] = 1 << x
        mi = mul[inv[x]]
        sx = smul[x]
        for y in range(1, n):
            rx[y] = sx[keys[mi[y]]]
    return hyperadd


def _row_scalars(mul, v):
    """(smul, keys) for _expand(): keys[z] indexes v(z) among the distinct
    masks of v, and smul[x][k] is the k-th mask's image under x.  Images are
    ORed a whole column of mul at a time.  O(n^2) on bounded cells."""
    cols = [tuple(map((1).__lshift__, col)) for col in zip(*mul)]  # cols[w][x] = {x . w}
    members = _members((v,))
    index = {m: k for k, m in enumerate(members)}
    images = [reduce(_or_rows, map(cols.__getitem__, bits)) for bits in members.values()]
    return list(zip(*images)), [index[m] for m in v]


@dataclass(frozen=True)
class OneRowMap:
    """The row v(z) = 1(+)z for every z; v(0) is forced to {1}."""

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if len(self.masks) != n:
            raise StructuralError("one-row map must cover the whole carrier")
        if self.masks[0] != 1 << 1:
            raise StructuralError("1(+)0 must be {1}")
        full = 1 << n
        if any(not 0 < m < full for m in self.masks):
            raise StructuralError("row value empty or out of range")
        if sum(self.masks[z] & 1 for z in range(1, n)) != 1:
            raise StructuralError("exactly one nonzero z may have 0 in v(z)")


def expand_one_row(mul_table, nu: OneRowMap) -> HyperfieldCandidate:
    """Rebuild the full hyperaddition from v via x(+)y = x.v(x^-1 y).

    mul_table is a full n x n multiplication table whose nonzero part is a
    group with identity 1, such as a field's or one from abelian_groups().
    The result may still fail verify(): only distributivity-derived
    structure is built in.  Costs O(n^2) on rows of bounded cell size.
    """
    n = nu.n
    mul = tuple(tuple(row) for row in mul_table)
    if len(mul) != n or any(len(r) != n for r in mul):
        raise StructuralError("multiplication table must be n x n")
    inv = inverses(n, mul)
    if any(inv[x] == 0 for x in range(1, n)):
        raise StructuralError("nonzero part of mul_table is not a group")
    hyperadd = _expand(n, mul, inv, *_row_scalars(mul, nu.masks))
    return HyperfieldCandidate(n, tuple(map(tuple, hyperadd)), mul)


def _light_associative(n, mul) -> bool:
    """KR1 by Light's test on the greedy generators; mul has tuple rows.
    More generators than a group of order n-1 can have means no group."""
    limit = (n - 1).bit_length()
    gens = list(islice(greedy_generators(n, mul), limit + 1))
    if len(gens) > limit or len(span(mul, gens)) != n - 1:
        return False
    for s in gens:
        ms = mul[s]
        for x in range(2, n):
            mx = mul[x]
            if mul[mx[s]] != tuple(map(mx.__getitem__, ms)):  # (x.s).y vs x.(s.y) over y
                return False
    return True


def _scales_from_one_row(n, hyperadd, mul) -> bool:
    """KR3 by the scaling identity, given a group with zero."""
    expanded = _expand(n, mul, inverses(n, mul), *_row_scalars(mul, hyperadd[1]))
    return expanded == list(map(list, hyperadd))


def _passes_reduced(n, hyperadd, mul) -> bool:
    """True when CH1, CH5, KR1 and KR3 are proved by the three reductions on
    a table that passes every check in QUADRATIC_AXIOMS; False means "not
    proved", never "fails", and yields no witness.  KR1 goes first: the
    other reductions assume a group.  Light's test compares the tuple rows
    that HyperfieldCandidate declares; list rows can cost the fast path,
    never the verdict."""
    return (_light_associative(n, mul)
            and _scales_from_one_row(n, hyperadd, mul)
            and _ch5_scan(n, hyperadd, (1,)) is None
            and _ch1_scan(n, hyperadd, (1,)) is None)


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    witness: Optional[tuple[int, ...]] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class AxiomReport:
    results: tuple[AxiomResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def __getitem__(self, axiom: str) -> AxiomResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)


def verify(c: HyperfieldCandidate) -> AxiomReport:
    """Check all ten hyperfield axioms; never fail-fast.

    A pass is proved by the reductions, and a failure by exhaustion with
    witnesses: the O(n^2) checks run first, and when they all pass,
    _passes_reduced() decides the other four in O(n^2 log n) on tables with
    cells of bounded size.  Whatever it does not prove runs through the
    exhaustive checks of AXIOM_CHECKS, whose cost grows as n^3.
    """
    validate_candidate(c)
    n, hyperadd, mul = c.n, c.hyperadd, c.mul
    checks = AXIOM_CHECKS
    hits = {code: fn(n, hyperadd, mul) for code, fn in checks if code in QUADRATIC_AXIOMS}
    proved = all(hit is None for hit in hits.values()) and _passes_reduced(n, hyperadd, mul)
    if not proved:
        hits.update((code, fn(n, hyperadd, mul)) for code, fn in checks if code not in hits)
    results = []
    for code, _ in checks:
        hit = hits.get(code)
        if hit is None:
            results.append(AxiomResult(code, True))
        else:
            witness, reason = hit
            results.append(AxiomResult(code, False, witness, reason))
    return AxiomReport(tuple(results))


@dataclass(frozen=True)
class Hyperfield:
    """A candidate that has passed verify(); create via verified()."""

    candidate: HyperfieldCandidate

    @property
    def n(self) -> int:
        return self.candidate.n

    @property
    def hyperadd(self) -> tuple[tuple[int, ...], ...]:
        return self.candidate.hyperadd

    @property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        return self.candidate.mul


def verified(c: HyperfieldCandidate) -> Hyperfield:
    """Verify c and wrap it; raises AxiomViolationError with the report."""
    report = verify(c)
    if not report.ok:
        first = report.failures()[0]
        raise AxiomViolationError(
            f"axiom {first.axiom} fails at {first.witness}: {first.reason}",
            report=report)
    return Hyperfield(c)


def require_verified(h) -> Hyperfield:
    if not isinstance(h, Hyperfield):
        raise PreconditionError("a verified hyperfield is required; call verified() first")
    return h


def relabel(c: HyperfieldCandidate, perm: tuple[int, ...]) -> HyperfieldCandidate:
    """Apply a carrier bijection: new index of old element i is perm[i]."""
    n = c.n
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise DomainError("perm must be a bijection on 0..n-1")
    hyperadd = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        pa = perm[a]
        for b in range(n):
            img = 0
            for w in iter_bits(c.hyperadd[a][b]):
                img |= 1 << perm[w]
            hyperadd[pa][perm[b]] = img
            mul[pa][perm[b]] = perm[c.mul[a][b]]
    return HyperfieldCandidate(n, tuple(map(tuple, hyperadd)), tuple(map(tuple, mul)))
