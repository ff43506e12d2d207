"""Data model for Krasner hyperfield candidates and the verifier.

A hyperaddition value is a nonempty subset of the carrier 0..n-1, stored as
an int bitmask (bit i set <=> element i is a member).  Candidates keep both
tables as plain nested tuples of ints, which makes them hashable, cheap to
compare, and fast to scan in the enumeration kernel.

Nothing is assumed about a candidate beyond table shape: the distinguished
zero (index 0) and one (index 1) earn their roles through verify(), which
checks the canonical-hypergroup axioms CH1..CH5, the hyperring axioms
KR1..KR3 and the hyperfield axioms HF1..HF2, each once on one view of the
table.  The four cubic axioms have exact deciders, theorem first, scan
second: a theorem proves the axiom where it applies, and otherwise a scan
names the witness an exhaustive one would (see the comment on the checks).

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
# Each entry of AXIOM_CHECKS takes the _Table view verify() builds of a
# validated table and returns None on success, else (witness, reason) where
# witness is the lexicographically first violating tuple.  verify() calls
# every entry once; the view computes each fact they share at most once.
#
# CH2, CH3, CH4, KR2, HF1 and HF2 scan their O(n^2) cells.  CH1, CH5, KR1
# and KR3 range over n^3 triples, and each is an exact decider, theorem
# first, scan second: it proves the axiom where a theorem applies, and
# otherwise scans what the theorems leave open, so it returns what a scan
# of every triple in lexicographic order would.
#
#   KR1: Light's test (Clifford & Preston, The Algebraic Theory of
#     Semigroups I, section 1.4).  The s with (x.s).y = x.(s.y) for all
#     x, y are closed under products, since (x.ab).y = ((x.a).b).y =
#     (x.a).(b.y) = x.(a.(b.y)) = x.(ab.y).  Where 1 is a two-sided
#     identity and 0 two-sided absorbing, both lie in that set, so checking
#     the greedy generators of the nonzero part proves the table
#     associative.  Otherwise each (x, y) compares the rows (x.y).z and
#     x.(y.z) over z.
#   KR3: the certificate.  Where mul is a commutative group with zero
#     (Light's test passes, rows equal columns, every x != 0 has an
#     inverse) and hyperadd is the expansion of its own row 1 by the
#     scaling identity x (+) y = x . v(x^-1 y), v(z) = 1 (+) z, for
#     a, b, c != 0 ab (+) ac = ab . v(b^-1 c) = a . (b . v(b^-1 c)) =
#     a . (b (+) c); a, b or c = 0 holds by the expansion's row and column
#     0 and the absorbing 0, and the right law by commutativity.
#     Otherwise x is taken in ascending order.  x = 0 distributes where 0
#     is absorbing and 0 (+) 0 = {0}, and x = 1 where 1 is the identity.
#     If g and c distribute, so does any x whose row is g.(c.w) over w and
#     whose column is (w.g).c over w: apply the laws of c and then those of
#     g.  An x that no pair (g, c) has certified this way, with g shown
#     distributive and c certified, is scanned, and the first x that fails
#     its scan is the first x that fails at all.  Each pair is tried once,
#     at O(n).
#   CH1 and CH5: a left multiplication s: w -> x.w that is a bijection,
#     fixes 0 and distributes is an automorphism of (H, (+)), and it maps a
#     violation at (x, y, z) to one at (s x, s y, s z) with the same reason
#     (it maps opposites to opposites, as it fixes 0).  So the x with a
#     violation are a union of orbits of the group such maps generate, and
#     the first of them leads its orbit: only the least element of each
#     orbit is scanned.  Under the certificate every x != 0 gives such a
#     map, and the leaders are 0 and 1.  Otherwise generators are taken
#     greedily from the x that still lead their orbits, and the search
#     stops at the first bijection fixing 0 that does not distribute; with
#     none found every x is scanned.  CH1 skips x = 0 where CH3 holds, as
#     0 (+) m = m, and scans nothing where _ch1_symmetry() proves it.
#
# A scan takes a whole row over z at a time: for fixed x and y each side
# becomes a sequence over z, built by C-level map() and compared with one
# ==; only a mismatching pair of rows is walked to find its first z.  A
# table has few distinct masks, and the image of a mask under "x (+) -",
# "x . -" or "- . x" is the union of the images of its members, so for each
# x every mask's image is computed once into a dict that is dropped before
# the next x.  For CH1, the row (x (+) y) (+) z over z depends only on the
# mask x (+) y, so it is built once per distinct mask as the OR of the rows
# of its members.  Cells must be nonempty, which validate_candidate() and
# the enumeration kernel's expansion guarantee.
#
# Cost on a hyperfield: Light's test compares n-2 rows of length n per
# greedy generator, and a group of order n-1 has at most log2(n-1) of those
# (GF(2^k) has k), so it is O(n^2 log n); the certificate, the CH1 theorem
# and the CH5 scans at x = 0 and 1 take O(n^2) mask operations plus one OR
# per member of each distinct mask they scale or sum, O(n^2) on cells of
# bounded size, such as the triple-sum and pair hyperfields.  A table whose
# multiplication is one cell off a group's keeps the automorphisms of the
# intact rows, so CH1 and CH5 scan 0 and the few leaders of the group those
# generate, and KR3 scans the greedy generators and the x below its witness
# that no pair reaches: O(n^2 log n) on bounded cells.  A hyperaddition
# corruption breaks the automorphisms (the cell-size test usually shows it
# at once), so CH1 and CH5 scan every x up to their witness, O(n^3) when it
# sits near row n; KR1 is proved by Light's test, and KR3 fails at its
# first x that does not distribute.


def _members(hyperadd):
    """Each distinct mask of the table -> its member indices."""
    return {m: tuple(iter_bits(m)) for m in set(chain.from_iterable(hyperadd))}


def _images(members, parts):
    """Each mask of the table -> the OR of parts[w] over its members w."""
    get = parts.__getitem__
    return {m: reduce(or_, map(get, bits)) for m, bits in members.items()}


def _or_rows(a, b):
    return tuple(map(or_, a, b))


def _first_difference(a, b):
    """The first index at which two sequences that differ disagree."""
    return next(i for i, (u, v) in enumerate(zip(a, b)) if u != v)


def _distribution_rows(t, s):
    """For each y, the rows over z of s(y (+) z) and of s(y) (+) s(z), where
    s lists the values of a map of the carrier: s distributes over (+)
    exactly where the two agree."""
    scale = _images(t.members, [1 << v for v in s]).__getitem__
    for y, row in enumerate(t.hyperadd):
        yield list(map(scale, row)), list(map(t.hyperadd[s[y]].__getitem__, s))


def _leaders(n, perms):
    """The least element of each orbit of the group the permutations
    generate, ascending.  In a finite group the orbits are those of the
    forward walk along the permutations."""
    leaders = []
    seen = [False] * n
    for x in range(n):
        if not seen[x]:
            leaders.append(x)
            seen[x] = True
            walk = [x]
            for a in walk:  # walk grows while it is walked
                for p in perms:
                    b = p[a]
                    if not seen[b]:
                        seen[b] = True
                        walk.append(b)
    return leaders


class _fact:
    """A fact of _Table, computed on its first read and stored in the
    instance dict, where later reads find it first: functools.cached_property
    without the lock it takes in CPython 3.11."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, t, owner=None):
        value = t.__dict__[self.name] = self.compute(t)
        return value


class _Table:
    """One verify() call's view of a table: n, hyperadd and mul as given
    (tuple or list rows), and the facts the axiom checks share, each
    computed at most once."""

    def __init__(self, n, hyperadd, mul):
        self.n, self.hyperadd, self.mul = n, hyperadd, mul

    @_fact
    def members(t):
        return _members(t.hyperadd)

    @_fact
    def partners(t):
        """partners[x] lists the candidate opposites of x."""
        return list(map(_zero_partners, t.hyperadd))

    @_fact
    def rows(t):
        """The rows of mul as tuples, so that rows and columns compare."""
        return tuple(map(tuple, t.mul))

    @_fact
    def cols(t):
        return tuple(zip(*t.mul))

    @_fact
    def neutral(t):
        """(0 is two-sided absorbing, 1 is a two-sided identity) in mul."""
        rows, cols = t.rows, t.cols
        return not any(rows[0]) and not any(cols[0]), rows[1] == cols[1] == tuple(range(t.n))

    @_fact
    def associative(t):
        """Light's test on the greedy generators, given the identity and
        the absorbing zero.  More generators than a group of order n-1 can
        have means no group."""
        n, rows = t.n, t.rows
        if not all(t.neutral):
            return False
        limit = (n - 1).bit_length()
        gens = list(islice(greedy_generators(n, rows), limit + 1))
        if len(gens) > limit or len(span(rows, gens)) != n - 1:
            return False
        # (x.s).y against x.(s.y) over y
        return all(rows[mx[s]] == tuple(map(mx.__getitem__, rows[s]))
                   for s in gens for mx in rows[2:])

    @_fact
    def scales(t):
        """The certificate: mul is a commutative group with zero and
        hyperadd is the expansion of its own row 1."""
        n, rows, hyperadd = t.n, t.rows, t.hyperadd
        if not (t.associative and rows == t.cols):
            return False
        inv = inverses(n, rows)
        return all(inv[1:]) and (_expand(n, rows, inv, *_row_scalars(rows, hyperadd[1]))
                                 == list(map(list, hyperadd)))

    @_fact
    def leaders(t):
        """The x that the CH1 and CH5 scans must visit: the least element of
        each orbit under the automorphisms of (+) found among the left
        multiplications.  Each x in 2..n-1 that leads its orbit so far is a
        generator when its row is a bijection fixing 0 that distributes over
        (+); the search stops at the first such bijection that does not."""
        if t.scales:
            return [0, 1]
        n = t.n
        sizes = [list(map(int.bit_count, row)) for row in t.hyperadd]
        perms = []
        leaders = list(range(n))
        for x, row in enumerate(t.rows[2:], 2):
            if x not in leaders or row[0] != 0 or len(set(row)) != n:
                continue
            # an automorphism keeps the size of every cell, which is quick to test first
            if (any(list(map(sizes[row[y]].__getitem__, row)) != sizes[y] for y in range(n))
                    or any(got != want for got, want in _distribution_rows(t, row))):
                break
            perms.append(row)
            leaders = _leaders(n, perms)
        return leaders


def _ch1_scan(t, xs):
    """The first CH1 violation with x in xs."""
    n, hyperadd, members = t.n, t.hyperadd, t.members
    sums = {}  # mask m -> the row m (+) z over z
    for x in xs:
        hx = hyperadd[x]
        left = _images(members, hx).__getitem__  # mask m -> x (+) m
        for y in range(n):
            row = tuple(map(left, hyperadd[y]))
            m = hx[y]
            other = sums.get(m)
            if other is None:  # tuple(): a candidate's rows may be lists
                other = sums[m] = tuple(reduce(_or_rows, map(hyperadd.__getitem__, members[m])))
            if row != other:
                return (x, y, _first_difference(row, other)), "regrouped sums differ"
    return None


def _asymmetry(rows, cols):
    """The first (x, y) with rows[x][y] != cols[x][y], or None, given the
    columns cols of rows: the first row unlike its column differs at y > x."""
    for x, row in enumerate(map(tuple, rows)):
        if row != cols[x]:
            return x, _first_difference(row, cols[x])
    return None


def _ch1_symmetry(hyperadd):
    """CH1 given the certificate, CH2 and CH3: None when M[a][u] = v(a) (+) u,
    the OR of the rows of v(a)'s members, is symmetric, else its first (a, u)."""
    # By the certificate CH1 need only hold at x = 1 (see the comment on the
    # checks).  (1, y, z) with y != 0 scales by a = y^-1 to (a (+) 1) (+) u
    # against a (+) (1 (+) u), u = a.z, which CH2 turns into v(a) (+) u
    # against v(u) (+) a; y = 0 holds by CH3.
    rows = [reduce(_or_rows, map(hyperadd.__getitem__, iter_bits(m))) for m in hyperadd[1]]
    return _asymmetry(rows, tuple(zip(*rows)))


def ch1_violation(t):
    if t.scales and ch2_violation(t) is None and _ch1_symmetry(t.hyperadd) is None:
        return None
    return _ch1_scan(t, t.leaders[1:] if ch3_violation(t) is None else t.leaders)


def ch2_violation(t):
    hit = _asymmetry(t.hyperadd, tuple(zip(*t.hyperadd)))
    return None if hit is None else (hit, "sum not symmetric")


def ch3_violation(t):
    for x in range(t.n):
        if t.hyperadd[0][x] != 1 << x:
            return (x,), "zero row not scalar identity"
    return None


def ch4_violation(t):
    for x, found in enumerate(t.partners):
        if not found:
            return (x,), "no opposite"
        if len(found) > 1:
            return (x, found[0], found[1]), "multiple opposites"
    return None


def _ch5_scan(t, xs):
    """The first CH5 violation with x in xs."""
    n, hyperadd = t.n, t.hyperadd
    opp = [p[0] if len(p) == 1 else None for p in t.partners]
    for x in xs:
        xo = opp[x]
        for y in range(n):
            yo = opp[y]
            for z in iter_bits(hyperadd[x][y]):
                if xo is None or yo is None:
                    return (x, y, z), "opposite undefined"
                if not hyperadd[xo][z] >> y & 1:
                    return (x, y, z), "y not in x'(+)z"
                if not hyperadd[z][yo] >> x & 1:
                    return (x, y, z), "x not in z(+)y'"
    return None


def ch5_violation(t):
    return _ch5_scan(t, t.leaders)


def kr1_violation(t):
    if t.associative:
        return None
    rows = t.rows
    for x, mx in enumerate(rows):
        for y in range(t.n):
            left = rows[mx[y]]  # (x.y).z over z
            right = tuple(map(mx.__getitem__, rows[y]))  # x.(y.z) over z
            if left != right:
                return (x, y, _first_difference(left, right)), "regrouped products differ"
    return None


def kr2_violation(t):
    for x in range(t.n):
        if t.mul[x][0] != 0 or t.mul[0][x] != 0:
            return (x,), "zero not absorbing"
    return None


def _kr3_scan(t, x):
    """The first KR3 violation at x."""
    rows = zip(_distribution_rows(t, t.rows[x]), _distribution_rows(t, t.cols[x]))
    for y, ((left, left_want), (right, right_want)) in enumerate(rows):
        if left != left_want or right != right_want:
            for z in range(t.n):
                if left[z] != left_want[z]:
                    return (x, y, z), "left distributivity fails"
                if right[z] != right_want[z]:
                    return (x, y, z), "right distributivity fails"
    return None


def kr3_violation(t):
    if t.scales:
        return None
    n, rows, cols = t.n, t.rows, t.cols
    outright = (t.neutral[0] and t.hyperadd[0][0] == 1, t.neutral[1])  # x = 0 and 1 distribute
    certified = [False] * n
    shown = []  # the x shown distributive, by their scan or outright
    for x in range(n):
        if certified[x]:
            continue
        hit = None if x < 2 and outright[x] else _kr3_scan(t, x)
        if hit is not None:
            return hit
        pairs = [(x, c) for c in range(n) if certified[c]] + [(g, x) for g in shown + [x]]
        certified[x] = True
        shown.append(x)
        while pairs:  # each (g, c) is tried once
            g, c = pairs.pop()
            gc = rows[g][c]
            if (not certified[gc]
                    and rows[gc] == tuple(map(rows[g].__getitem__, rows[c]))
                    and cols[gc] == tuple(map(cols[c].__getitem__, cols[g]))):
                certified[gc] = True
                pairs += [(h, gc) for h in shown]
    return None


def hf1_violation(t):
    if (hit := _asymmetry(t.rows, t.cols)) is not None:
        return hit, "multiplication not commutative"
    if t.rows[1] != tuple(range(t.n)):
        return (_first_difference(t.rows[1], range(t.n)),), "one not identity"
    return None


def hf2_violation(t):
    rows = t.rows
    for x in range(1, t.n):
        if 0 in rows[x][1:]:
            return (x, rows[x].index(0, 1)), "zero divisor"
    for x in range(1, t.n):
        if 1 not in rows[x][1:]:
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


# --- the one row ------------------------------------------------------


def _expand(n, mul, inv, smul, keys):
    """The hyperaddition x (+) y = x . v(x^-1 y) of a one row v.

    inv[x] is the inverse of x != 0, and smul[x][keys[z]] is x . v(z).  The
    kernel keys v(z) by its mask, _row_scalars() by an index.  Returns fresh
    lists.
    """
    hyperadd = [[1 << y for y in range(n)]]
    for x in range(1, n):
        sx = smul[x]
        hyperadd.append([1 << x] + [sx[keys[z]] for z in mul[inv[x]][1:]])  # z = x^-1 y
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

    Every entry of AXIOM_CHECKS runs once on one _Table view of c, and each
    failed axiom is reported with its lexicographically first witness.  The
    four cubic deciders try a theorem first and scan second (see the
    comment on the axiom checks): KR1 Light's test, else a row scan; KR3
    the scaling-identity certificate, else the x that no composition of
    distributive multiplications certifies; CH1 the symmetry of
    v(a) (+) u, else, as CH5, one x per orbit of the automorphisms of (+).
    A hyperfield with cells of bounded size passes in O(n^2 log n); a
    table whose hyperaddition breaks the automorphisms can cost O(n^3).
    """
    validate_candidate(c)
    t = _Table(c.n, c.hyperadd, c.mul)
    hits = [(code, check(t)) for code, check in AXIOM_CHECKS]
    return AxiomReport(tuple(AxiomResult(code, True) if hit is None
                             else AxiomResult(code, False, *hit) for code, hit in hits))


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
