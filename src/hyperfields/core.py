"""Data model for Krasner hyperfield candidates and the verifier.

A hyperaddition value is a nonempty subset of the carrier 0..n-1, stored as
an int bitmask (bit i set <=> element i is a member).  A candidate holds
both tables as plain nested tuples of ints, whatever rows it is built from,
which makes it hashable and cheap to compare, and lets every reader, the
verifier and the enumeration kernel alike, take the rows as they are.

A candidate is a valid table by construction, and nothing more is assumed:
zero (index 0) and one (index 1) earn their roles through verify(), which
checks the canonical-hypergroup axioms CH1..CH5, the hyperring axioms
KR1..KR3 and the hyperfield axioms HF1..HF2 on one view of the table.
The four cubic axioms have exact deciders, theorem first, scan second: a
theorem proves the axiom where it applies, and otherwise a scan names the
witness an exhaustive one would (see the comment on the checks).

The one row.  A hyperfield is fixed by its multiplication and its row
v(z) = 1 (+) z through the scaling identity x (+) y = x . v(x^-1 y) for
x != 0.  _expand() is the one place it is coded: expand_one_row() builds
the constructions' tables from the v they state, the enumeration kernel
expands each map v it keeps, and verify() passes a table exactly where it
is the expansion of its own row 1 and that is a hyperfield, and otherwise
decides CH1, CH5 and KR3 from the rows where the two differ.  A candidate
of tables _expand() built, expand_one_row()'s or an enumeration survivor, is
marked as its own expansion, so verify() reads E off it and builds no E.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain
from math import gcd
from operator import or_
from typing import Iterable, Iterator, Optional

from .errors import AxiomViolationError, DomainError, PreconditionError, StructuralError


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending, built from a list: a tuple grown
    from a generator is resized, which moves it between the interpreter's
    per-size free lists and so counts toward the next cyclic collection."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _tuple(items, each=None) -> tuple:
    """tuple(items), each item converted by each(), or () where that raises
    TypeError, as for a table, row or cell that is not a sequence: the
    caller's shape check then refuses it."""
    try:
        return tuple(items if each is None else map(each, items))
    except TypeError:
        return ()


def _check_entries(rows, lo, hi, message) -> None:
    """Raise StructuralError(message) unless every entry is an int in lo..hi-1."""
    for v in chain.from_iterable(rows):
        if type(v) is not int or not lo <= v < hi:
            raise StructuralError(message)


@dataclass(frozen=True)
class ElementSet:
    """A subset of the carrier 0..n-1 held as a membership mask."""

    n: int
    mask: int

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise StructuralError("carrier size must be >= 1")
        _check_entries([[self.mask]], 0, 1 << self.n, "membership mask out of range")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "ElementSet":
        if type(n) is not int:
            raise StructuralError("carrier size must be >= 1")
        try:
            idx = tuple(indices)
        except TypeError:  # not a collection of indices
            idx = (None,)
        _check_entries((idx,), 0, n, "member index out of range")
        return cls(n, mask_of(idx))

    @property
    def members(self) -> tuple[int, ...]:
        return _bits(self.mask)

    def __contains__(self, i: int) -> bool:
        return type(i) is int and 0 <= i < self.n and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0


@dataclass(frozen=True)
class HyperfieldCandidate:
    """An order-n table pair: hyperaddition (masks) and multiplication (indices).

    Both tables are held as tuples of tuples, whatever rows they are given,
    so a candidate is hashable, equals its twin built from other rows, and
    keeps no reference to a caller's lists.  It is unverified, but always
    valid: construction (and dataclasses.replace) raises StructuralError
    unless n >= 2 and both tables are n x n, of int cells 0 < m < 2^n and
    products in 0..n-1.  zero is index 0 and one index 1 by convention.
    expanded, set by _expansion_candidate() alone, marks the tables that
    _expand() built; copies keep it, replace() drops it, it is never compared.
    """

    n: int
    hyperadd: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    expanded: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if type(n) is not int or n < 2:
            raise StructuralError("carrier must have at least 2 elements")
        hyperadd, mul = _tuple(self.hyperadd, tuple), _tuple(self.mul, tuple)
        if len(hyperadd) != n or len(mul) != n or any(len(row) != n for row in hyperadd + mul):
            raise StructuralError("tables must be n x n")
        _check_entries(hyperadd, 1, 1 << n, "hyperaddition cell empty or out of range")
        _check_entries(mul, 0, n, "multiplication entry out of range")
        object.__setattr__(self, "hyperadd", hyperadd)
        object.__setattr__(self, "mul", mul)

    @classmethod
    def from_sets(cls, n: int, hyperadd_cells, mul) -> "HyperfieldCandidate":
        """Build from per-cell member collections instead of raw masks.  The
        rows are made as the candidate reads them, so its shape check
        refuses a row or cell that is not a sequence."""
        return cls(n, ([ElementSet.from_indices(n, tuple(cell)).mask for cell in row]
                       for row in hyperadd_cells), mul)

    def cell(self, a: int, b: int) -> tuple[int, ...]:
        _check_entries(((a, b),), 0, self.n, "element index out of range")
        return _bits(self.hyperadd[a][b])


def hyper_sum(c: HyperfieldCandidate, a: int, b: int) -> ElementSet:
    """The hyperaddition value a (+) b."""
    _check_entries(((a, b),), 0, c.n, "element index out of range")
    return ElementSet(c.n, c.hyperadd[a][b])


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
    _check_entries(((a,),), 0, c.n, "element index out of range")
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


def slot_keys(inv) -> list[int]:
    """The z in 1..n-1 with z <= z^-1: the rows enumeration and fingerprint read."""
    return [z for z in range(1, len(inv)) if z <= inv[z]]


def element_orders(n, mul) -> list[int]:
    """orders[x] is the multiplicative order of x; orders[0] is 0.  One walk
    of the powers of an x whose order is not known yet gives the order of
    each of them, ord(x^i) = ord(x) / gcd(i, ord(x)), so a cyclic group is
    done in one walk from any generator."""
    orders = [0] * n
    for x in range(1, n):
        if orders[x]:
            continue
        powers = [x]  # x^1, x^2, ..., ending at 1
        while powers[-1] != 1:
            powers.append(mul[powers[-1]][x])
        k = len(powers)
        for i, y in enumerate(powers, 1):
            orders[y] = k // gcd(i, k)
    return orders


def _grow(mul, found, seen, gens, old):
    """Close found (seen is its set) under right multiplication by gens, where its first
    old are closed under all but the last: each element meets each generator once."""
    for i, a in enumerate(found):  # found grows while it is walked
        row = mul[a]
        for g in gens if i >= old else gens[-1:]:
            b = row[g]
            if b not in seen:
                seen.add(b)
                found.append(b)
    return found


def span(mul, gens) -> list[int]:
    """The subgroup generated by gens, in breadth-first order from 1 along
    right multiplication by each generator.  In a finite group, products of
    the generators already include their inverses."""
    return _grow(mul, [1], {1}, gens, 0)


def greedy_generators(n, mul) -> Iterator[int]:
    """Each x in 2..n-1 that lies outside the span of the ones yielded before
    it.  In a group every one at least doubles the span, so a group of order
    n-1 has fewer than (n-1).bit_length() of them; the span grows from each."""
    gens, reached, seen = [], [1], {1}
    for x in range(2, n):
        if x not in seen:
            gens.append(x)
            yield x
            _grow(mul, reached, seen, gens, len(reached))


def group_isomorphisms(n, mul1, mul2, colours=None) -> Iterator[tuple[int, ...]]:
    """Every isomorphism of the nonzero groups of mul1 and mul2, each as a
    permutation of 0..n-1 that fixes 0; given colours, a pair of colourings
    of the two carriers by ints, only those that keep each colour.

    Greedy generators of the first group take images of equal key, the
    order, paired with the colour where colours are given, by backtracking.
    Each partial choice is extended from 1 along generator edges, a -> a.g
    mapping to phi(a) -> phi(a).phi(g), and dropped on the first
    contradiction, repeated image or change of key; a full choice that
    survives is a homomorphism on a generating set, injective, hence an
    isomorphism.  Colours prune only maps that break them, so the survivors
    keep their lexicographic order.  The search holds no reference cycle,
    so an abandoned call leaves no garbage for the cyclic collector.
    """
    key1, key2 = element_orders(n, mul1), element_orders(n, mul2)
    if colours is not None:  # (order, colour) as colour.n + order, as orders are below n
        key1 = [c * n + k for k, c in zip(key1, colours[0])]
        key2 = [c * n + k for k, c in zip(key2, colours[1])]
    if sorted(key1) != sorted(key2):
        return
    by_key: dict[int, list[int]] = {}
    for x in range(1, n):
        by_key.setdefault(key2[x], []).append(x)
    gens = list(greedy_generators(n, mul1))
    choices = [by_key[key1[g]] for g in gens]

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
                    if phi[b] or img in used or key1[b] != key2[img]:
                        return None
                    phi[b] = img
                    used.add(img)
                    walk.append(b)
        return phi

    yield from _extensions(choices, along_edges, [], along_edges([]))


def _extensions(choices, along_edges, images, phi):
    """The full choices of generator images that extend images, each as its
    map phi, in lexicographic order.  A module function: a nested generator
    that calls itself would be a reference cycle with its closure."""
    if len(images) == len(choices):
        yield tuple(phi)
        return
    for u in choices[len(images)]:
        trial = images + [u]
        extended = along_edges(trial)
        if extended is not None:
            yield from _extensions(choices, along_edges, trial, extended)


# --- axiom checks ------------------------------------------------------
#
# Each entry of AXIOM_CHECKS takes the _Table view verify() builds of a
# validated table and returns None on success, else (witness, reason) where
# witness is the lexicographically first violating tuple.  verify() calls
# every entry once on a table with a suspect row (below), and none on one
# without; the view computes each fact they share at most once, and those
# that read mul alone (its columns, neutral elements, Light's test and
# inverses) once per run of calls on equal mul, in _mul_facts().
#
# CH2, CH3, CH4, KR2, HF1 and HF2 scan their O(n^2) cells.  CH1, CH5, KR1
# and KR3 range over n^3 triples, and each is an exact decider, theorem
# first, scan second: it proves the axiom where a theorem applies, and
# otherwise scans what the theorems leave open, so it returns what a scan
# of every triple in lexicographic order would.
#
#   KR1: Light's test (Clifford & Preston, The Algebraic Theory of
#     Semigroups I, section 1.4).  In any magma the s with (x.s).y =
#     x.(s.y) for all x, y are closed under products, since (x.ab).y =
#     ((x.a).b).y = (x.a).(b.y) = x.(a.(b.y)) = x.(ab.y).  Where 1 is a
#     two-sided identity and 0 two-sided absorbing, both lie in that set,
#     and so does the span of the greedy generators, which with 0 is the
#     carrier: testing each in turn decides KR1, zero divisors or not.
#     Otherwise each (x, y) compares the rows (x.y).z and x.(y.z) over z.
#   KR3: the left law at x is the distributivity of the map rows[x],
#     w -> x.w, and the right law that of cols[x] (see below); the witness
#     at x is the least (y, z, law), left first.  x is taken in ascending
#     order.  x = 0 distributes where 0 is absorbing and 0 (+) 0 = {0}, and
#     x = 1 where 1 is the identity.  If g and c distribute, so does any x
#     whose row is g.(c.w) over w and whose column is (w.g).c over w: apply
#     the laws of c and then those of g.  An x that no pair (g, c) has
#     certified this way, with g shown distributive and c certified, is
#     scanned, and the first x that fails its scan is the first x that
#     fails at all.  Each pair is tried once, at O(n).
#   CH1 and CH5: a left multiplication s: w -> x.w that is a bijection,
#     fixes 0 and distributes is an automorphism of (H, (+)), and it maps a
#     violation at (x, y, z) to one at (s x, s y, s z) with the same reason
#     (it maps opposites to opposites, as it fixes 0).  So the x with a
#     violation are a union of orbits of the group such maps generate, and
#     the first of them leads its orbit: only the least element of each
#     orbit is scanned.  Generators are taken greedily from the x that
#     still lead their orbits, and the search stops at the first bijection
#     fixing 0 that does not distribute; with none found every x is
#     scanned.  CH1 skips x = 0 where CH3 holds, as 0 (+) m = m.
#   All ten, and CH1, CH5 and KR3: the suspect rows.  Where mul is a
#     commutative group with zero (Light's test passes, rows equal columns,
#     every x != 0 has an inverse), let E be the expansion of hyperadd's own
#     row 1 by the scaling identity x (+) y = x . v(x^-1 y), v(z) = 1 (+) z.
#     E passes KR3: for a, b, c != 0 ab (+) ac = ab . v(b^-1 c) =
#     a . (b . v(b^-1 c)) = a . (b (+) c); a, b or c = 0 holds by the
#     expansion's row and column 0 and the absorbing 0, and the right law by
#     commutativity.  E passes CH3 by its row 0, KR1 by Light's test, KR2
#     and HF1 by the neutral 0 and 1 and rows equal to columns, and HF2 by
#     the inverses: x.y = 0 with x != 0 gives y = x^-1.(x.y) = 0.  For
#     x, y != 0 and u = x^-1 y, E[x][y] = x . E[1][u] and E[y][x] =
#     x . E[u][1], scaling by x is one-to-one on masks and keeps 0 in or
#     out, and E[0][y] = E[y][0] = {y}: so E passes CH2 exactly when row 1
#     is column 1, and CH4 exactly when one nonzero u has 0 in E[1][u].
#     Where both hold, the symmetry theorem decides CH1, and CH1 gives CH5:
#     from z in x (+) y, 0 in z' (+) z lies in (z' (+) x) (+) y, so the one
#     opposite y' of y lies in z' (+) x, and scaling by 1' gives y in
#     z (+) x', as w' = 1'.w and 1'.1' = 1 (1 is the opposite of 1');
#     x in z (+) y' is the same with x and y swapped.  Where E is so a
#     hyperfield, the suspects are the rows where hyperadd differs from E;
#     otherwise every row is one.  A table passes all ten exactly when it
#     has no suspects: with none it is E, and by KR3 one that passes all
#     ten is the expansion of its row 1, a hyperfield.  So verify() reports
#     a pass at once where there are none, and scans only tables with some.
#     An instance of CH1, CH5 or KR3 that reads no suspect row evaluates as
#     it does in E, where it holds, so each violation reads a suspect row.
#     CH1 at (x, y, z) reads the rows of x, of y and of the members of
#     x (+) y; CH5 reads those and the row of x', with the opposites read
#     off the table, which are E's outside the suspects; KR3 reads the rows
#     of y and of x.y = y.x.  So for x not a suspect, CH1 and CH5 visit
#     only the suspect y and the y with x (+) y meeting a suspect, CH5 every
#     y also where x' is undefined or a suspect, and the distributivity
#     scan of x's row or column only the y with y or x.y a suspect.  A y
#     skipped holds for every z, so each scan keeps its order and returns
#     the same first witness; masks are decoded only for the rows visited,
#     and table-wide where every row is a suspect.
#
# A scan takes a whole row over z at a time: for fixed x and y each side
# becomes a sequence over z, built by C-level map() and compared with one
# ==; only a mismatching pair of rows is walked to find its first z.  A
# table has few distinct masks, and the image of a mask under "x (+) -",
# "x . -" or "- . x" is the union of the images of its members, so for each
# x every mask's image is computed once into a dict that is dropped before
# the next x.  For CH1, the row (x (+) y) (+) z over z depends only on the
# mask x (+) y, so it is built once per distinct mask by _sum_row() as the
# OR of the rows of its members.  Distributivity is one fact per map s,
# the first (y, z) with s(y (+) z) != s(y) (+) s(z): _miss() scans each map
# once into the table's misses dict, for KR3's laws and the orbit search
# alike.  Cells are nonempty, as every HyperfieldCandidate's are and the
# enumeration kernel's expansion guarantees.
#
# Cost on a hyperfield: Light's test compares n-2 rows of length n per greedy
# generator, and a group of order n-1 has at most log2(n-1) of those (GF(2^k)
# has k), so it is O(n^2 log n); building E, comparing it with the table and
# deciding it a hyperfield take O(n^2) mask operations plus one OR per member
# of each distinct mask they scale or sum, O(n^2) on cells of bounded size,
# such as the triple-sum and pair hyperfields, and with no suspects that is
# all.  A table whose multiplication is one cell off a group's keeps the
# automorphisms of the intact rows: the orbit search scans the rows of a few
# generators, CH1 and CH5 scan 0 and the few leaders of the group those
# generate, and KR3 reads those scans and scans the x below its witness that
# no pair reaches: O(n^2 log n) on bounded cells.  A hyperaddition corruption
# breaks the automorphisms (the search's first scan usually shows it), so CH1
# and CH5 scan every x up to their witness; where row 1 still expands to a
# hyperfield E, each x not a suspect costs O(n) plus O(n) per y visited, a few
# y on bounded cells, so a corruption of a few cells costs O(n^2) besides
# deciding E, O(n^2 log n).  A corrupted row 1 usually leaves E no hyperfield,
# and then the scans visit every y, O(n^3) when the witness sits near row n.


class _Bits(dict):
    """Mask -> its member indices, each mask decoded on its first lookup."""

    def __missing__(self, m):
        bits = self[m] = _bits(m)
        return bits


def _members(hyperadd):
    """Each distinct mask of the table -> its member indices, decoded once
    each by _bits()."""
    return {m: _bits(m) for m in set(chain.from_iterable(hyperadd))}


def _images(members, parts):
    """Each mask of the table -> the OR of parts[w] over its members w (the
    empty mask -> 0).  With parts[w] = 1 << p[w] it carries masks along p."""
    get = parts.__getitem__
    return {m: reduce(or_, map(get, bits), 0) for m, bits in members.items()}


def _carry(members, tau):
    """Each mask of members -> its image under the bijection tau, carried
    once.  Distinct members go to distinct bits, so their sum is their OR."""
    bit = [1 << w for w in tau].__getitem__
    return {m: sum(map(bit, bits)) for m, bits in members.items()}.__getitem__


def _or_rows(a, b):
    return tuple(map(or_, a, b))


def _sum_row(hyperadd, bits):
    """The row m (+) z over z of a mask m with members bits: the OR of their
    rows, as a tuple."""
    return reduce(_or_rows, map(hyperadd.__getitem__, bits))


def _first_difference(a, b):
    """The first index at which two sequences that differ disagree."""
    return next(i for i, (u, v) in enumerate(zip(a, b)) if u != v)


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


@lru_cache(maxsize=1)
def _mul_facts(n, rows):
    """The facts of a table that read its multiplication alone, given as
    rows of tuples: (cols, neutral, associative, inv, group).  neutral is (0
    is two-sided absorbing, 1 is a two-sided identity); associative is
    Light's test on each greedy generator in turn, given the identity and
    the absorbing zero, which decides KR1; it stops at the first generator
    that fails.  group: mul is a commutative group with zero.  The one entry
    serves each run of tables with equal rows: the survivors of one group
    that enumeration verifies, or a construction's expansion."""
    cols = tuple(zip(*rows))
    neutral = not any(rows[0]) and not any(cols[0]), rows[1] == cols[1] == tuple(range(n))
    # (x.s).y against x.(s.y) over y
    associative = all(neutral) and all(rows[mx[s]] == tuple(map(mx.__getitem__, rows[s]))
                                       for s in greedy_generators(n, rows) for mx in rows[2:])
    inv = inverses(n, rows)
    return cols, neutral, associative, inv, associative and rows == cols and all(inv[1:])


class _Table:
    """One verify() call's view of a table, given a candidate's tuple rows:
    n, hyperadd, the rows of mul, the facts of _mul_facts(), and the facts
    the axiom checks share, each computed at most once.  suspects is 0
    exactly where all ten hold, and CH1, CH5 and KR3 are decided from it,
    reading each mask's members through bits alone.  misses holds the
    distributivity fact of each map asked of _miss(), and expanded is the
    mark of a candidate that _expansion_candidate() built."""

    def __init__(self, n, hyperadd, mul, expanded=False):
        self.n, self.hyperadd, self.rows, self.misses = n, hyperadd, mul, {}
        self.expanded = expanded
        self.cols, self.neutral, self.associative, self.inv, self.group = _mul_facts(n, mul)

    @_fact
    def partners(t):
        """partners[x] lists the candidate opposites of x."""
        return list(map(_zero_partners, t.hyperadd))

    @_fact
    def expansion(t):
        """E, the expansion of hyperadd's own row 1 by the scaling identity,
        or None where mul is not a commutative group with zero.  A table
        marked expanded is its own E: _expand() built it from this mul, these
        inverses and row 1, as expand_one_row() and the enumeration kernel
        do, and each x . v(z) is the image here."""
        if not t.group:
            return None
        if t.expanded:
            return t.hyperadd
        return _expand(t.n, t.rows, t.inv, *_row_scalars(t.cols, t.hyperadd[1]))

    @_fact
    def suspects(t):
        """The mask of the rows where hyperadd differs from E where E is a
        hyperfield, else of every row: 0 exactly where all ten axioms hold,
        and otherwise the CH1, CH5 and KR3 scans visit only the (x, y) that
        read a suspect row.  E is a hyperfield where its row 1 and column 1
        show it symmetric with unique opposites and the symmetry theorem
        proves CH1 (see the comment on the checks)."""
        e = t.expansion
        if (e is not None and e[1] == tuple([row[1] for row in e])
                and sum(m & 1 for m in e[1]) == 1 and _ch1_symmetry(e) is None):
            return mask_of(x for x, row in enumerate(t.hyperadd) if row != e[x])
        return (1 << t.n) - 1

    @_fact
    def bits(t):
        """Mask -> its members, for the cells the scans read: every mask of
        the table, decoded at once where every row is a suspect, as the
        scans then read every row, else each mask on its first read."""
        return _members(t.hyperadd) if t.suspects == (1 << t.n) - 1 else _Bits()

    @_fact
    def leaders(t):
        """The x that the CH1 and CH5 scans must visit: the least element of
        each orbit under the automorphisms of (+) found among the left
        multiplications.  Each x in 2..n-1 that leads its orbit so far is a
        generator when its row is a bijection fixing 0 that distributes over
        (+), as _miss() tells, which KR3 reads too; the search stops at the
        first such bijection that does not."""
        n = t.n
        perms = []
        leaders = list(range(n))
        for x, row in enumerate(t.rows[2:], 2):
            if x not in leaders or row[0] != 0 or len(set(row)) != n:
                continue
            if _miss(t, row) is not None:
                break
            perms.append(row)
            leaders = _leaders(n, perms)
        return leaders


def _sum_ys(t, x, read):
    """The y at which (x, y, z) can fail CH1 or CH5 for some z, where the
    instance reads the rows of y, of the members of x (+) y and of the
    elements in read (None for an undefined opposite): every y where read
    meets the suspects, else each suspect y and each y whose x (+) y has a
    suspect member."""
    s = t.suspects
    if any(r is None or s >> r & 1 for r in read):
        return range(t.n)
    return [y for y, m in enumerate(t.hyperadd[x]) if (m | 1 << y) & s]


def _miss(t, s):
    """The first (y, z) at which the map s of the carrier, the tuple of its
    values, fails s(y (+) z) = s(y) (+) s(z), or None.  Each map is scanned
    at most once per table: t.misses keeps the answer."""
    if s not in t.misses:
        t.misses[s] = _find_miss(t, s)
    return t.misses[s]


def _find_miss(t, s):
    """_miss() without the memo, for s a row or column of mul: only a y
    where y or s(y) is a suspect can fail."""
    hyperadd, suspects = t.hyperadd, t.suspects
    ys = [y for y, sy in enumerate(s) if (1 << y | 1 << sy) & suspects]
    scale = _images(_bits_of_rows(t, ys), [1 << v for v in s]).__getitem__
    for y in ys:
        got, want = list(map(scale, hyperadd[y])), list(map(hyperadd[s[y]].__getitem__, s))
        if got != want:
            return y, _first_difference(got, want)
    return None


def _bits_of_rows(t, ys):
    """bits for the masks in the rows ys of hyperadd, which are every row
    where every row is a suspect."""
    bits = t.bits
    if t.suspects == (1 << t.n) - 1:
        return bits
    return {m: bits[m] for m in set(chain.from_iterable(map(t.hyperadd.__getitem__, ys)))}


def _ch1_scan(t, xs):
    """The first CH1 violation with x in xs."""
    hyperadd, bits = t.hyperadd, t.bits
    sums = {}  # mask m -> the row m (+) z over z
    for x in xs:
        hx = hyperadd[x]
        ys = _sum_ys(t, x, (x,))
        left = _images(_bits_of_rows(t, ys), hx).__getitem__  # mask m -> x (+) m
        for y in ys:
            row = tuple(map(left, hyperadd[y]))
            m = hx[y]
            other = sums.get(m)
            if other is None:
                other = sums[m] = _sum_row(hyperadd, bits[m])
            if row != other:
                return (x, y, _first_difference(row, other)), "regrouped sums differ"
    return None


def _asymmetry(rows, cols):
    """The first (x, y) with rows[x][y] != cols[x][y], or None, given the
    columns cols of rows: the first row unlike its column differs at y > x."""
    for x, row in enumerate(rows):
        if row != cols[x]:
            return x, _first_difference(row, cols[x])
    return None


def _ch1_symmetry(hyperadd):
    """CH1 of an expansion E that passes CH2: None when M[a][u] =
    v(a) (+) u, the OR of the rows of v(a)'s members, is symmetric, else
    its first (a, u)."""
    # In E every x != 0 scales (+), so CH1 need only hold at x = 1 (see the
    # comment on the checks).  (1, y, z) with y != 0 scales by a = y^-1 to
    # (a (+) 1) (+) u against a (+) (1 (+) u), u = a.z, which CH2 turns
    # into v(a) (+) u against v(u) (+) a; y = 0 holds by CH3.
    rows = [_sum_row(hyperadd, _bits(m)) for m in hyperadd[1]]
    return _asymmetry(rows, tuple(zip(*rows)))


def ch1_violation(t):
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
    hyperadd, bits = t.hyperadd, t.bits
    opp = [p[0] if len(p) == 1 else None for p in t.partners]
    for x in xs:
        xo, hx = opp[x], hyperadd[x]
        for y in _sum_ys(t, x, (x, xo)):
            yo = opp[y]
            for z in bits[hx[y]]:
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
        if t.rows[x][0] != 0 or t.rows[0][x] != 0:
            return (x,), "zero not absorbing"
    return None


def kr3_violation(t):
    n, rows, cols = t.n, t.rows, t.cols
    outright = (t.neutral[0] and t.hyperadd[0][0] == 1, t.neutral[1])  # x = 0 and 1 distribute
    certified = [False] * n
    shown = []  # the x shown distributive, by their scan or outright
    for x in range(n):
        if certified[x]:
            continue
        if not (x < 2 and outright[x]):  # the least (y, z, law); "left" < "right"
            misses = [(*m, law) for law, m in (("left", _miss(t, rows[x])),
                                               ("right", _miss(t, cols[x]))) if m]
            if misses:
                y, z, law = min(misses)
                return (x, y, z), law + " distributivity fails"
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
    if 0 in t.inv[1:]:
        return (t.inv.index(0, 1),), "no multiplicative inverse"
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
    kernel keys v(z) by its mask, _row_scalars() by an index.  Returns the
    rows as candidates hold them, a tuple of tuples.
    """
    hyperadd = [tuple([1 << y for y in range(n)])]
    for x in range(1, n):
        sx = smul[x]
        hyperadd.append(tuple([1 << x] + [sx[keys[z]] for z in mul[inv[x]][1:]]))  # z = x^-1 y
    return tuple(hyperadd)


def _row_scalars(cols, v):
    """(smul, keys) for _expand(), given the columns of mul: keys[z] indexes
    v(z) among the distinct masks of v, and smul[x][k] is the k-th mask's
    image under x.  Images are ORed a whole column of mul at a time.  O(n^2)
    on bounded cells."""
    bit = [1 << x for x in range(len(v))].__getitem__
    cols = [tuple(map(bit, col)) for col in cols]  # cols[w][x] = {x . w}
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
        object.__setattr__(self, "masks", _tuple(self.masks))
        if type(n) is not int or len(self.masks) != n:
            raise StructuralError("one-row map must cover the whole carrier")
        if self.masks[0] != 1 << 1:
            raise StructuralError("1(+)0 must be {1}")
        _check_entries((self.masks,), 1, 1 << n, "row value empty or out of range")
        if sum(self.masks[z] & 1 for z in range(1, n)) != 1:
            raise StructuralError("exactly one nonzero z may have 0 in v(z)")


def expand_one_row(mul_table, nu: OneRowMap) -> HyperfieldCandidate:
    """Rebuild the full hyperaddition from v via x(+)y = x.v(x^-1 y).

    mul_table is a full n x n multiplication table whose nonzero part is a
    group with identity 1, such as a field's or one from abelian_groups().
    The result may still fail verify(): only distributivity-derived
    structure is built in.  Costs O(n^2) on rows of bounded cell size.
    Its columns and inverses come from _mul_facts(), as verify()'s do, and
    the result is marked expanded, so verify() reads its E off it.
    """
    n = nu.n
    mul = _tuple(mul_table, tuple)
    if len(mul) != n or any(len(r) != n for r in mul):
        raise StructuralError("multiplication table must be n x n")
    _check_entries(mul, 0, n, "multiplication entry out of range")  # as a candidate's
    cols, _, _, inv, _ = _mul_facts(n, mul)
    if any(inv[x] == 0 for x in range(1, n)):
        raise StructuralError("nonzero part of mul_table is not a group")
    return _expansion_candidate(n, _expand(n, mul, inv, *_row_scalars(cols, nu.masks)), mul)


def _expansion_candidate(n, hyperadd, mul) -> HyperfieldCandidate:
    """The candidate of tables that _expand() built from mul, inverses(n,
    mul) and hyperadd's own row 1, marked as its own expansion."""
    c = HyperfieldCandidate(n, hyperadd, mul)
    object.__setattr__(c, "expanded", True)
    return c


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


_PASSED = AxiomReport(tuple(AxiomResult(code, True) for code, _ in AXIOM_CHECKS))


def verify(c: HyperfieldCandidate) -> AxiomReport:
    """Check all ten hyperfield axioms of a table valid as built; never fail-fast.

    c passes exactly when it has no suspect rows: rows where it leaves the
    expansion E of its own row 1 while E is a hyperfield, else every row.
    Such a pass runs no check (see the comment on the axiom checks).
    Otherwise every entry of AXIOM_CHECKS runs once on one _Table view of
    c, and each failed axiom is reported with its lexicographically first
    witness: KR1 by Light's test, else a row scan, and CH1, CH5 and KR3
    visiting only the (x, y) that read a suspect row.  A hyperfield with
    cells of bounded size passes in O(n^2 log n), and a table a few
    hyperaddition cells off one fails in O(n^2 log n); one whose row 1 or
    multiplication breaks the automorphisms can cost O(n^3).
    """
    t = _Table(c.n, c.hyperadd, c.mul, expanded=c.expanded)
    if not t.suspects:
        return _PASSED
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
    """Apply a carrier bijection: new index of old element i is perm[i].
    Each distinct mask is carried once; new row i is old row perm^-1(i)."""
    n = c.n
    perm = _tuple(perm)
    if len(perm) != n or {*map(type, perm)} != {int} or sorted(perm) != list(range(n)):
        raise DomainError("perm must be a bijection on 0..n-1")
    back = sorted(range(n), key=perm.__getitem__)  # perm^-1
    carry = _carry(_members(c.hyperadd), perm)
    hyperadd = (map(carry, map(c.hyperadd[a].__getitem__, back)) for a in back)
    mul = (map(perm.__getitem__, map(c.mul[a].__getitem__, back)) for a in back)
    return HyperfieldCandidate(n, hyperadd, mul)
