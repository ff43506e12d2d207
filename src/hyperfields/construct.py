"""Constructions of Krasner hyperfields.

From a finite field: the quotient F/G by a multiplicative subgroup, and
the triple-sum (Massouros) hyperfield on the field's carrier.  From a
group alone: the pair hyperfield, which exists at every order.  The
componentwise cartesian product of two hyperfields is also here, and it is
deliberately honest about its mathematics: its tables form a hyperring but
never a hyperfield (the axes carry zero divisors), so product() always
surfaces that verification failure; hyperfield_of_order() consequently
synthesizes non-prime-power orders from the pair hyperfield instead.

Every construction but the product states its multiplication and its row
v(z) = 1(+)z, and core.expand_one_row() builds the rest of the
hyperaddition from v by the scaling identity.

Every construction verifies its result before returning and raises
ConstructionError otherwise, so a returned value is a guarantee, not a
claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Hyperfield,
    HyperfieldCandidate,
    OneRowMap,
    _images,
    _members,
    expand_one_row,
    mask_of,
    require_verified,
    span,
    verified,
)
from .errors import AxiomViolationError, CapacityError, ConstructionError, DomainError
from .galois import FieldTable, factor_integer, gf

MAX_SYNTH_ORDER = 64


def _verify_or_raise(c: HyperfieldCandidate, what: str) -> Hyperfield:
    try:
        return verified(c)
    except AxiomViolationError as exc:
        raise ConstructionError(f"{what} failed verification: {exc}",
                                report=exc.report) from exc


def from_field(f: FieldTable) -> Hyperfield:
    """A field is a hyperfield with row v(z) = {1+z}: x.v(x^-1 y) = {x+y}."""
    v = tuple(1 << s for s in f.add[1])
    return _verify_or_raise(expand_one_row(f.mul, OneRowMap(f.q, v)),
                            f"field-as-hyperfield of order {f.q}")


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup of the multiplicative group of a field, given by closure."""

    field: FieldTable
    generators: tuple[int, ...]
    closure: frozenset[int]

    def __post_init__(self):
        f = self.field
        if 0 in self.closure or 1 not in self.closure:
            raise DomainError("subgroup must contain 1 and exclude 0")
        for a in self.closure:
            for b in self.closure:
                if f.mul[a][b] not in self.closure:
                    raise DomainError("closure is not multiplicatively closed")
        if (f.q - 1) % len(self.closure) != 0:
            raise DomainError("subgroup size must divide q-1")


def subgroup_closure(f: FieldTable, gens) -> SubgroupSpec:
    """Smallest multiplicatively closed subset containing 1 and the generators."""
    try:
        gens = tuple(gens)
    except TypeError:
        raise DomainError("generators must be an iterable of field elements") from None
    for g in gens:
        if g == 0:
            raise DomainError("0 cannot generate a multiplicative subgroup")
        if type(g) is not int or not 0 < g < f.q:
            raise DomainError(f"generator {g} out of range")
    return SubgroupSpec(f, gens, frozenset(span(f.mul, gens)))


def quotient(f: FieldTable, g: SubgroupSpec) -> Hyperfield:
    """Krasner quotient F/G: cosets of G, with cG in aG (+) bG iff cG meets aG + bG."""
    if g.field is not f and (g.field.add != f.add or g.field.mul != f.mul):
        raise DomainError("subgroup was built over a different field")
    q = f.q
    # Carrier: the zero coset {0} at index 0, then each coset at its smallest
    # element, in one ascending pass: G, which holds 1, lands at index 1.
    coset_of = [0] * q
    reps = [0]
    for a in range(1, q):
        if not coset_of[a]:
            for s in g.closure:
                coset_of[f.mul[a][s]] = len(reps)
            reps.append(a)
    n = len(reps)
    mul = [[coset_of[f.mul[a][b]] for b in reps] for a in reps]
    # v(j) = the cosets that meet G + rG, r = reps[j].  G + rg = g.(G + r)
    # meets the same cosets as G + r, so r alone will do.
    v = tuple(mask_of(coset_of[f.add[u][r]] for u in g.closure) for r in reps)
    return _verify_or_raise(expand_one_row(mul, OneRowMap(n, v)),
                            f"quotient of GF({q}) by subgroup of size {len(g.closure)}")


def massouros(f: FieldTable) -> Hyperfield:
    """Triple-sum hyperfield on a field: a(+)b = {a, b, a+b} for nonzero
    non-opposite a, b (including a = b), a(+)0 = {a}, and a(+)a' = the full
    carrier when a' is the additive inverse of a.  Its row is v(0) = {1},
    v(-1) = the full carrier and v(z) = {1, z, 1+z} otherwise."""
    q = f.q
    minus_one = f.neg(1)
    v = [1 << 1] + [(1 << q) - 1 if z == minus_one else 1 << 1 | 1 << z | 1 << f.add[1][z]
                    for z in range(1, q)]
    return _verify_or_raise(expand_one_row(f.mul, OneRowMap(q, tuple(v))),
                            f"triple-sum hyperfield on GF({q})")


def product_candidate(h1: Hyperfield, h2: Hyperfield) -> HyperfieldCandidate:
    """Componentwise cartesian-product tables, unverified.

    Pairs are relabelled so (0,0) -> 0 and (1,1) -> 1; every other pair
    takes the next index in row-major order of (i, j).

    Note the result is a Krasner hyperring but never a hyperfield when both
    orders are >= 2: the axis pairs are zero divisors, e.g.
    (1,0).(0,1) = (0,0), so the nonzero part is not a multiplicative group.
    """
    h1 = require_verified(h1)
    h2 = require_verified(h2)
    n1, n2 = h1.n, h2.n
    pairs = [(0, 0), (1, 1)] + [(i, j) for i in range(n1) for j in range(n2)
                                if (i, j) not in ((0, 0), (1, 1))]
    index = {pair: k for k, pair in enumerate(pairs)}

    # Componentwise masks are translated through the pair indexing:
    # cells[m2][m1] is the mask of the pairs (i, j) with i in m1 and j in m2.
    members1, members2 = _members(h1.hyperadd), _members(h2.hyperadd)
    across = [_images(members2, [1 << index[i, j] for j in range(n2)]) for i in range(n1)]
    cells = {m2: _images(members1, [row[m2] for row in across]) for m2 in members2}
    hyperadd = tuple(tuple(cells[h2.hyperadd[b][d]][h1.hyperadd[a][c]] for c, d in pairs)
                     for a, b in pairs)
    mul = tuple(tuple(index[h1.mul[a][c], h2.mul[b][d]] for c, d in pairs) for a, b in pairs)
    return HyperfieldCandidate(n1 * n2, hyperadd, mul)


def product(h1: Hyperfield, h2: Hyperfield) -> Hyperfield:
    """Verify the componentwise product tables; see product_candidate().

    For input orders >= 2 this always raises ConstructionError with an HF2
    zero-divisor witness on an axis pair -- that failure is a theorem, not
    a bug, and the verifier is the instrument that exhibits it.
    """
    return _verify_or_raise(product_candidate(h1, h2), f"product of orders {h1.n} and {h2.n}")


def pair_hyperfield(n: int) -> Hyperfield:
    """The hyperfield on {0} u C_{n-1} with x(+)y = {x, y} for distinct
    nonzero x, y and x(+)x = the full carrier (every element is its own
    opposite).  Its row is v(0) = {1}, v(1) = the full carrier and
    v(z) = {1, z} otherwise.  Exists for every n >= 2 and is the existence
    witness used for orders where no field-based construction applies."""
    if type(n) is not int or n < 2:
        raise DomainError("order must be at least 2")
    m = n - 1
    mul = [[0] * n] + [[0] + [(x + y) % m + 1 for y in range(m)] for x in range(m)]
    v = [1 << 1, (1 << n) - 1] + [1 << 1 | 1 << z for z in range(2, n)]
    return _verify_or_raise(expand_one_row(mul, OneRowMap(n, tuple(v))),
                            f"pair hyperfield of order {n}")


def construction_of_order(n: int) -> str:
    """The construction hyperfield_of_order(n) uses, for n >= 2: "massouros"
    when n is a prime power, "pair" otherwise."""
    return "massouros" if len(factor_integer(n).factors) == 1 else "pair"


def hyperfield_of_order(n: int) -> Hyperfield:
    """A Krasner hyperfield with exactly n elements, for any 2 <= n <= MAX_SYNTH_ORDER.

    Prime-power orders take the triple-sum hyperfield of GF(n).  Other
    orders cannot come from folding factor hyperfields with product() --
    the componentwise product never passes verification (zero divisors on
    the axes) -- so they use pair_hyperfield(n) instead.  Both paths are
    deterministic, so outputs are byte-reproducible.
    """
    if type(n) is not int or n < 2:
        raise DomainError("order must be at least 2")
    if n > MAX_SYNTH_ORDER:
        raise CapacityError(f"order {n} exceeds synthesis bound {MAX_SYNTH_ORDER}")
    if construction_of_order(n) == "pair":
        return pair_hyperfield(n)
    pp = factor_integer(n).factors[0]
    return massouros(gf(pp.p, pp.k))
