"""Finite fields GF(p^k) as explicit Cayley tables, plus prime-power factoring
and the abelian group tables built from it.

Elements are carrier indices 0..q-1.  The element whose polynomial
representative has coefficient vector (c0, ..., c_{k-1}) over GF(p), low
degree first, gets index sum(c_i * p**i); this puts the additive identity
at index 0 and the multiplicative identity at index 1.  The arithmetic is
that of polynomials modulo the monic irreducible polynomial of degree k
whose lower coefficients have the smallest index, that is, the
lexicographically smallest with coefficients compared high degree first
(x^3 + x + 1 over GF(2), not x^3 + x^2 + 1), so tables are reproducible bit
for bit.

gf builds both tables with no arithmetic on pairs of polynomials, one path
for every (p, k).  Addition goes digit by digit: a = a0 + p.a' adds as
(a0 + b0) mod p on the low digit and as GF(p^(k-1)) on the rest.
Multiplication is read from the powers of the primitive element g of least
index: multiplying by g is linear over GF(p), so g.a follows from g.(a - 1)
or from x.(g.(a / x)), and the powers of each candidate g are walked until
one reaches all q - 1 units.  Then a.b = exp[log a + log b] with exp
doubled, so no sum of logs is reduced.  Every primitive g gives the same
table.  On a 2-core Xeon VM under CPython 3.11 (best of 3-5 runs), GF(2^7)
builds in 2.5 ms against 0.17 s by polynomial arithmetic on every pair,
GF(2^8) in 9 ms against 0.96 s, GF(3^6) in 64 ms against 6.9 s and GF(181)
in 2.1 ms against 4.2 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, count, product as iproduct

from .core import AxiomReport, AxiomResult, _check_entries, element_orders
from .errors import CapacityError, DomainError, StructuralError

MAX_EXTENSION_DEGREE = 8
MAX_FIELD_ORDER = 6561


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for desk-scale inputs; False for a non-int."""
    if type(n) is not int or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    """A factor p**k with p prime and k >= 1."""

    p: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if type(self.k) is not int or self.k < 1:
            raise DomainError(f"exponent must be >= 1, got {self.k}")

    @property
    def value(self) -> int:
        return self.p ** self.k


@dataclass(frozen=True)
class Factorization:
    """Prime-power factorization n = prod p_i**k_i, primes strictly ascending."""

    n: int
    factors: tuple[PrimePower, ...]

    def __post_init__(self):
        primes = [f.p for f in self.factors]
        if primes != sorted(set(primes)):
            raise DomainError("factor primes must be strictly ascending")
        prod = 1
        for f in self.factors:
            prod *= f.value
        if prod != self.n:
            raise DomainError(f"factors multiply to {prod}, not {self.n}")


def factor_integer(n: int) -> Factorization:
    """Unique prime-power factorization of n >= 2, ascending primes."""
    if type(n) is not int or n < 2:
        raise DomainError("order must be at least 2")
    factors = []
    rest = n
    for p in chain((2,), count(3, 2)):  # 2, then odd p until p * p > rest
        if p * p > rest:
            break
        if rest % p == 0:
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            factors.append(PrimePower(p, k))
    if rest > 1:
        factors.append(PrimePower(rest, 1))
    return Factorization(n, tuple(factors))


def _partitions(e: int, cap: int):
    # Partitions of e into parts <= cap, descending-lexicographic order.
    if e == 0:
        yield ()
        return
    for first in range(min(e, cap), 0, -1):
        for rest in _partitions(e - first, first):
            yield (first, *rest)


@cache
def abelian_group_tables(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """One multiplication table per abelian group of order m >= 1 up to
    isomorphism, one per choice of a partition of each prime exponent.

    Tables are (m+1) x (m+1), shifted onto a hyperfield's carrier: index 0
    is absorbing, the group lives on 1..m with identity at index 1.  Built
    once per order; the tuples cannot be changed by a caller.
    """
    per_prime = [(pp.p, tuple(_partitions(pp.k, pp.k)))
                 for pp in factor_integer(m).factors] if m > 1 else []
    n = m + 1
    tables = []
    for combo in iproduct(*(parts for _, parts in per_prime)):
        moduli = tuple(p ** part
                       for (p, _), parts in zip(per_prime, combo)
                       for part in parts)
        elements = list(iproduct(*(range(mod) for mod in moduli)))
        index = {e: i for i, e in enumerate(elements)}
        mul = [[0] * n for _ in range(n)]
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                c = tuple((x + y) % mod for x, y, mod in zip(a, b, moduli))
                mul[i + 1][j + 1] = index[c] + 1
        tables.append(tuple(map(tuple, mul)))
    return tuple(tables)


@cache
def abelian_group_orders(m: int) -> tuple[tuple[int, ...], ...]:
    """The sorted orders of the m nonzero elements of each table of
    abelian_group_tables(m), in the same sequence; no two are equal, since
    element orders tell finite abelian groups apart."""
    return tuple(tuple(sorted(element_orders(m + 1, t)[1:])) for t in abelian_group_tables(m))


@dataclass(frozen=True)
class FieldTable:
    """A finite field of order q given by full addition/multiplication tables.

    labels[i] is the coefficient vector of element i (length k, low degree
    first); modulus is the irreducible polynomial used, () when k == 1.
    """

    q: int
    p: int
    k: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, ...], ...]
    modulus: tuple[int, ...]

    def neg(self, a: int) -> int:
        """Additive inverse of a."""
        _check_entries(((a,),), 0, self.q, "element index out of range")
        return self.add[a].index(0)

    def inv(self, a: int) -> int:
        """Multiplicative inverse of nonzero a."""
        _check_entries(((a,),), 0, self.q, "element index out of range")
        if a == 0:
            raise DomainError("0 has no multiplicative inverse")
        return self.mul[a].index(1)


def _digits(i: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(i % p)
        i //= p
    return tuple(out)


def _index(vec, p: int) -> int:
    idx = 0
    for c in reversed(vec):
        idx = idx * p + c
    return idx


def _poly_rem(a: list[int], b: tuple[int, ...], p: int) -> list[int]:
    # Remainder of a mod b; b must be monic.
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        lead = a[-1]
        if lead:
            off = len(a) - 1 - db
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - lead * c) % p
        a.pop()
    while len(a) < db:
        a.append(0)
    return a


def _monic_polys(p: int, deg: int):
    for i in range(p ** deg):
        yield _digits(i, p, deg) + (1,)


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    # Trial division against every monic polynomial of degree 1..k//2.
    # Root checking alone would miss reducible quartics with no linear factor.
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for g in _monic_polys(p, d):
            if not any(_poly_rem(list(m), g, p)):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    for m in _monic_polys(p, k):
        if _is_irreducible(m, p):
            return m
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


def _add_table(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """GF(p^k)'s addition, one digit at a time: a = a0 + p.a' adds as
    (a0 + b0) mod p on the low digit and as the field one digit shorter on
    the high ones."""
    # Each level's blocks are slices of one doubled range, so the rows share
    # their int objects; a fresh int per cell took 2.2 GB at p = 5449.
    add = ((0,),)
    for _ in range(k):
        doubled = [tuple(range(p * h, p * h + p)) * 2 for h in range(len(add))]
        blocks = [[d[a0:a0 + p] for d in doubled] for a0 in range(p)]
        add = tuple(tuple(chain.from_iterable(map(blocks[a0].__getitem__, row)))
                    for row in add for a0 in range(p))
    return add


def _powers(add, p: int, modulus: tuple[int, ...]) -> list[int]:
    """The powers 1, g, g^2, ... of the primitive element g of least index."""
    q = len(add)
    top = q // p
    # x.a shifts a's digits up when its top digit is 0; each unit of the top
    # digit adds x.x^(k-1) = x^k = -(m_0 + m_1 x + ... + m_{k-1} x^{k-1})
    xk = _index([-c % p for c in modulus[:-1]], p)
    times_x = [a * p for a in range(top)]
    for a in range(top, q):
        times_x.append(add[times_x[a - top]][xk])
    for g in range(1, q):
        # g.a is linear in a: g.(a - 1) + g when a's low digit is not 0,
        # else x.(g.(a / x))
        times_g = [0] * q
        for a in range(1, q):
            times_g[a] = add[times_g[a - 1]][g] if a % p else times_x[times_g[a // p]]
        powers = [1]
        while (e := times_g[powers[-1]]) != 1:
            powers.append(e)
        if len(powers) == q - 1:  # for q = 2 the group is {1}, and g = 1
            return powers
    raise AssertionError(f"GF({q}) has no primitive element")


def gf(p: int, k: int = 1) -> FieldTable:
    """Build GF(p**k).  Deterministic: a fixed modulus selection rule.

    The capacity bounds are checked before p's primality, so a huge p fails
    fast with CapacityError; a composite p within them is a DomainError,
    and so is a p that is not an int.
    """
    if type(k) is not int or not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise CapacityError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}")
    if type(p) is not int:
        raise DomainError("p not prime")
    q = p ** k
    if q > MAX_FIELD_ORDER:
        raise CapacityError(f"field order {q} exceeds {MAX_FIELD_ORDER}")
    if not is_prime(p):
        raise DomainError("p not prime")

    modulus = _smallest_irreducible(p, k)
    add = _add_table(p, k)
    powers = _powers(add, p, modulus)
    log = [0] * q
    for i, e in enumerate(powers):
        log[e] = i
    exp = powers * 2  # exp[log a + log b] with no reduction mod q - 1
    logs = log[1:]
    mul = ((0,) * q, *((0, *map(exp[log[a]:].__getitem__, logs)) for a in range(1, q)))
    labels = tuple(_digits(i, p, k) for i in range(q))
    return FieldTable(q, p, k, add, mul, labels, modulus if k > 1 else ())


def _first_fail(pairs):
    for witness, ok in pairs:
        if not ok:
            return witness
    return None


def verify_field(f: FieldTable) -> AxiomReport:
    """Exhaustively check every field axiom on the tables.

    Independent of gf(): works from the tables alone, so it can audit any
    FieldTable, including corrupted ones.
    """
    q = f.q
    if len(f.add) != q or len(f.mul) != q:
        raise StructuralError("tables must be q x q")
    for t in (f.add, f.mul):
        for row in t:
            if len(row) != q or any(not 0 <= v < q for v in row):
                raise StructuralError("table entries out of range")
    add, mul = f.add, f.mul
    rng = range(q)

    results = []

    def check(name, witness, reason=None):
        results.append(AxiomResult(name, witness is None, witness, reason))

    check("additive associativity", _first_fail(
        ((a, b, c), add[add[a][b]][c] == add[a][add[b][c]])
        for a, b, c in iproduct(rng, rng, rng)))
    check("additive commutativity", _first_fail(
        ((a, b), add[a][b] == add[b][a]) for a, b in iproduct(rng, rng)))
    check("additive identity", _first_fail(((a,), add[0][a] == a) for a in rng))
    check("additive inverse", _first_fail(
        ((a,), any(add[a][b] == 0 for b in rng)) for a in rng))
    check("multiplicative associativity", _first_fail(
        ((a, b, c), mul[mul[a][b]][c] == mul[a][mul[b][c]])
        for a, b, c in iproduct(rng, rng, rng)))
    check("multiplicative commutativity", _first_fail(
        ((a, b), mul[a][b] == mul[b][a]) for a, b in iproduct(rng, rng)))
    check("multiplicative identity", _first_fail(((a,), mul[1][a] == a) for a in rng))
    check("multiplicative inverse", _first_fail(
        ((a,), any(mul[a][b] == 1 for b in rng)) for a in rng if a != 0))
    check("distributivity", _first_fail(
        ((a, b, c), mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]])
        for a, b, c in iproduct(rng, rng, rng)))
    check("zero absorbing", _first_fail(
        ((a,), mul[0][a] == 0 and mul[a][0] == 0) for a in rng))

    return AxiomReport(tuple(results))
