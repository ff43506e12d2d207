"""Finite fields GF(p^k) as explicit Cayley tables, plus prime-power factoring
and the abelian group tables built from it.

Elements are carrier indices 0..q-1.  The element whose polynomial
representative has coefficient vector (c0, ..., c_{k-1}) over GF(p), low
degree first, gets index sum(c_i * p**i); this puts the additive identity
at index 0 and the multiplicative identity at index 1.  For k > 1 the
arithmetic is polynomial arithmetic modulo the lexicographically smallest
monic irreducible polynomial of degree k (coefficients compared low degree
first), so tables are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct

from .core import AxiomReport, AxiomResult, element_orders
from .errors import CapacityError, DomainError, StructuralError

MAX_EXTENSION_DEGREE = 8
MAX_FIELD_ORDER = 6561


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for desk-scale inputs."""
    if n < 2:
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
        if self.k < 1:
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
    if n < 2:
        raise DomainError("order must be at least 2")
    factors = []
    rest = n
    for p in [2, *range(3, n + 1, 2)]:
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
        return self.add[a].index(0)

    def inv(self, a: int) -> int:
        """Multiplicative inverse of nonzero a."""
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


def gf(p: int, k: int = 1) -> FieldTable:
    """Build GF(p**k).  Deterministic: a fixed modulus selection rule."""
    if not is_prime(p):
        raise DomainError("p not prime")
    if not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise CapacityError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}")
    q = p ** k
    if q > MAX_FIELD_ORDER:
        raise CapacityError(f"field order {q} exceeds {MAX_FIELD_ORDER}")

    if k == 1:
        add = tuple(tuple((i + j) % p for j in range(p)) for i in range(p))
        mul = tuple(tuple((i * j) % p for j in range(p)) for i in range(p))
        labels = tuple((i,) for i in range(p))
        return FieldTable(q, p, k, add, mul, labels, ())

    modulus = _smallest_irreducible(p, k)
    vecs = [_digits(i, p, k) for i in range(q)]
    add_rows = []
    mul_rows = []
    for a in vecs:
        add_rows.append(tuple(
            _index(tuple((x + y) % p for x, y in zip(a, b)), p) for b in vecs))
        row = []
        for b in vecs:
            conv = [0] * (2 * k - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        conv[i + j] = (conv[i + j] + x * y) % p
            row.append(_index(tuple(_poly_rem(conv, modulus, p)), p))
        mul_rows.append(tuple(row))
    return FieldTable(q, p, k, tuple(add_rows), tuple(mul_rows), tuple(vecs), modulus)


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
