import hashlib
import json
import re
import tracemalloc
from dataclasses import replace
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hyperfields import (
    CapacityError,
    DomainError,
    PrimePower,
    StructuralError,
    factor_integer,
    gf,
    verify_field,
)
from hyperfields.galois import is_prime

SMALL_PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                      (3, 2), (11, 1), (13, 1), (2, 4)]  # every p**k <= 16
# every extension field of order at most 256
EXTENSIONS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9) if p ** k <= 256]
GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def naive_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


class TestFactorInteger:
    def test_examples(self):
        assert [(f.p, f.k) for f in factor_integer(12).factors] == [(2, 2), (3, 1)]
        assert [(f.p, f.k) for f in factor_integer(7).factors] == [(7, 1)]
        assert [(f.p, f.k) for f in factor_integer(6).factors] == [(2, 1), (3, 1)]

    def test_below_two_rejected(self):
        with pytest.raises(DomainError, match="order must be at least 2"):
            factor_integer(1)

    def test_reassembles_over_full_range(self):
        for n in range(2, 10001):
            fact = factor_integer(n)
            prod = 1
            for f in fact.factors:
                prod *= f.p ** f.k
            assert prod == n

    def test_trial_division_stops_at_the_square_root(self):
        """Candidates are drawn lazily up to the square root of what is left:
        no list of every odd number up to n is built."""
        tracemalloc.start()
        try:
            fact = factor_integer(2 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(f.p, f.k) for f in fact.factors] == [(2, 7), (5, 6)]
        assert peak < 1 << 20
        assert [(f.p, f.k) for f in factor_integer(10**9 + 7).factors] == [(10**9 + 7, 1)]

    @given(st.integers(min_value=2, max_value=10000))
    def test_factors_are_prime_and_ascending(self, n):
        factors = factor_integer(n).factors
        assert all(naive_is_prime(f.p) for f in factors)
        primes = [f.p for f in factors]
        assert primes == sorted(set(primes))

    def test_prime_power_validation(self):
        with pytest.raises(DomainError):
            PrimePower(4, 1)
        with pytest.raises(DomainError):
            PrimePower(3, 0)


class TestGf:
    def test_gf2(self):
        f = gf(2)
        assert f.add[1][1] == 0
        assert f.mul[1][1] == 1

    def test_gf4_modulus_is_the_unique_irreducible_quadratic(self):
        # Oracle: over GF(2) the reducible monic quadratics are exactly the
        # products of monic linear factors.
        def times(u, v):
            out = [0, 0, 0]
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    out[i + j] ^= x & y
            return tuple(out)

        linears = [(0, 1), (1, 1)]
        reducible = {times(u, v) for u in linears for v in linears}
        irreducible = [m for m in [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
                       if m not in reducible]
        assert irreducible == [(1, 1, 1)]
        assert gf(2, 2).modulus == (1, 1, 1)

    def test_gf4_generator_square(self):
        f = gf(2, 2)
        assert f.mul[2][2] == 3  # x * x = x + 1 mod x^2+x+1

    def test_composite_p_rejected(self):
        with pytest.raises(DomainError, match="p not prime"):
            gf(4, 1)
        with pytest.raises(DomainError, match="p not prime"):
            gf(9, 2)

    def test_huge_p_fails_on_capacity_before_any_primality_test(self, monkeypatch):
        # trial division of the Mersenne prime 2^61 - 1 would run for minutes
        monkeypatch.setattr("hyperfields.galois.is_prime", None)
        with pytest.raises(CapacityError, match="exceeds"):
            gf(2**61 - 1)

    def test_capacity_bounds(self):
        with pytest.raises(CapacityError):
            gf(2, 0)
        with pytest.raises(CapacityError):
            gf(2, 9)
        with pytest.raises(CapacityError):
            gf(5, 8)  # 5**8 far beyond the order cap

    def test_deterministic(self):
        assert gf(3, 2) == gf(3, 2)
        assert gf(2, 4) == gf(2, 4)

    def test_labels_and_index_convention(self):
        f = gf(3, 2)
        assert all(len(lab) == 2 for lab in f.labels)
        for i, lab in enumerate(f.labels):
            assert lab[0] + 3 * lab[1] == i
        assert f.labels[0] == (0, 0)
        assert f.labels[1] == (1, 0)

    def test_tables_match_the_digests_pinned_before_exp_log(self):
        """golden/field_sha256.json holds, for every extension field of order
        at most 1024 and every GF(p) with p <= 256, one sha256 over (add,
        mul, labels, modulus) as the polynomial-arithmetic builder made them."""
        pinned = json.loads((GOLDEN / "field_sha256.json").read_text(encoding="utf-8"))
        got = {}
        for name in pinned:
            f = gf(*map(int, re.findall(r"\d+", name)))
            got[name] = hashlib.sha256(
                repr((f.add, f.mul, f.labels, f.modulus)).encode()).hexdigest()
        assert got == pinned

    @pytest.mark.parametrize("p,k", EXTENSIONS)
    def test_tables_match_polynomial_arithmetic(self, p, k):
        f = gf(p, k)
        modulus = oracle_modulus(p, k)
        assert f.modulus == modulus
        vecs = [oracle_vector(i, p, k) for i in range(f.q)]
        assert f.labels == tuple(vecs)
        assert f.add == tuple(tuple(oracle_number([(x + y) % p for x, y in zip(a, b)], p)
                                    for b in vecs) for a in vecs)
        assert f.mul == tuple(tuple(oracle_number(oracle_product(a, b, modulus, p), p)
                                    for b in vecs) for a in vecs)

    def test_neg_and_inv(self):
        f = gf(7)
        for a in range(7):
            assert f.add[a][f.neg(a)] == 0
        for a in range(1, 7):
            assert f.mul[a][f.inv(a)] == 1
        with pytest.raises(DomainError):
            f.inv(0)


# An argument of the wrong type or out of range: (call, error, message), or
# (call, None, None) for a call that must return False.
OFF_ARGUMENTS = {
    "inv(-1)": (lambda: gf(5).inv(-1), StructuralError, "element index out of range"),
    "inv(True)": (lambda: gf(5).inv(True), StructuralError, "element index out of range"),
    "neg(-1)": (lambda: gf(5).neg(-1), StructuralError, "element index out of range"),
    "neg(5)": (lambda: gf(5).neg(5), StructuralError, "element index out of range"),
    "neg(1.0)": (lambda: gf(5).neg(1.0), StructuralError, "element index out of range"),
    "PrimePower(2.0, 1)": (lambda: PrimePower(2.0, 1), DomainError, "is not prime"),
    "PrimePower(2, True)": (lambda: PrimePower(2, True), DomainError, "exponent must be"),
    "PrimePower(2, 1.0)": (lambda: PrimePower(2, 1.0), DomainError, "exponent must be"),
    "is_prime(2.0)": (lambda: is_prime(2.0), None, None),
    "is_prime(7.0)": (lambda: is_prime(7.0), None, None),
}


@pytest.mark.parametrize("name", OFF_ARGUMENTS)
def test_an_argument_off_type_or_range_is_refused(name):
    call, error, message = OFF_ARGUMENTS[name]
    if error is None:
        assert call() is False
    else:
        with pytest.raises(error, match=message):
            call()


# --- an oracle for GF(p^k) by polynomial arithmetic: it shares no code with gf


def oracle_vector(i, p, k):
    """The coefficients of element i, low degree first."""
    return tuple(i // p ** d % p for d in range(k))


def oracle_number(vec, p):
    return sum(c * p ** d for d, c in enumerate(vec))


def oracle_remainder(a, m, p):
    """a mod the monic m, padded to len(m) - 1 coefficients."""
    a = list(a)
    for top in range(len(a) - 1, len(m) - 2, -1):
        lead, shift = a[top], top - (len(m) - 1)
        for d, c in enumerate(m):
            a[shift + d] = (a[shift + d] - lead * c) % p
    return (a + [0] * len(m))[:len(m) - 1]


def oracle_product(a, b, m, p):
    """a.b by convolution, then reduction mod m."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] = (conv[i + j] + x * y) % p
    return oracle_remainder(conv, m, p)


def oracle_modulus(p, k):
    """The monic irreducible of degree k over GF(p) whose lower coefficients
    have the smallest index: the first with no monic divisor of degree
    1..k/2, coefficients compared high degree first."""
    def monic(d):
        return [oracle_vector(i, p, d) + (1,) for i in range(p ** d)]

    return next(m for m in monic(k)
                if all(any(oracle_remainder(m, g, p))
                       for d in range(1, k // 2 + 1) for g in monic(d)))


class TestVerifyField:
    def test_gf3_passes(self):
        assert verify_field(gf(3)).ok

    @pytest.mark.parametrize("p,k", SMALL_PRIME_POWERS)
    def test_all_small_prime_powers_pass(self, p, k):
        report = verify_field(gf(p, k))
        assert report.ok, report.failures()

    def test_corrupted_identity_detected(self):
        f = gf(3)
        bad_mul = tuple(tuple(0 if (i, j) == (1, 1) else v
                              for j, v in enumerate(row))
                        for i, row in enumerate(f.mul))
        report = verify_field(replace(f, mul=bad_mul))
        assert not report.ok
        broken = report["multiplicative identity"]
        assert not broken.passed
        assert broken.witness is not None

    def test_malformed_table_rejected(self):
        f = gf(3)
        with pytest.raises(StructuralError):
            verify_field(replace(f, add=f.add[:2]))

    @pytest.mark.parametrize("p,k", SMALL_PRIME_POWERS)
    def test_nonzero_elements_form_group(self, p, k):
        f = gf(p, k)
        q = f.q
        nonzero = range(1, q)
        assert all(f.mul[a][b] != 0 for a, b in iproduct(nonzero, nonzero))
        assert all(any(f.mul[a][b] == 1 for b in nonzero) for a in nonzero)
        assert all(f.mul[1][a] == a for a in nonzero)
