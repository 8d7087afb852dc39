import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preoperad.errors import (
    DivisionByZero,
    InverseUnavailable,
    UnsupportedRing,
)
from preoperad.rings import CoefficientRing

F7 = CoefficientRing.prime_field(7)
F97 = CoefficientRing.prime_field(97)
ZZ = CoefficientRing.integers()


def test_prime_field_arithmetic_examples():
    assert F7.add(3, 5) == 1
    assert F7.sub(3, 5) == 5
    assert F7.mul(3, 5) == 1
    assert F7.neg(3) == 4
    assert F7.inv(3) == 5
    assert F7.reduce(-1) == 6
    assert F7.reduce(21) == 0


def test_integer_ring_arithmetic():
    assert ZZ.add(3, 5) == 8
    assert ZZ.mul(-4, 5) == -20
    assert ZZ.neg(7) == -7
    assert ZZ.reduce(123456789123456789) == 123456789123456789
    assert ZZ.inv(1) == 1
    assert ZZ.inv(-1) == -1
    with pytest.raises(InverseUnavailable):
        ZZ.inv(2)


@pytest.mark.parametrize("modulus", [0, 1, -5, 6, 91, 2**10])
def test_composite_or_degenerate_modulus_rejected(modulus):
    with pytest.raises(UnsupportedRing):
        CoefficientRing.prime_field(modulus)


@pytest.mark.parametrize("modulus", [2, 3, 5, 97, 101, 65537])
def test_valid_primes_accepted(modulus):
    ring = CoefficientRing.prime_field(modulus)
    assert ring.is_field
    assert ring.modulus == modulus


@pytest.mark.parametrize("modulus", [
    561,  # Carmichael number: passes the Fermat test to every coprime base
    3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
    (2**61 - 1) * (2**31 - 1),
])
def test_primality_test_is_not_fooled_by_pseudoprimes(modulus):
    with pytest.raises(UnsupportedRing):
        CoefficientRing.prime_field(modulus)


@pytest.mark.parametrize("modulus", [2**61 - 1, 2**89 - 1, 18446744073709551557])
def test_large_primes_accepted_without_trial_division(modulus):
    # trial division up to sqrt(2^61) would not finish
    assert CoefficientRing.prime_field(modulus).modulus == modulus


def test_primality_matches_a_sieve_below_3000():
    sieve = [True] * 3000
    sieve[0] = sieve[1] = False
    for q in range(2, 55):
        for multiple in range(q * q, 3000, q):
            sieve[multiple] = False
    for n in range(-3, 3000):
        accepted = True
        try:
            CoefficientRing.prime_field(n)
        except UnsupportedRing:
            accepted = False
        assert accepted == (n >= 0 and sieve[n]), n


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZero):
        F97.inv(0)
    with pytest.raises(DivisionByZero):
        F97.inv(97)


def test_labels():
    assert F7.label() == "F_7"
    assert ZZ.label() == "Z"


def test_payload_round_trip():
    for ring in (F7, F97, ZZ):
        assert CoefficientRing.from_payload(ring.to_payload()) == ring


def test_sampling_is_deterministic():
    a = F97.sample(np.random.default_rng(5))
    b = F97.sample(np.random.default_rng(5))
    assert a == b
    assert 0 <= a < 97


def test_sample_nonzero_avoids_zero():
    rng = np.random.default_rng(9)
    draws = [F7.sample_nonzero(rng) for _ in range(1000)]
    assert all(1 <= v < 7 for v in draws)


def test_sample_uniformity_chi_square():
    # 10^4 draws over F_97; chi-square with 96 dof stays within 5 sigma
    rng = np.random.default_rng(1234)
    n = 10_000
    counts = np.zeros(97, dtype=np.int64)
    for _ in range(n):
        counts[F97.sample(rng)] += 1
    expected = n / 97
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = 96
    assert chi2 < dof + 5 * math.sqrt(2 * dof)


@given(st.integers(), st.integers(), st.integers())
@settings(max_examples=200, deadline=None)
def test_field_axioms_f97(a, b, c):
    r = F97
    a, b, c = r.reduce(a), r.reduce(b), r.reduce(c)
    assert r.add(a, b) == r.add(b, a)
    assert r.mul(a, b) == r.mul(b, a)
    assert r.add(r.add(a, b), c) == r.add(a, r.add(b, c))
    assert r.mul(r.mul(a, b), c) == r.mul(a, r.mul(b, c))
    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
    assert r.add(a, r.neg(a)) == 0
    if a != 0:
        assert r.mul(a, r.inv(a)) == 1


@given(st.integers(min_value=-10**9, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_reduce_is_idempotent(a):
    assert F97.reduce(F97.reduce(a)) == F97.reduce(a)
    assert ZZ.reduce(a) == a
