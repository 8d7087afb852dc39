import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preoperad.errors import ShapeMismatch, UnsupportedRing
from preoperad.rings import CoefficientRing

F7 = CoefficientRing.prime_field(7)
F97 = CoefficientRing.prime_field(97)
ZZ = CoefficientRing.integers()


def test_prime_field_arithmetic_examples():
    assert F7.reduce(-1) == 6
    assert F7.reduce(21) == 0


def test_integer_ring_arithmetic():
    assert ZZ.reduce(123456789123456789) == 123456789123456789


@pytest.mark.parametrize("ring", [F97, ZZ], ids=["F_97", "Z"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "5", None])
def test_reduce_refuses_a_value_that_is_not_an_integer(ring, value):
    # F_97 read 2.5 as 2, True as 1 and "5" as 5
    with pytest.raises(ShapeMismatch, match="must be an integer"):
        ring.reduce(value)


@pytest.mark.parametrize("value", [np.int64(-1), np.int32(195), np.uint8(3)])
def test_reduce_takes_a_numpy_integer_to_a_plain_int(value):
    assert F97.reduce(value) == int(value) % 97
    assert type(F97.reduce(value)) is int and type(ZZ.reduce(value)) is int


@pytest.mark.parametrize("modulus", [0, 1, -5, 6, 91, 2**10])
def test_composite_or_degenerate_modulus_rejected(modulus):
    with pytest.raises(UnsupportedRing):
        CoefficientRing.prime_field(modulus)


@pytest.mark.parametrize("modulus", [2, 3, 5, 97, 101, 65537])
def test_valid_primes_accepted(modulus):
    ring = CoefficientRing.prime_field(modulus)
    assert ring.is_field
    assert ring.modulus == modulus


@pytest.mark.parametrize("modulus", [3.0, 97.0, "97", True])
def test_a_modulus_that_is_not_an_integer_is_refused(modulus):
    with pytest.raises(UnsupportedRing, match="must be an integer"):
        CoefficientRing(modulus)
    with pytest.raises(UnsupportedRing, match="must be an integer"):
        CoefficientRing.from_payload({"kind": "prime_field", "p": modulus})


@pytest.mark.parametrize("modulus", [np.int64(97), np.int32(5)])
def test_a_numpy_integer_modulus_is_kept_as_an_int(modulus):
    ring = CoefficientRing(modulus)
    assert ring == CoefficientRing(int(modulus))
    assert type(ring.modulus) is int and ring.reduce(-1) == int(modulus) - 1


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


def test_labels():
    assert F7.label() == "F_7"
    assert ZZ.label() == "Z"


def test_payload_round_trip():
    for ring in (F7, F97, ZZ):
        assert CoefficientRing.from_payload(ring.to_payload()) == ring


@given(st.integers(min_value=-10**9, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_reduce_is_idempotent(a):
    assert F97.reduce(F97.reduce(a)) == F97.reduce(a)
    assert ZZ.reduce(a) == a
