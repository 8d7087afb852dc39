"""Exact coefficient arithmetic: prime fields F_p and the integers.

Every value is a plain Python int in canonical form (reduced representative
in [0, p) for F_p, arbitrary precision for Z). The dense backends keep whole
tables of such values; this module owns the scalar rules.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import BadConfig, ShapeMismatch, UnsupportedRing


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases.

    Exact for n < 3.18 * 10^23 (Sorenson and Webster 2015), so for every
    64-bit modulus; above that it is a strong probable-prime test.
    """
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_integer(value, what: str, error: type) -> int:
    """value itself when it is an integer; anything else, a bool or a float
    that would round included, is refused with error rather than cast.
    A plain int skips the slow abstract-class test."""
    if type(value) is not int and (isinstance(value, bool) or
                                   not isinstance(value, numbers.Integral)):
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def require_field(data, key: str, what: str):
    """data[key]; refused with BadConfig naming key and what when data is
    not a dict that holds key."""
    if not isinstance(data, dict) or key not in data:
        raise BadConfig(f'{what}: no field "{key}"')
    return data[key]


@dataclass(frozen=True)
class CoefficientRing:
    """F_p when modulus is a prime, the integers when modulus is None."""

    modulus: int | None = None

    def __post_init__(self):
        """Refuse a modulus that is not a prime integer; keep a numpy
        integer as the plain int every value here is."""
        if self.modulus is not None:
            p = int(require_integer(self.modulus, "a modulus", UnsupportedRing))
            if not _is_prime(p):
                raise UnsupportedRing(f"modulus {p} is not prime")
            object.__setattr__(self, "modulus", p)

    @classmethod
    def prime_field(cls, p: int) -> "CoefficientRing":
        return cls(p)

    @classmethod
    def integers(cls) -> "CoefficientRing":
        return cls(None)

    @property
    def is_field(self) -> bool:
        return self.modulus is not None

    def reduce(self, v: int) -> int:
        """Canonical representative of v; a value that is not an integer
        is refused, as a coefficient of a sum is."""
        v = int(require_integer(v, "a value", ShapeMismatch))
        return v % self.modulus if self.modulus is not None else v

    def label(self) -> str:
        return "Z" if self.modulus is None else f"F_{self.modulus}"

    def to_payload(self) -> dict:
        if self.modulus is None:
            return {"kind": "integers"}
        return {"kind": "prime_field", "p": self.modulus}

    @classmethod
    def from_payload(cls, payload: dict) -> "CoefficientRing":
        kind = require_field(payload, "kind", "malformed ring payload")
        if kind == "integers":
            return cls.integers()
        if kind == "prime_field":
            return cls.prime_field(
                require_field(payload, "p", "malformed ring payload"))
        raise UnsupportedRing(f"unknown ring payload {payload!r}")
