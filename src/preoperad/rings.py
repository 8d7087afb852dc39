"""Exact coefficient arithmetic: prime fields F_p and the integers.

Every value is a plain Python int in canonical form (reduced representative
in [0, p) for F_p, arbitrary precision for Z). The dense backends keep whole
tables of such values; this module owns the scalar rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedRing


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


@dataclass(frozen=True)
class CoefficientRing:
    """F_p when modulus is a prime, the integers when modulus is None."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and not _is_prime(self.modulus):
            raise UnsupportedRing(f"modulus {self.modulus} is not prime")

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
        """Canonical representative of v."""
        v = int(v)
        return v % self.modulus if self.modulus is not None else v

    def sample_nonzero(self, rng) -> int:
        if self.modulus is None:
            raise UnsupportedRing("uniform sampling needs a finite field")
        return int(rng.integers(1, self.modulus))

    def label(self) -> str:
        return "Z" if self.modulus is None else f"F_{self.modulus}"

    def to_payload(self) -> dict:
        if self.modulus is None:
            return {"kind": "integers"}
        return {"kind": "prime_field", "p": self.modulus}

    @classmethod
    def from_payload(cls, payload: dict) -> "CoefficientRing":
        if payload.get("kind") == "integers":
            return cls.integers()
        if payload.get("kind") == "prime_field":
            return cls.prime_field(int(payload["p"]))
        raise UnsupportedRing(f"unknown ring payload {payload!r}")
