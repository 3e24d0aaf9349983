"""Shamir secret sharing with Feldman-style verifiability.

The dealer samples a random degree-t polynomial f with f(0) = secret and
hands device i the share (i, f(i)). Publishing g^(coefficient) for every
coefficient lets anyone check a share against the public commitments
without learning anything about the secret. Any t+1 shares reconstruct
f(0) by Lagrange interpolation; t or fewer reveal nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .algebra import (GroupParams, PrimeField, Scalar, lagrange_coefficient,
                      read_hex, typed)
from .errors import ParameterError


@dataclass(frozen=True)
class ThresholdParams:
    """Corruption threshold t and device count n, with 1 <= t+1 <= n."""

    t: int
    n: int

    def __post_init__(self):
        if self.t < 0:
            raise ParameterError(f"threshold t must be >= 0, got {self.t}")
        if self.n < 1:
            raise ParameterError(f"device count n must be >= 1, got {self.n}")
        if self.t + 1 > self.n:
            raise ParameterError(
                f"need t+1 <= n, got t={self.t}, n={self.n}")


@dataclass(frozen=True)
class Share:
    """One evaluation point (index, f(index)) of the sharing polynomial.

    Indices run 1..n; index 0 would evaluate the polynomial at the secret.
    """

    index: int
    value: Scalar

    def to_json(self) -> dict:
        return {"index": self.index, "value": format(self.value, "x")}

    @classmethod
    def from_json(cls, obj: dict) -> "Share":
        return cls(index=typed(obj["index"], int), value=read_hex(obj["value"]))


@dataclass(frozen=True)
class FeldmanCommitments:
    """Public commitments (g^a_0, ..., g^a_t) to the polynomial coefficients.

    The first entry commits to the secret itself: C_0 = g^secret. Their
    hex is made on the first to_json; every later list shares it.
    """

    commitments: tuple

    @cached_property
    def _hex(self) -> tuple:
        return tuple(format(c, "x") for c in self.commitments)

    def to_json(self) -> list:
        return list(self._hex)

    @classmethod
    def from_json(cls, obj) -> "FeldmanCommitments":
        return cls(commitments=tuple(read_hex(c) for c in typed(obj, list)))


def _eval_poly(coeffs, x: int, q: int) -> int:
    # Horner evaluation mod q; coeffs[0] is the constant term.
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def share_secret(secret: Scalar, params: ThresholdParams, group: GroupParams,
                 rng: random.Random):
    """Split secret into n shares with threshold t+1.

    Coefficients a_1..a_t are drawn via rng.randrange(q), one call each,
    in index order; seeding (or stubbing) the rng makes the sharing
    reproducible. Returns (shares, FeldmanCommitments).
    """
    q = group.q
    if not 0 <= secret < q:
        raise ParameterError(f"secret must lie in [0, {q})")
    if params.n >= q:
        raise ParameterError(f"need n < q, got n={params.n}, q={q}")
    coeffs = [secret] + [rng.randrange(q) for _ in range(params.t)]
    shares = [Share(index=i, value=_eval_poly(coeffs, i, q))
              for i in range(1, params.n + 1)]
    commitments = FeldmanCommitments(
        commitments=tuple(group.power(a) for a in coeffs))
    return shares, commitments


def verify_share(share: Share, commitments: FeldmanCommitments,
                 group: GroupParams) -> bool:
    """Check g^value == prod_k C_k^(index^k) mod p. False when any C_k
    lies outside [1, p), so each commitment has one encoding."""
    if share.index < 1:
        raise ParameterError(f"share index must be >= 1, got {share.index}")
    rhs = 1
    e = 1  # index^k mod q, valid exponent since the C_k have order q
    for c in commitments.commitments:
        if not 0 < c < group.p:
            return False
        rhs = rhs * pow(c, e, group.p) % group.p
        e = e * share.index % group.q
    return group.power(share.value) == rhs


def reconstruct(shares, field: PrimeField) -> Scalar:
    """Interpolate the shares at zero: returns f(0) = the shared secret.

    The caller supplies at least t+1 shares with distinct indices
    (lagrange_coefficient refuses a repeat); supplying more than t+1
    consistent shares is harmless.
    """
    shares = list(shares)
    if not shares:
        raise ParameterError("no shares supplied")
    indices = [s.index for s in shares]
    total = 0
    for s in shares:
        lam = lagrange_coefficient(indices, s.index, field)
        total = (total + lam * s.value) % field.q
    return total
