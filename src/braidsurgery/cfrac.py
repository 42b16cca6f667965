"""Negative (Hirzebruch-Jung) continued fractions and the count Phi.

All arithmetic is exact ``fractions.Fraction``; nothing here touches a
float.  Expansions use coefficients ``a_i <= -2`` throughout, so every
value is ``< -1`` and the ceiling algorithm terminates in at most
denominator-many steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class CFracError(ValueError):
    """Value outside the domain of negative continued fractions."""


@dataclass(frozen=True)
class NegContFrac:
    """A terminating expansion ``a_0 - 1/(a_1 - 1/(... - 1/a_k))``."""

    coeffs: tuple[int, ...]
    value: Fraction

    def __post_init__(self):
        if not self.coeffs:
            raise CFracError("empty coefficient list")
        if any(a > -2 for a in self.coeffs):
            raise CFracError(f"coefficients must be <= -2, got {list(self.coeffs)}")

    def phi(self) -> int:
        return phi(self)


@dataclass(frozen=True)
class SlopeVector:
    """Ordered surgery slopes, one per link component, in lowest terms."""

    slopes: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "slopes", tuple(Fraction(s) for s in self.slopes)
        )

    def __len__(self) -> int:
        return len(self.slopes)

    def __iter__(self):
        return iter(self.slopes)


def eval_cfrac(coeffs) -> Fraction:
    """Exact value of ``a_0 - 1/(a_1 - 1/(...))`` by back substitution."""
    coeffs = list(coeffs)
    if not coeffs:
        raise CFracError("empty coefficient list")
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        if value == 0:
            raise CFracError("division by zero while evaluating coefficients")
        value = a - 1 / value
    return value


def neg_cfrac(r) -> NegContFrac:
    """Expand a rational ``r < -1`` with the ceiling algorithm.

    Each step takes ``a = -ceil(-r)`` and recurses on ``1/(a - r)``;
    the remainder denominators strictly decrease, so the loop ends.
    """
    r = Fraction(r)
    if r >= -1:
        raise CFracError(f"expansion requires r < -1, got {r}")
    coeffs: list[int] = []
    rest = r
    while True:
        a = -math.ceil(-rest)
        coeffs.append(a)
        if rest == a:
            break
        rest = 1 / (a - rest)
    return NegContFrac(tuple(coeffs), r)


def neg_cfrac_length(r, limit: int) -> int:
    """Number of coefficients of :func:`neg_cfrac` ``(r)``, or ``limit + 1``
    when there are more.

    Integer form of the ceiling step: ``x/y -> -y/(x mod y)``, so the
    count costs at most ``limit`` steps whatever the denominator.
    """
    r = Fraction(r)
    if r >= -1:
        raise CFracError(f"expansion requires r < -1, got {r}")
    x, y = r.numerator, r.denominator
    count = 1
    while x % y and count <= limit:
        x, y = -y, x % y
        count += 1
    return count


def convergents(coeff_stream, n: int) -> list[Fraction]:
    """Values of the first ``n + 1`` truncations of a coefficient stream."""
    coeffs: list[int] = []
    it = iter(coeff_stream)
    for _ in range(n + 1):
        try:
            coeffs.append(next(it))
        except StopIteration:
            raise CFracError(
                f"coefficient stream ended before index {n}"
            ) from None
    if any(a > -2 for a in coeffs):
        raise CFracError("coefficients must be <= -2")
    return [eval_cfrac(coeffs[: k + 1]) for k in range(n + 1)]


def phi(f: NegContFrac) -> int:
    """The product ``|a_0 + 1| |a_1 + 1| ... |a_k + 1|``; always >= 1."""
    result = 1
    for a in f.coeffs:
        result *= abs(a + 1)
    return result


def phi_vector(v: SlopeVector) -> int:
    """Product of ``phi`` over the expansions of ``-q_i/p_i``.

    Every slope must lie strictly in ``(0, 1)`` so that ``-q_i/p_i``
    is below ``-1`` and expandable.
    """
    result = 1
    for s in v:
        if not 0 < s < 1:
            raise CFracError(f"slope {s} outside (0, 1)")
        result *= phi(neg_cfrac(Fraction(-s.denominator, s.numerator)))
    return result
