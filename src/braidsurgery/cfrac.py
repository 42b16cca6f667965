"""Negative (Hirzebruch-Jung) continued fractions and the count Phi.

All arithmetic is exact; nothing here touches a float.  Expansions use
coefficients ``a_i <= -2`` throughout, so every value is ``< -1``.  The
ceiling algorithm runs in integers, one step ``x/y -> -y/(x mod y)`` per
coefficient, and ends in at most denominator-many steps.  Convergents
come from the linear recurrence of their numerators and denominators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .errors import CFracError
from .record import Record


class NegContFrac(Record):
    """A terminating expansion ``a_0 - 1/(a_1 - 1/(... - 1/a_k))``."""

    def __init__(self, coeffs: tuple[int, ...], value: Fraction):
        if not coeffs:
            raise CFracError("empty coefficient list")
        if any(a > -2 for a in coeffs):
            raise CFracError(f"coefficients must be <= -2, got {list(coeffs)}")
        self._store(locals())


class SlopeVector(Record):
    """Ordered surgery slopes, one per link component, in lowest terms."""

    def __init__(self, slopes: tuple[Fraction, ...]):
        slopes = tuple(Fraction(s) for s in slopes)
        self._store(locals())

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


def _ceiling_steps(r):
    """Coefficients of the expansion of ``r < -1``, one ceiling step each.

    With ``r = x/y`` the step takes ``a = x // y`` and continues on
    ``-y/(x mod y)``; the denominators strictly decrease, so it ends.
    """
    r = Fraction(r)
    if r >= -1:
        raise CFracError(f"expansion requires r < -1, got {r}")
    x, y = r.numerator, r.denominator
    while y:
        yield x // y
        x, y = -y, x % y


def neg_cfrac(r) -> NegContFrac:
    """Expand a rational ``r < -1`` with the ceiling algorithm."""
    return NegContFrac(tuple(_ceiling_steps(r)), Fraction(r))


def neg_cfrac_length(r, limit: int) -> int:
    """Number of coefficients of :func:`neg_cfrac` ``(r)``, or ``limit + 1``
    when there are more; the count stops after ``limit + 1`` steps."""
    return sum(1 for _ in islice(_ceiling_steps(r), limit + 1))


def convergent_pairs(coeff_stream, n: int) -> list[tuple[int, int]]:
    """The first ``n + 1`` truncations of a coefficient stream as ``(p, q)``
    with ``q > 0``, from ``p_k = a_k p_(k-1) - p_(k-2)`` and the same
    recurrence for ``q``.  They are in lowest terms, since
    ``p_k q_(k-1) - p_(k-1) q_k = +-1``."""
    coeffs = list(islice(coeff_stream, n + 1))
    if len(coeffs) <= n:
        raise CFracError(f"coefficient stream ended before index {n}")
    if any(a > -2 for a in coeffs):
        raise CFracError("coefficients must be <= -2")
    p0, p, q0, q = 0, 1, -1, 0
    out = []
    for a in coeffs:
        p0, p, q0, q = p, a * p - p0, q, a * q - q0
        out.append((p, q) if q > 0 else (-p, -q))
    return out


def convergents(coeff_stream, n: int) -> list[Fraction]:
    """Values of the first ``n + 1`` truncations of a coefficient stream."""
    return [Fraction(p, q) for p, q in convergent_pairs(coeff_stream, n)]


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
