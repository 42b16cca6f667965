"""Exact integer matrix routines, fraction-free throughout.

``det`` and ``solve_exact`` share one Bareiss (1968) forward elimination
and ``signature`` is its symmetric counterpart: stored entries stay
minors, so every division is exact and only ints are used (``solve_exact``
builds ``Fraction`` values for its result alone).  ``smith_normal_form``
uses unimodular row and column operations.  Sizes are those of surgery
diagrams: a handful of rows up to a few hundred.
"""

from __future__ import annotations

from fractions import Fraction


Matrix = list[list[int]]


def _square(m: Matrix) -> Matrix:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return [list(row) for row in m]


def _eliminate(a: Matrix) -> tuple[int, Matrix]:
    """Bareiss forward elimination of an ``n x (n + e)`` matrix, in place.

    Returns the sign of the row permutation (0 if the ``n x n`` block is
    singular) and the pivot rows ``[D_k, reduced entries right of it]``,
    ``D_k`` the k-th leading principal minor of the row-permuted matrix.
    """
    sign, prev, rows = 1, 1, []
    while a:
        for k, r in enumerate(a):
            if r[0]:
                break
        else:
            return 0, rows
        if k % 2:
            sign = -sign
        del a[k]
        rows.append(r)
        piv, tail = r[0], r[1:]
        for i, row in enumerate(a):
            f = row[0]
            if f:
                a[i] = [(x * piv - f * y) // prev for x, y in zip(row[1:], tail)]
            elif piv == prev:
                del row[0]
            else:
                a[i] = [x * piv // prev for x in row[1:]]
        prev = piv
    return sign, rows


def det(m: Matrix) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    sign, rows = _eliminate(_square(m))
    return sign * rows[-1][0] if sign and rows else sign


def smith_normal_form(m: Matrix) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns nonnegative invariant factors ``d_1 | d_2 | ...`` padded with
    zeros up to ``min(rows, cols)``.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    t = 0
    while t < min(rows, cols):
        pivot = _smallest_nonzero(a, t)
        if pivot is None:
            break
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            reduced = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    for j in range(t, cols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                    reduced = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    for i in range(t, rows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j] != 0:
                        for i in range(rows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                    reduced = True
            if not reduced:
                break
        # Pivot must divide every remaining entry for d_1 | d_2 | ... ;
        # if not, fold the offending row in and redo this corner.
        p = a[t][t]
        for i in range(t + 1, rows):
            if any(x % p for x in a[i][t + 1 :]):
                for j in range(t, cols):
                    a[t][j] += a[i][j]
                break
        else:
            t += 1
    return [abs(a[k][k]) for k in range(t)] + [0] * (min(rows, cols) - t)


def _smallest_nonzero(a, t):
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def signature(m: Matrix) -> int:
    """Signature of a symmetric integer matrix.

    Symmetric Bareiss elimination with diagonal pivots.  Each pivot is a
    leading principal minor ``D_k`` of a matrix congruent to ``m``, so by
    Sylvester's law of inertia the sign of ``D_k / D_{k-1}`` is the sign
    of one entry of a congruent diagonal form.  When every live diagonal
    entry is zero but an off-diagonal one is not, the unimodular
    congruence ``x_i -> x_i + x_j`` creates a pivot; the stored entries
    stay minors of the transformed matrix, so division remains exact.
    """
    a = _square(m)
    if any(a[i][j] != a[j][i] for i in range(len(a)) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    sig, prev = 0, 1
    while a:
        for k, row in enumerate(a):
            if row[k]:
                break
        else:
            k = next((i for i, row in enumerate(a) if any(row)), None)
            if k is None:
                break
            j = next(j for j, x in enumerate(a[k]) if x)
            # x_k -> x_k + x_j turns the hyperbolic corner into a pivot.
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        r = a.pop(k)
        piv = r.pop(k)
        sig += 1 if (piv > 0) == (prev > 0) else -1
        for i, row in enumerate(a):
            f = row.pop(k)
            if f:
                a[i] = [(x * piv - f * y) // prev for x, y in zip(row, r)]
            elif piv != prev:
                a[i] = [x * piv // prev for x in row]
        prev = piv
    return sig


def solve_exact(m: Matrix, rhs: list[int]) -> list[Fraction]:
    """Solve ``m x = rhs`` exactly for a nonsingular integer matrix.

    Fraction-free back substitution on the Bareiss rows gives the
    integer numerators ``D x_i`` over the final pivot ``D``.  Raises
    ``ZeroDivisionError`` if the matrix is singular.
    """
    a = _square(m)
    if len(rhs) != len(a):
        raise ValueError("right-hand side length does not match the matrix")
    sign, rows = _eliminate([row + [b] for row, b in zip(a, rhs)])
    if not sign:
        raise ZeroDivisionError("singular matrix")
    d = rows[-1][0] if rows else 1
    nums: list[int] = []
    for r in reversed(rows):
        s = d * r[-1] - sum(c * x for c, x in zip(r[1:-1], reversed(nums)))
        nums.append(s // r[0])
    return [Fraction(x, d) for x in reversed(nums)]
