"""Exact integer matrix routines, fraction-free throughout.

``det``, ``adjugate`` and ``solve_exact`` share one Bareiss (1968)
forward elimination and ``signature`` is its symmetric counterpart:
stored entries stay minors, so every division is exact and only ints
are used (``solve_exact`` builds ``Fraction`` values for its result
alone).  ``adjugate`` eliminates ``[m | I]`` once, so a quadratic form
``x^T m^-1 x`` is ``x^T adj(m) x / det(m)`` in integers for any number
of vectors ``x``.  ``smith_normal_form`` uses Euclidean row and column
operations, modulo ``|det|`` when that is nonzero.  ``surgery`` calls
them only on the residuals of its sparse fold: at most ``2k`` rows on an
expansion with ``k`` closure components.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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
    zeros up to ``min(rows, cols)``.  Each step moves the smallest entry
    of the remaining block to its corner and clears that entry's column
    and row by Euclidean row operations, transposing the block between
    the two.  A square input with ``D = |det| != 0`` is worked modulo
    ``D``: its column lattice contains ``D Z^n``, so entries are kept in
    ``(-D/2, D/2]`` (unreduced, they can grow without bound), a cleared
    corner ``p`` stands for ``gcd(p, D)``, and a block that vanishes mod
    ``D`` contributes factors ``D``.
    """
    b = [list(row) for row in m]
    cols = len(b[0]) if b else 0
    size = min(len(b), cols)
    d = abs(det(b)) if len(b) == cols else 0
    b = [_mod(row, d) for row in b]
    out: list[int] = []
    while len(out) < size:
        live = [(min(map(abs, filter(None, r))), i) for i, r in enumerate(b) if any(r)]
        if not live:
            break
        v, i = min(live)
        j = b[i].index(v) if v in b[i] else b[i].index(-v)
        b[0], b[i] = b[i], b[0]
        for row in b:
            row[0], row[j] = row[j], row[0]
        while True:
            for i in range(1, len(b)):
                while b[i][0]:
                    q = b[i][0] // b[0][0]
                    b[i] = _mod([x - q * y for x, y in zip(b[i], b[0])], d)
                    if b[i][0]:
                        b[0], b[i] = b[i], b[0]
            if not any(b[0][1:]):
                break
            b = [list(col) for col in zip(*b)]
        p = gcd(b[0][0], d)
        # The corner must divide every remaining entry for d_1 | d_2 | ... ;
        # if not, fold the offending row in and redo this corner.
        rest = [row[1:] for row in b[1:]]
        bad = p > 1 and next((r for r in rest if gcd(*r) % p), None)
        if not bad:
            out.append(p)
            b = rest
        else:
            b[0] = [p] + bad
    return out + [d] * (size - len(out))


def _mod(row: list[int], d: int) -> list[int]:
    """Entries reduced into ``(-d/2, d/2]``; unchanged when ``d`` is 0."""
    h = (d - 1) // 2
    if not d or -h <= min(row) and max(row) <= d - 1 - h:
        return row
    return [(x + h) % d - h for x in row]


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


def adjugate(m: Matrix) -> tuple[int, Matrix]:
    """``(det(m), adj(m))`` of a nonsingular integer matrix.

    One Bareiss elimination of ``[m | I]``, then fraction-free back
    substitution of every identity column: ``D m^-1`` is integral for
    the final pivot ``D = +-det(m)``.  Raises ``ZeroDivisionError`` if
    the matrix is singular.
    """
    a = _square(m)
    n = len(a)
    sign, rows = _eliminate(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    )
    if not sign:
        raise ZeroDivisionError("singular matrix")
    d = rows[-1][0] if rows else 1
    # Row k of D m^-1 from the rows below it, last row first.
    solved: list[list[int]] = []
    for k in range(n - 1, -1, -1):
        r = rows[k]
        acc = [d * x for x in r[n - k :]]
        for c, x in zip(r[1 : n - k], reversed(solved)):
            if c:
                acc = [u - c * v for u, v in zip(acc, x)]
        solved.append([u // r[0] for u in acc])
    return sign * d, [[sign * x for x in row] for row in reversed(solved)]


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
