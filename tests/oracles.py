"""Slow reference predicates that the fast paths under ``src/`` are tested against.

``maps_ker_into_im`` and ``ker_coker_noninjective`` decide the corank side
conditions of the pencil, square and Remark 2 claims member by member with
``Matrix`` arithmetic, for any direction N; the campaigns decide them on raw
rows of a coset of lower-right blocks.  ``kernel_basis`` and ``hstack``
serve them and nothing under ``src/``.

``_pencil_entries`` writes A + tN as a matrix of polynomials over K[t],
``_det_cofactor`` expands its determinant by Laplace over K[t], and
``minor_gcd_laplace`` folds ``poly_gcd`` over those expansions of the
maximal minors.  They are the slow oracles for ``det_pencil`` and
``minor_gcd``, which interpolate integer determinants over both GF(p)
and Q instead.
"""

from __future__ import annotations

from itertools import combinations

from ranklines.fields import FieldDesc
from ranklines.matrices import Matrix, _rref_raw, check_pair, rank
from ranklines.polynomials import Poly, poly_gcd


def kernel_basis(M: Matrix) -> Matrix:
    """Matrix whose columns form a basis of the right null space of M."""
    f = M.field
    red, pivots = _rref_raw(f, M.rows, M.ncols)
    pivot_set = set(pivots)
    free = [j for j in range(M.ncols) if j not in pivot_set]
    cols = []
    for j in free:
        v = [f.zero] * M.ncols
        v[j] = f.one
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(red[i][j])
        cols.append(v)
    return Matrix(f, M.ncols, len(free), tuple(zip(*cols)) if cols else tuple(() for _ in range(M.ncols)))


def hstack(left: Matrix, right: Matrix) -> Matrix:
    if left.field != right.field or left.nrows != right.nrows:
        raise ValueError("hstack needs matching fields and row counts")
    return Matrix(left.field, left.nrows, left.ncols + right.ncols,
                  tuple(a + b for a, b in zip(left.rows, right.rows)))


def maps_ker_into_im(M: Matrix, N: Matrix) -> bool:
    """True iff M sends the kernel of N into the column space of N."""
    _check_square_pair(M, N)
    kb = kernel_basis(N)
    return rank(hstack(N, M @ kb)) == rank(N)


def ker_coker_noninjective(M: Matrix, N: Matrix) -> bool:
    """True iff the induced map Ker N -> K^n / im N fails to be injective."""
    _check_square_pair(M, N)
    kb = kernel_basis(N)
    r = rank(N)
    return rank(hstack(N, M @ kb)) < r + kb.ncols


def _check_square_pair(M: Matrix, N: Matrix) -> None:
    check_pair(M, N)
    if not M.is_square:
        raise ValueError("both matrices must be square of the same size")


def _pencil_entries(A: Matrix, N: Matrix) -> list[list[Poly]]:
    """The entries a + t*b of A + tN as polynomials over K[t]."""
    f = A.field
    return [[Poly.from_coeffs(f, (a, b)) for a, b in zip(ra, rb)]
            for ra, rb in zip(A.rows, N.rows)]


def _det_cofactor(entries: list[list[Poly]], field: FieldDesc) -> Poly:
    """Determinant over K[t] by Laplace expansion along the first column."""
    n = len(entries)
    if n == 0:
        return Poly.constant(field, field.one)
    if n == 1:
        return entries[0][0]
    if n == 2:
        (a, b), (c, d) = entries
        return a * d - b * c
    total = Poly.zero(field)
    for i in range(n):
        pivot = entries[i][0]
        if pivot.is_zero:
            continue
        sub = [row[1:] for k, row in enumerate(entries) if k != i]
        term = pivot * _det_cofactor(sub, field)
        total = total + term if i % 2 == 0 else total - term
    return total


def minor_gcd_laplace(A: Matrix, N: Matrix) -> Poly:
    """Monic gcd of the maximal minors of A + tN, each expanded by cofactors over K[t]."""
    entries = _pencil_entries(A, N)
    g = Poly.zero(A.field)
    for rows in combinations(entries, A.ncols):
        g = poly_gcd(g, _det_cofactor(list(rows), A.field))
    return g
