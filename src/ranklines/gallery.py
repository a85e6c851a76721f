"""Named example constructions, parameterized by size and field.

Each generator returns the objects (matrices, subspaces) of one explicit
construction together with nothing assumed: the advertised properties
(codimension, rank bounds, witness existence or nonexistence) are
re-verified by the test suite and the verification campaigns.  EXAMPLES
names them for ``ranklines gen``.
"""

from __future__ import annotations

from .fields import GF, FieldDesc
from .matrices import Matrix, canonical_N
from .spaces import (
    AffineMatrixSubspace,
    LinearMatrixSubspace,
    MatrixSpaceShape,
    affine_from_point,
    from_generators,
)


def lemma1_witness(n: int, p: int, r: int, field: FieldDesc) -> Matrix:
    """The subdiagonal witness whose line with canonical_N(n, p, r) is full-rank.

    For n > p it is the shifted identity sum E_{2,1} + ... + E_{p+1,p};
    for n = p the corner unit E_{1,n} is added, making a cyclic permutation
    matrix.  The construction does not depend on r.
    """
    if not (n >= p >= 1):
        raise ValueError(f"need n >= p >= 1, got n={n}, p={p}")
    if not 0 <= r < p:
        raise ValueError(f"direction rank {r} must satisfy 0 <= r < p = {p}")
    z, o = field.zero, field.one
    rows = [[o if i == j + 1 else z for j in range(p)] for i in range(n)]
    if n == p:
        rows[0][n - 1] = o
    return Matrix(field, n, p, tuple(map(tuple, rows)))


def sharpness_example(n: int, p: int, field: FieldDesc) -> tuple[LinearMatrixSubspace, Matrix]:
    """The codim n-1 space showing the codimension bound n-2 is optimal.

    S consists of all matrices whose first column is supported on row 1,
    and N = canonical_N(n, p, p-1).  Every A in S has some A + tN with a
    zero first column, so no member spans a full-rank line.
    """
    if not (n >= p >= 2):
        raise ValueError(f"need n >= p >= 2, got n={n}, p={p}")
    shape = MatrixSpaceShape(field, n, p)
    gens = [Matrix.unit(field, n, p, i, j)
            for i in range(n) for j in range(p)
            if j != 0 or i == 0]
    space = from_generators(shape, gens)
    return space, canonical_N(field, n, p, p - 1)


def remark1_example(n: int, field: FieldDesc) -> tuple[AffineMatrixSubspace, Matrix]:
    """The affine hyperplane {M : M_nn = 1} with N = canonical_N(n, n, n-1).

    No member maps Ker N into im N (that condition is M_nn = 0), and for
    every member the determinant polynomial det(A + tN) is monic of degree
    exactly n-1, hence never constant.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    shape = MatrixSpaceShape(field, n, n)
    gens = [Matrix.unit(field, n, n, i, j)
            for i in range(n) for j in range(n)
            if (i, j) != (n - 1, n - 1)]
    linear = from_generators(shape, gens)
    space = affine_from_point(linear, Matrix.unit(field, n, n, n - 1, n - 1))
    return space, canonical_N(field, n, n, n - 1)


def remark2_f2_example() -> tuple[AffineMatrixSubspace, Matrix]:
    """The codim-1 affine space over GF(2), n=3, with no constant-det member.

    Members have entry (1,3) = a and entry (3,2) = a+1 for a in GF(2), all
    other entries free; N = diag(1,1,0).  A plain full-rank witness exists,
    but no member's det(M + tN) is a nonzero constant.
    """
    field = GF(2)
    shape = MatrixSpaceShape(field, 3, 3)
    gens = [Matrix.unit(field, 3, 3, i, j)
            for i in range(3) for j in range(3)
            if (i, j) not in ((0, 2), (2, 1))]
    gens.append(Matrix.unit(field, 3, 3, 0, 2) + Matrix.unit(field, 3, 3, 2, 1))
    linear = from_generators(shape, gens)
    space = affine_from_point(linear, Matrix.unit(field, 3, 3, 2, 1))
    return space, canonical_N(field, 3, 3, 2)


def flanders_extremal(n: int, p: int, r: int, field: FieldDesc) -> LinearMatrixSubspace:
    """The dimension-n*r space of matrices vanishing on the last p-r columns.

    Every member has rank at most r, showing the rank-bounded dimension
    ceiling n*r is attained.
    """
    if not (n >= p >= 0) or not 0 <= r <= p:
        raise ValueError(f"need n >= p >= r >= 0, got n={n}, p={p}, r={r}")
    shape = MatrixSpaceShape(field, n, p)
    gens = [Matrix.unit(field, n, p, i, j) for i in range(n) for j in range(r)]
    return from_generators(shape, gens)


def _remark2_f2_parts(field: FieldDesc):
    if field != GF(2):
        raise ValueError(f"example remark2-f2 is over gf 2 only, got {field}")
    return zip(("space", "N"), remark2_f2_example())


# name -> (size parameters, builder(field, *sizes) of (part, object) pairs);
# `ranklines gen` writes each object to <name>_<part>.txt.
EXAMPLES = {
    "lemma1": (("n", "p", "r"), lambda field, n, p, r: (
        ("A", lemma1_witness(n, p, r, field)), ("N", canonical_N(field, n, p, r)))),
    "sharpness": (("n", "p"),
                  lambda field, n, p: zip(("space", "N"), sharpness_example(n, p, field))),
    "remark1": (("n",), lambda field, n: zip(("space", "N"), remark1_example(n, field))),
    "remark2-f2": ((), _remark2_f2_parts),
    "flanders-extremal": (("n", "p", "r"), lambda field, n, p, r: (
        ("space", flanders_extremal(n, p, r, field)),)),
}
EXAMPLE_NAMES = tuple(EXAMPLES)
