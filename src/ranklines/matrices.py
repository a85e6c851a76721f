"""Dense exact matrices over GF(p) or the rationals.

Entries are stored as raw canonical values (see :mod:`ranklines.fields`)
in immutable row tuples.  All operations are pure functions; matrices are
safe to share freely.  There is one elimination kernel per job: packed
XOR rank over GF(2), forward elimination for rank over GF(p), the RREF
(rational rank, spans, normal forms), and one determinant kernel for
both fields, ``_det_bareiss_int`` (integer closed forms up to 4 x 4, then
Bareiss).  A GF(p) determinant is that integer determinant of the
representatives in [0, p), reduced mod p; a rational one clears each
row's denominators first.  Each fast path is tested against an
independent route.
``line_rows`` is the one place that evaluates a line A + t*N over GF(p).
This module is also the one input boundary: ``check_shape`` compares a
matrix with the expected field and size, and the ``field``/``size`` text
format (of matrices and subspaces alike) is read and written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from operator import mul

from .fields import FieldDesc, FieldMismatchError, RawValue, Scalar, clear_denominators, parse_field


@dataclass(frozen=True)
class Matrix:
    field: FieldDesc
    nrows: int
    ncols: int
    rows: tuple[tuple[RawValue, ...], ...]

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldDesc, rows) -> "Matrix":
        """Build a matrix, coercing every entry into canonical form."""
        norm = tuple(tuple(field.normalize(v) for v in row) for row in rows)
        nrows = len(norm)
        ncols = len(norm[0]) if nrows else 0
        if any(len(r) != ncols for r in norm):
            raise ValueError("ragged rows")
        return cls(field, nrows, ncols, norm)

    @classmethod
    def zeros(cls, field: FieldDesc, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, nrows, ncols, tuple((z,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, field: FieldDesc, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def unit(cls, field: FieldDesc, nrows: int, ncols: int, i: int, j: int) -> "Matrix":
        """The matrix with a single 1 at position (i, j), zero elsewhere."""
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError(f"unit position ({i}, {j}) outside {nrows}x{ncols}")
        z, o = field.zero, field.one
        return cls(field, nrows, ncols,
                   tuple(tuple(o if (r, c) == (i, j) else z for c in range(ncols))
                         for r in range(nrows)))

    # -- basic structure ------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __add__(self, other: "Matrix") -> "Matrix":
        check_shape(other, self.field, self.nrows, self.ncols)
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      tuple(tuple(f.add(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.normalize(c)
        return Matrix(f, self.nrows, self.ncols,
                      tuple(tuple(f.mul(c, a) for a in row) for row in self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        check_shape(other, self.field, self.ncols, other.ncols)
        return Matrix(self.field, self.nrows, other.ncols,
                      mul_rows(self.field, self.rows, other.rows))

    # -- text format (see _write_text) ----------------------------------------

    def to_text(self) -> str:
        return _write_text(self.field, self.nrows, self.ncols, (None, self.rows))

    @classmethod
    def from_text(cls, text: str) -> "Matrix":
        field, n, p, body, raw = _read_header(text)
        return cls(field, n, p, _read_rows(field, body, n, p, "rows", raw))

    def __str__(self) -> str:
        return self.to_text()


# ---------------------------------------------------------------------------
# input checks and the text format


def check_shape(M: Matrix, field: FieldDesc, nrows: int, ncols: int) -> None:
    """Raise unless M is nrows x ncols over field: FieldMismatchError for
    the field, ValueError for the size."""
    if M.field is not field and M.field != field:  # FieldDesc's __eq__ compares tuples
        raise FieldMismatchError(f"cannot mix {M.field} and {field}")
    if (M.nrows, M.ncols) != (nrows, ncols):
        raise ValueError(f"expected a {nrows}x{ncols} matrix, got {M.nrows}x{M.ncols}")


def _check_tall(nrows: int, ncols: int) -> None:
    """Raise ValueError unless n >= p, the shape of every line question."""
    if nrows < ncols:
        raise ValueError(f"expected at least as many rows as columns, got {nrows}x{ncols}")


#   field gf 2          (or: field rat)
#   size 3 2
#   1 0
#   0 0
#   0 0
# A subspace adds a ``dim d`` line before its d vectorized basis rows and,
# for a coset, a ``base`` line before the n x p base (spaces.parse_subspace_text).


def _write_text(field: FieldDesc, n: int, p: int, *sections) -> str:
    """The field and size lines, then for each (heading or None, rows)
    section its heading line and one line per row.

    Each entry is written as ``str`` of its raw value (``FieldDesc.format``
    over GF(p) and Q alike), so a row is one ``%`` of a ``"%s"``-per-column
    template; rows must be tuples.  A row of width 0 is a blank line.
    Rows over GF(2), GF(3), GF(5) up to 64 wide come from the _row_text memo.
    """
    lines = [f"field {field}", f"size {n} {p}"]
    for heading, rows in sections:
        if heading is not None:
            lines.append(heading)
        if rows and field.modulus in (2, 3, 5) and len(rows[0]) <= 64:
            lines.extend(map(_row_text, rows))
        elif rows:
            template = " ".join(["%s"] * len(rows[0]))
            lines.extend([template % row for row in rows])
    return "\n".join(lines) + "\n"


# Rows over small fields repeat: 3,000 sampled GF(3) 3x3 cosets hold 82
# distinct rows.  Over GF(7) and up some sampled shapes hit a memo 17-49%
# of the time, slower than the template.  An entry takes under 1 KiB.
@lru_cache(maxsize=1024)
def _row_text(row: tuple) -> str:
    return " ".join(map(str, row))


def _read_header(text: str):
    """(field, n, p, the remaining non-blank lines, the text's line count)."""
    raw = text.splitlines()
    lines = [ln for ln in map(str.strip, raw) if ln]
    if len(lines) < 2 or not lines[0].startswith("field ") or not lines[1].startswith("size "):
        raise ValueError("text must start with 'field ...' and 'size n p' lines")
    field = parse_field(lines[0][len("field "):])
    n, p = _read_counts(lines[1], 2, "two non-negative integers")
    return field, n, p, lines[2:], len(raw)


def _read_counts(line: str, count: int, expected: str) -> list[int]:
    """The ``count`` non-negative decimal integers after a header line's keyword."""
    tokens = line.split()[1:]
    if len(tokens) != count or not all(t.isdecimal() for t in tokens):
        raise ValueError(f"bad {line.split()[0]} line {line!r}: expected {expected}")
    return [int(t) for t in tokens]


def _read_rows(field: FieldDesc, lines, count: int, width: int, what: str, raw: int):
    """Exactly ``count`` lines of ``width`` entries each, parsed into raw row tuples.

    Rows of width 0 are written as blank lines, which _read_header drops,
    so at width 0 there are no lines to read and the rows are ``count`` ();
    a count above the text's ``raw`` lines is refused before any is made.
    """
    if not width:
        if count > raw:
            raise ValueError(f"{count} empty {what} need {count} blank lines, the text has {raw}")
        if lines:
            raise ValueError(f"expected no lines for {count} empty {what}, found {len(lines)}")
        return ((),) * count
    if len(lines) != count:
        raise ValueError(f"expected {count} {what}, found {len(lines)}")
    rows = []
    for ln in lines:
        tokens = ln.split()
        if len(tokens) != width:
            raise ValueError(f"expected {width} entries per row, got {len(tokens)} in {ln!r}")
        rows.append(tuple(field.parse(t) for t in tokens))
    return tuple(rows)


# ---------------------------------------------------------------------------
# products and lines A + t*N


def mul_rows(field: FieldDesc, a_rows, b_rows):
    """Raw rows of the product of two raw-row matrices; the kernel of ``@``."""
    cols = tuple(zip(*b_rows))
    if field.kind == "gf":
        pm = field.modulus
        return tuple(tuple(sum(map(mul, row, col)) % pm for col in cols) for row in a_rows)
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
                 for row in a_rows)


def line_rows(a_rows, n_rows, t: int, modulus: int):
    """Raw rows of A + t*N over GF(modulus); t = 0 returns A's rows unchanged."""
    if not t:
        return a_rows
    return tuple(tuple((a + t * b) % modulus for a, b in zip(ra, rb))
                 for ra, rb in zip(a_rows, n_rows))


# ---------------------------------------------------------------------------
# rank


def _rank_gf2_packed(rows, ncols: int) -> int:
    """XOR-basis rank of packed GF(2) rows."""
    basis: list[int] = []
    for row in rows:
        x = 0
        for v in row:
            x = (x << 1) | v
        for b in basis:
            y = x ^ b
            if y < x:
                x = y
        if x:
            basis.append(x)
    return len(basis)


def _rank_modp(rows, p: int) -> int:
    """Rank over GF(p) by forward elimination."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = None
        for i in range(r, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        inv = pow(row_r[c], -1, p)
        for i in range(r + 1, nr):
            f = m[i][c]
            if f:
                g = f * inv % p
                row_i = m[i]
                for j in range(c + 1, nc):
                    row_i[j] = (row_i[j] - g * row_r[j]) % p
        r += 1
    return r


def rank_rows(field: FieldDesc, rows, ncols: int) -> int:
    """Low-level rank of raw row tuples; the hot path behind :func:`rank`."""
    if field.kind == "gf":
        if field.modulus == 2:
            return _rank_gf2_packed(rows, ncols)
        return _rank_modp(rows, field.modulus)
    return len(_rref_raw(field, rows, ncols)[1])


def rank(M: Matrix) -> int:
    """Dimension of the row space, by exact Gaussian elimination."""
    return rank_rows(M.field, M.rows, M.ncols)


# ---------------------------------------------------------------------------
# determinant


def _det_modp(rows, p: int) -> int:
    """Determinant over GF(p) of raw rows: the integer determinant of the
    representatives in [0, p), reduced mod p (reduction is a ring map)."""
    return _det_bareiss_int(rows) % p


def _det_bareiss_int(m) -> int:
    """Determinant of a square integer matrix given as rows; m is not modified.

    Sizes 2 to 4 have closed forms, 4 by the Laplace expansion along the
    first two rows (six products of complementary 2 x 2 minors).  Others run
    fraction-free (Bareiss) elimination on a copy; the empty matrix has
    determinant 1, the empty product.
    """
    n = len(m)
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2) - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1) + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0) + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    m = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = None
            for i in range(k + 1, n):
                if m[i][k]:
                    piv = i
                    break
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            fik = row_i[k]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - fik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1] if n else 1


def det(M: Matrix) -> Scalar:
    """Exact determinant; the empty 0x0 matrix has determinant 1."""
    if not M.is_square:
        raise ValueError(f"determinant requires a square matrix, got {M.nrows}x{M.ncols}")
    f = M.field
    if f.is_finite:
        return Scalar(f, _det_modp(M.rows, f.modulus))
    # Clear each row's denominators, run the integer kernel, and divide by the scale.
    scale = 1
    int_rows: list[list[int]] = []
    for row in M.rows:
        ints, mult = clear_denominators(row)
        scale *= mult
        int_rows.append(ints)
    return Scalar(f, Fraction(_det_bareiss_int(int_rows), scale))


# ---------------------------------------------------------------------------
# reduced row echelon form


def _rref_raw(field: FieldDesc, rows, ncols: int, pivot_limit: int | None = None):
    """RREF of raw rows; returns (list rows, pivot column list).

    Pivots are searched only in the first ``pivot_limit`` columns, but row
    operations apply to the full width (used for augmented eliminations).
    """
    m = [list(r) for r in rows]
    nr = len(m)
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    one = field.one
    for c in range(limit):
        if r == nr:
            break
        piv = None
        for i in range(r, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        if row_r[c] != one:
            inv = field.inv(row_r[c])
            for j in range(c, len(row_r)):
                row_r[j] = field.mul(inv, row_r[j])
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                row_i = m[i]
                for j in range(c, len(row_r)):
                    row_i[j] = field.sub(row_i[j], field.mul(f, row_r[j]))
        pivots.append(c)
        r += 1
    return m, pivots


# ---------------------------------------------------------------------------
# transforms


@cache
def canonical_N(field: FieldDesc, nrows: int, ncols: int, r: int) -> Matrix:
    """The rank-r block matrix [[I_r, 0], [0, 0]] of size nrows x ncols (cached: immutable)."""
    if not 0 <= r <= min(nrows, ncols):
        raise ValueError(f"rank {r} outside [0, min({nrows}, {ncols})]")
    z, o = field.zero, field.one
    return Matrix(field, nrows, ncols,
                  tuple(tuple(o if i == j and i < r else z for j in range(ncols))
                        for i in range(nrows)))


def _reduce_with_transform(field: FieldDesc, rows, ncols: int):
    """(T, R) as raw rows: T invertible with T @ rows = R in RREF, by reducing [rows | I]."""
    n = len(rows)
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(rows)]
    red, _ = _rref_raw(field, aug, ncols + n, pivot_limit=ncols)
    return tuple(tuple(row[ncols:]) for row in red), [row[:ncols] for row in red]


def to_rank_normal_form(M: Matrix) -> tuple[Matrix, Matrix]:
    """Invertible (P, Q) with P @ M @ Q equal to canonical_N(n, p, rank M).

    P reduces M to its RREF R.  The first r columns of R^T are independent
    and the rest are zero, so the RREF of R^T is canonical_N(p, n, r); the
    transform T that reaches it gives Q = T^T.
    """
    f = M.field
    n, p = M.nrows, M.ncols
    P, R = _reduce_with_transform(f, M.rows, p)
    T, _ = _reduce_with_transform(f, [[row[j] for row in R] for j in range(p)], n)
    return Matrix(f, n, n, P), Matrix(f, p, p, tuple(zip(*T)))


# ---------------------------------------------------------------------------
# randomized helpers (seeded by the caller)


def random_matrix(field: FieldDesc, nrows: int, ncols: int, rng: random.Random) -> Matrix:
    """Uniform over GF(p) entries; small random fractions over the rationals."""
    if field.kind == "gf":
        p = field.modulus
        return Matrix(field, nrows, ncols,
                      tuple(tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(nrows)))
    return Matrix(field, nrows, ncols,
                  tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ncols))
                        for _ in range(nrows)))


def random_invertible(field: FieldDesc, n: int, rng: random.Random) -> Matrix:
    while True:
        M = random_matrix(field, n, n, rng)
        if rank(M) == n:
            return M
