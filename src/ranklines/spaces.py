"""Linear and affine subspaces of a matrix space Mat_{n,p}(K).

Subspaces are carried in canonical form: the basis of the linear part is
the reduced row-echelon matrix of vectorized members (row-major), so equal
subspaces compare equal, and an affine coset stores the unique
representative whose coordinates vanish at the basis pivot positions,
as the raw row-major vector ``offset`` (``base`` is its ``Matrix`` view).
Both kinds share one body, reading ``basis`` and ``offset`` (None for a
linear subspace); a coset's ``linear`` is a view of its linear part.

Enumeration over GF(p) walks pivot-column profiles (Schubert cells) in
lexicographic order.  ``_free_columns`` is the one cell rule: a cell's
bases are the product of per-row options (filled row tuples), and the
samplers draw one value per free column, slicing the same suffixes of the
non-pivot list.  This is duplicate-free by construction and its counts
are cross-checked against Gaussian binomials.

``elements()`` yields a coset's members as raw row tuples, the ``rows`` a
``Matrix`` would hold; ``Matrix(space.shape.field, n, p, rows)`` wraps
one.  The order is an odometer over basis coefficients, last digit
fastest.  Moving digit k resets digits k+1..d-1, so the step adds basis
rows k..d-1 once each; that sum (the carry) is built lazily, the first
time digit k moves, and only the matrix rows it touches are rebuilt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

from .fields import FieldDesc, RawValue
from .matrices import (Matrix, _read_counts, _read_header, _read_rows, _rref_raw, _write_text,
                       check_shape, mul_rows)

DEFAULT_ELEMENT_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError):
    """An element sweep would exceed the configured iteration budget."""


@dataclass(frozen=True, slots=True)
class MatrixSpaceShape:
    field: FieldDesc
    n: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.p < 0:
            raise ValueError("matrix dimensions must be non-negative")

    @property
    def ambient_dim(self) -> int:
        return self.n * self.p


def vectorize(M: Matrix) -> tuple[RawValue, ...]:
    """Row-major flattening of a matrix into an ambient coordinate vector."""
    return tuple(v for row in M.rows for v in row)


def unvectorize(shape: MatrixSpaceShape, vec) -> Matrix:
    n, p = shape.n, shape.p
    if len(vec) != n * p:
        raise ValueError(f"vector length {len(vec)} does not match {n}x{p}")
    return Matrix(shape.field, n, p, _split_rows(vec, n, p))


def _split_rows(vec, n: int, p: int):
    """The n rows of length p of a row-major vector, as raw row tuples."""
    return tuple(tuple(vec[i * p:(i + 1) * p]) for i in range(n))


@dataclass(frozen=True, slots=True)
class _Subspace:
    """The body of both subspace kinds: the RREF basis of the linear part and
    its pivots, read with each kind's ``offset`` (None: the zero base)."""

    shape: MatrixSpaceShape
    basis: tuple[tuple[RawValue, ...], ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.shape.ambient_dim - len(self.basis)

    def reduce(self, vec) -> tuple[RawValue, ...]:
        """Residue of vec after clearing its pivot coordinates.

        The residue is zero exactly when vec lies in the row space; for a
        general vec it is the canonical representative of vec's coset.
        """
        f = self.shape.field
        out = list(vec)
        for row, pc in zip(self.basis, self.pivots):
            c = out[pc]
            if c != f.zero:
                for j in range(pc, len(out)):
                    out[j] = f.sub(out[j], f.mul(c, row[j]))
        return tuple(out)

    def contains(self, M: Matrix) -> bool:
        check_shape(M, self.shape.field, self.shape.n, self.shape.p)
        res = self.reduce(vectorize(M))
        return res == (self.offset or (self.shape.field.zero,) * len(res))

    def elements(self, budget: int | None = DEFAULT_ELEMENT_BUDGET):
        """Every member as raw rows, base first, in odometer order (see _iter_coset).

        ``Matrix(space.shape.field, n, p, rows)`` wraps one; more than
        ``budget`` members (None: no cap) raises BudgetExceededError.
        """
        return _iter_coset(self.shape, self.basis, self.offset, budget)

    def to_text(self) -> str:
        shape = self.shape
        sections = [(f"dim {self.dim}", self.basis)]
        if self.offset is not None:
            sections.append(("base", _split_rows(self.offset, shape.n, shape.p)))
        return _write_text(shape.field, shape.n, shape.p, *sections)


@dataclass(frozen=True, slots=True)
class LinearMatrixSubspace(_Subspace):
    """A linear subspace, held as the RREF basis of its vectorized members."""

    offset = None  # a class constant, not a field


@dataclass(frozen=True, slots=True)
class AffineMatrixSubspace(_Subspace):
    """A coset base + V with the canonical (pivot-free-coordinate) base.

    The base is stored as ``offset``, its row-major raw vector, which is
    the form member iteration reads; ``base`` is its ``Matrix`` view and
    ``linear`` a view of V.  A coset is not a LinearMatrixSubspace.
    """

    offset: tuple[RawValue, ...]

    @property
    def base(self) -> Matrix:
        return unvectorize(self.shape, self.offset)

    @property
    def linear(self) -> LinearMatrixSubspace:
        return LinearMatrixSubspace(self.shape, self.basis, self.pivots)


def from_generators(shape: MatrixSpaceShape, mats) -> LinearMatrixSubspace:
    """The canonical subspace spanned by the given matrices."""
    rows = []
    for M in mats:
        check_shape(M, shape.field, shape.n, shape.p)
        rows.append(vectorize(M))
    return _span(shape, rows)


def _span(shape: MatrixSpaceShape, vecs) -> LinearMatrixSubspace:
    """The canonical subspace spanned by vectorized (row-major) members."""
    red, pivots = _rref_raw(shape.field, vecs, shape.ambient_dim)
    basis = tuple(tuple(red[i]) for i in range(len(pivots)))
    return LinearMatrixSubspace(shape, basis, tuple(pivots))


def affine_from_point(linear: LinearMatrixSubspace, point: Matrix) -> AffineMatrixSubspace:
    """The coset point + V, with the base canonicalized."""
    check_shape(point, linear.shape.field, linear.shape.n, linear.shape.p)
    return AffineMatrixSubspace(linear.shape, linear.basis, linear.pivots,
                                linear.reduce(vectorize(point)))


def transport(space, P: Matrix, Q: Matrix):
    """Image of a subspace under M -> P @ M @ Q, for P a x n and Q p x b.

    The image is a subspace (or coset) of a x b matrices, in canonical form.
    """
    basis, base = transport_rows(space, P, Q)
    shape = MatrixSpaceShape(space.shape.field, P.nrows, Q.ncols)
    lin = _span(shape, basis)
    return lin if base is None else AffineMatrixSubspace(shape, lin.basis, lin.pivots,
                                                          lin.reduce(base))


def transport_rows(space, P: Matrix, Q: Matrix):
    """(basis, base) of the image under M -> P @ M @ Q, not canonicalized.

    The base is None for a linear space.  Each basis row is mapped in
    place, in order, and the base is not reduced, so ``_iter_coset`` over
    the result yields P @ M @ Q for each member M, in the space's order.
    """
    f, n, p = space.shape.field, space.shape.n, space.shape.p
    check_shape(P, f, P.nrows, n)
    check_shape(Q, f, p, Q.ncols)
    # Row-major vec(P @ M @ Q) = vec(M) @ K, where K[k*p + l][i*b + j] = P[i][k] * Q[l][j].
    K = [[row[k] * v for row in P.rows for v in Q.rows[l]] for k in range(n) for l in range(p)]
    basis, base = space.basis, space.offset
    if base is None:
        return mul_rows(f, basis, K), None
    *basis, base = mul_rows(f, basis + (base,), K)
    return tuple(basis), base


# ---------------------------------------------------------------------------
# element iteration


def _coset_size(shape: MatrixSpaceShape, d: int, budget: int | None) -> int:
    """q^d, the size of a d-dimensional coset; raises as a walk of it would."""
    f = shape.field
    if not f.is_finite:
        raise ValueError("element iteration requires a finite field")
    total = f.order ** d
    if budget is not None and total > budget:
        raise BudgetExceededError(f"{total} elements exceed the budget of {budget}")
    return total


def _iter_coset(shape: MatrixSpaceShape, basis, base, budget: int | None):
    """Members of base (a raw vector; None: zero) + span(basis), as raw rows;
    checks run at the first next()."""
    d = len(basis)
    total = _coset_size(shape, d, budget)
    f = shape.field
    q = f.order
    n, p = shape.n, shape.p
    rows = list(_split_rows(base, n, p)) if base is not None else [(0,) * p] * n
    yield tuple(rows)
    if d == 0:
        return
    # Odometer, last digit fastest.  Stepping digit k wraps digits k+1..d-1
    # to 0 (q copies of a row cancel mod p), so it adds basis rows k..d-1
    # once each.  carries[k] holds that sum per matrix row; it is built the
    # first time digit k steps, as most searches stop long before the slow
    # digits move.
    pm = f.modulus
    top = q - 1
    digits = [0] * d
    carries: list = [None] * d
    for _ in range(total - 1):
        k = d - 1
        while digits[k] == top:
            digits[k] = 0
            k -= 1
        digits[k] += 1
        carry = carries[k]
        if carry is None:
            carry = carries[k] = _carry(basis[k:], n, p, pm)
        for i, add in carry:
            rows[i] = tuple([(a + b) % pm for a, b in zip(rows[i], add)])
        yield tuple(rows)


def _carry(basis_rows, n: int, p: int, pm: int):
    """Sum of basis_rows mod pm, as (matrix row, entries) for each nonzero row."""
    s = [sum(col) % pm for col in zip(*basis_rows)]
    return [(i, tuple(s[i * p:(i + 1) * p])) for i in range(n) if any(s[i * p:(i + 1) * p])]


def _odometer_digits(s: int, q: int, d: int) -> list[int]:
    """The d digits, first digit slowest, of member number s (from 0) of a walk."""
    digits = [0] * d
    for k in range(d - 1, -1, -1):
        s, digits[k] = divmod(s, q)
    return digits


def _member(shape: MatrixSpaceShape, basis, base, digits):
    """Raw rows of base (None: zero) + sum_k digits[k] * basis[k]."""
    pm, p = shape.field.modulus, shape.p
    vec = list(base) if base is not None else [0] * shape.ambient_dim
    for c, row in zip(digits, basis):
        if c:
            for j, v in enumerate(row):
                if v:
                    vec[j] = (vec[j] + c * v) % pm
    return _split_rows(vec, shape.n, p)


# ---------------------------------------------------------------------------
# enumeration


def count_subspaces(ambient_dim: int, codim: int, q: int) -> int:
    """Gaussian binomial: the number of codim-c subspaces of F_q^ambient."""
    if not 0 <= codim <= ambient_dim:
        return 0
    k = min(ambient_dim - codim, codim)
    num = den = 1
    for i in range(k):
        num *= q ** ambient_dim - q ** i
        den *= q ** k - q ** i
    return num // den


def _ambient(shape: MatrixSpaceShape, codim: int) -> int:
    """The ambient dimension m, once the field is finite and 0 <= codim <= m."""
    if not shape.field.is_finite:
        raise ValueError("subspace enumeration and sampling require a finite field")
    m = shape.ambient_dim
    if not 0 <= codim <= m:
        raise ValueError(f"codimension {codim} outside [0, {m}]")
    return m


def _free_columns(prof: tuple[int, ...], m: int) -> list[list[int]]:
    """Free columns of each RREF row with pivots prof: right of its pivot, off
    every pivot; last, those of the canonical coset base (every non-pivot).

    Row i's pivot has i pivots and so prof[i] - i non-pivots left of it; its
    free columns are the rest of the sorted non-pivots.
    """
    pivset = set(prof)
    nonpiv = [j for j in range(m) if j not in pivset]
    return [nonpiv[pc - i:] for i, pc in enumerate(prof)] + [nonpiv]


def _fill(m: int, pc: int, cols, values) -> tuple[int, ...]:
    """Row of length m: 1 at pc (none if pc < 0), values at cols, 0 elsewhere."""
    row = [0] * m
    if pc >= 0:
        row[pc] = 1
    for j, v in zip(cols, values):
        row[j] = v
    return tuple(row)


def _every_fill(m: int, pc: int, cols, q: int):
    """Every fill of one row over F_q, last column fastest, made as they are iterated."""
    return (_fill(m, pc, cols, vals) for vals in product(range(q), repeat=len(cols)))


def enumerate_subspaces(shape: MatrixSpaceShape, codim: int):
    """Single-pass generator of all codim-c subspaces of a finite shape.

    A cell's bases are product(*options), options[i] every fill of row i.
    The arguments are checked when it is called, not when iteration starts.
    product builds every row's fills before a cell's first basis (GF(2) 5x5
    codim 17: 2.9 s and 271 MiB peak RSS to the first subspace), yet it
    stays: it is about 3x faster per subspace than a lazy _iter_coset walk
    of each cell (0.86 vs 2.70 us on GF(3) 4x2 codim 2; Python 3.11, 2 vCPUs).
    """
    m, q = _ambient(shape, codim), shape.field.order
    return (LinearMatrixSubspace(shape, basis, prof)
            for prof in combinations(range(m), m - codim)
            for basis in product(*(_every_fill(m, pc, c, q)
                                   for pc, c in zip(prof, _free_columns(prof, m)))))


def enumerate_affine(shape: MatrixSpaceShape, codim: int):
    """All affine codim-c subspaces: q^codim canonical cosets per linear one.

    Each linear subspace's cosets come together, base zero first, and each
    base is made as its coset is yielded.  The arguments are checked when
    it is called, as in enumerate_subspaces.
    """
    lins = enumerate_subspaces(shape, codim)
    m, q = shape.ambient_dim, shape.field.order
    return (AffineMatrixSubspace(shape, lin.basis, lin.pivots, v)
            for lin in lins
            for v in _every_fill(m, -1, _free_columns(lin.pivots, m)[-1], q))


# ---------------------------------------------------------------------------
# seeded random sampling (uniform over subspaces of the given codimension)


def _below(bits, n: int) -> int:
    """A draw below n from bits = rng.getrandbits, by Random.randrange(n)'s
    rule: n.bit_length() bits, drawn again while they are n or more."""
    k = n.bit_length()
    x = bits(k)
    while x >= n:
        x = bits(k)
    return x


def _random_cell(shape: MatrixSpaceShape, codim: int, rng: random.Random):
    """The RREF rows and pivots of a random_subspace draw, and its non-pivot
    columns, the free columns of its canonical coset base."""
    m, q = _ambient(shape, codim), shape.field.order
    d = m - codim
    bits = rng.getrandbits
    left = count_subspaces(m, codim, q)
    x = _below(bits, left)
    prof = []
    nonpiv = []
    pc = 0
    # fills = q^(codim + i - pc), qd = q^(d - i) and qm = q^(m - pc), kept
    # as i and pc step.
    fills, qd, qm = q ** codim, q ** d, q ** m
    for i in range(d):
        # left = [m - pc, d - i]_q counts the profiles of rows i..d-1 that
        # pivot from column pc on.  Row i at pc owns a run of fills times
        # rest = [m - pc - 1, d - i - 1]_q, the later rows' count; the others
        # (q-Pascal) pivot from pc + 1 on.  As [N, k]_q equals
        # [N - 1, k - 1]_q (q^N - 1) / (q^k - 1), rest is left times
        # (qd - 1) / (qm - 1), and the floor division is exact.
        while x >= (run := fills * (rest := left * (qd - 1) // (qm - 1))):
            x -= run
            left -= run
            nonpiv.append(pc)
            pc += 1
            fills //= q
            qm //= q
        # Row i's fills split pc's run evenly among the later rows' profiles.
        x //= fills
        left = rest
        prof.append(pc)
        pc += 1
        qd //= q
        qm //= q
    nonpiv += range(pc, m)
    # Row i has i pivots and so prof[i] - i non-pivots left of its pivot;
    # its free columns are the rest of the non-pivots (_free_columns).
    zero = [0] * m
    rows = []
    for i, pc in enumerate(prof):
        row = zero.copy()
        row[pc] = 1
        for j in nonpiv[pc - i:]:
            row[j] = _below(bits, q)
        rows.append(tuple(row))
    return tuple(rows), tuple(prof), nonpiv


def random_subspace(shape: MatrixSpaceShape, codim: int, rng: random.Random) -> LinearMatrixSubspace:
    """Uniformly random codim-c subspace: a profile weighted by its cell's
    size, then one draw per free column, row by row.

    One draw below count_subspaces picks the profile: in lexicographic
    order, each profile owns a run of integers as long as its cell.  Row i
    of a cell has codim + i - prof[i] free columns (_free_columns), so the
    size factorises by row and the draw is unranked a pivot at a time:
    each step's count is the last one times a ratio of q-powers, so a draw
    holds a few integers and nothing is cached per (m, codim, q).  Every
    draw below n takes n.bit_length() bits of rng.getrandbits and draws
    again while they reach n, as rng.randrange(n) does, so the stream is
    the same as by randrange.
    """
    return LinearMatrixSubspace(shape, *_random_cell(shape, codim, rng)[:2])


def random_affine(shape: MatrixSpaceShape, codim: int, rng: random.Random) -> AffineMatrixSubspace:
    """A random_subspace draw, then one draw per free column of the canonical base."""
    basis, pivots, nonpiv = _random_cell(shape, codim, rng)
    q, bits = shape.field.order, rng.getrandbits
    vec = [0] * shape.ambient_dim
    for j in nonpiv:
        vec[j] = _below(bits, q)
    return AffineMatrixSubspace(shape, basis, pivots, tuple(vec))


# ---------------------------------------------------------------------------
# text format


def parse_subspace_text(text: str):
    """Parse the subspace text format; returns a linear or affine subspace.

    Layout: the matrix header (field/size), a ``dim d`` line, d vectorized
    basis rows, and optionally a ``base`` line followed by an n x p block.
    """
    field, n, p, body, raw = _read_header(text)
    if not body or body[0].split()[0] != "dim":
        raise ValueError("expected a 'dim <d>' line after the size line")
    (d,) = _read_counts(body[0], 1, "one non-negative integer")
    if d > n * p:  # refused before any row is read
        raise ValueError(f"dim {d} exceeds the ambient dimension n*p = {n * p}")
    shape = MatrixSpaceShape(field, n, p)
    lin = _span(shape, _read_rows(field, body[1:d + 1], d, shape.ambient_dim, "basis rows", raw))
    if lin.dim != d:
        raise ValueError(f"basis rows span dimension {lin.dim}, not the declared {d}")
    rest = body[d + 1:]
    if not rest:
        return lin
    if rest[0] != "base":
        raise ValueError(f"unexpected line {rest[0]!r} after basis rows")
    base = _read_rows(field, rest[1:], n, p, "base rows", raw)
    return affine_from_point(lin, Matrix(field, n, p, base))
