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
``minor_gcd``, which take packed integer determinants over both GF(p)
and Q instead.  ``poly_add``, ``poly_sub``, ``poly_mul``, ``poly_rem`` and
``poly_gcd`` are the K[t] arithmetic the Laplace oracles need: plain
functions on ``Poly`` values over the field's own operations, sharing
nothing with the integer routes under ``src/``.  ``classify_line_by_ranks``
classifies a GF(p) line by the rank at every t, where ``classify_line``
reads the roots of that polynomial.

``side_condition_block_walk`` decides the same side conditions on the
coset of lower-right blocks of a canonicalised coset, at any direction
rank; at r = n-1 the campaigns read it off one linear functional instead.
``side_condition_per_case`` is the campaigns' route as it ran before the
direction plan: the rank normal form and the dense corner weights
rebuilt for every case, and the block walk below r = n-1.

``constant_det_search_full_walk`` is ``constant_det_witness_search`` by
brute force: every member of the space's own order, with no transport of
N and no bitsliced lanes, is tested by the degree of ``det_pencil``.

``iter_rref_bases``, ``canonical_coset_bases`` and ``sample_rref`` write
out the Schubert cell rule slot by slot: the order and sample-stream
oracles for ``enumerate_subspaces``, ``enumerate_affine``,
``random_subspace`` and ``random_affine``, which take the cell's free
columns from one rule and fill whole rows.  ``free_columns_by_scan`` is
that rule column by column, against the suffix of the non-pivots that
``spaces._free_columns`` takes.

``write_text_per_entry`` writes the text format one ``field.format`` call
per entry, where ``matrices._write_text`` renders a row as one template.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import mul

from ranklines.fields import FieldDesc, Scalar
from ranklines.lines import EXHAUSTED_NO_WITNESS, WITNESS_FOUND, SearchOutcome
from ranklines.matrices import (
    Matrix,
    _det_modp,
    _rref_raw,
    canonical_N,
    check_shape,
    line_rows,
    rank,
    rank_rows,
    to_rank_normal_form,
)
from ranklines.pencils import (
    HAS_ROOT,
    PencilAnalysis,
    _classify_formal,
    det_pencil,
    minor_gcd,
)
from ranklines.polynomials import Poly
from ranklines.spaces import DEFAULT_ELEMENT_BUDGET, transport


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


def side_condition_block_walk(space, N: Matrix, r: int) -> bool:
    """Has some member M a singular lower-right (n-r) x (n-r) block of P @ M @ Q,
    with P @ N @ Q = canonical_N of rank r?  Walks the coset of those blocks."""
    f, n = N.field, N.nrows
    P, Q = to_rank_normal_form(N)
    blocks = transport(space, Matrix(f, n - r, n, P.rows[r:]),
                       Matrix(f, n, n - r, tuple(row[r:] for row in Q.rows)))
    return any(_det_modp(rows, f.modulus) == 0 for rows in blocks.elements(budget=None))


def side_condition_per_case(spec, space, N: Matrix, r: int) -> bool:
    """verify._side_condition_exists with no cached direction plan."""
    n, f = spec.n, spec.field
    P = Q = canonical_N(f, n, n, n)  # I_n
    if N != canonical_N(f, n, n, r):
        P, Q = to_rank_normal_form(N)
    pm = f.modulus
    if r == n - 1:
        w = [row[r] for row in Q.rows]
        weights = [a * b for a in P.rows[r] for b in w]  # on row-major vec(M)
        basis, base = space.basis, space.offset

        def corner(vec):
            return sum(map(mul, weights, vec)) % pm
        return base is None or any(map(corner, basis)) or not corner(base)
    blocks = transport(space, Matrix(f, n - r, n, P.rows[r:]),
                       Matrix(f, n, n - r, tuple(row[r:] for row in Q.rows)))
    return any(_det_modp(rows, pm) == 0 for rows in blocks.elements(budget=spec.element_budget))


def _check_square_pair(M: Matrix, N: Matrix) -> None:
    check_shape(N, M.field, M.nrows, M.ncols)
    if not M.is_square:
        raise ValueError("both matrices must be square of the same size")


def poly_add(a: Poly, b: Poly) -> Poly:
    f = a.field
    if len(a.coeffs) < len(b.coeffs):
        a, b = b, a
    out = list(a.coeffs)
    for i, c in enumerate(b.coeffs):
        out[i] = f.add(out[i], c)
    return Poly.from_coeffs(f, out)


def poly_sub(a: Poly, b: Poly) -> Poly:
    f = b.field
    return poly_add(a, Poly(f, tuple(f.neg(c) for c in b.coeffs)))


def poly_mul(a: Poly, b: Poly) -> Poly:
    f = a.field
    out = [f.zero] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return Poly.from_coeffs(f, out)


def poly_rem(a: Poly, b: Poly) -> Poly:
    """The remainder of a on long division by a nonzero b."""
    f, lb = a.field, len(b.coeffs)
    inv = f.inv(b.coeffs[-1])
    rem = list(a.coeffs)
    while len(rem) >= lb:  # cancel the leading term, then strip the zeros it leaves
        q, shift = f.mul(rem[-1], inv), len(rem) - lb
        for j, y in enumerate(b.coeffs):
            rem[shift + j] = f.sub(rem[shift + j], f.mul(q, y))
        rem = list(Poly.from_coeffs(f, rem).coeffs)
    return Poly(f, tuple(rem))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; zero iff a and b are both zero."""
    while not b.is_zero:
        a, b = b, poly_rem(a, b)
    if a.is_zero:
        return a
    f = a.field
    inv = f.inv(a.coeffs[-1])
    return Poly.from_coeffs(f, [f.mul(inv, c) for c in a.coeffs])


def _pencil_entries(A: Matrix, N: Matrix) -> list[list[Poly]]:
    """The entries a + t*b of A + tN as polynomials over K[t]."""
    f = A.field
    return [[Poly.from_coeffs(f, (a, b)) for a, b in zip(ra, rb)]
            for ra, rb in zip(A.rows, N.rows)]


def _det_cofactor(entries: list[list[Poly]], field: FieldDesc) -> Poly:
    """Determinant over K[t] by Laplace expansion along the first column."""
    n = len(entries)
    if n == 0:
        return Poly(field, (field.one,))
    if n == 1:
        return entries[0][0]
    if n == 2:
        (a, b), (c, d) = entries
        return poly_sub(poly_mul(a, d), poly_mul(b, c))
    total = Poly(field, ())
    for i in range(n):
        pivot = entries[i][0]
        if pivot.is_zero:
            continue
        sub = [row[1:] for k, row in enumerate(entries) if k != i]
        term = poly_mul(pivot, _det_cofactor(sub, field))
        total = poly_add(total, term) if i % 2 == 0 else poly_sub(total, term)
    return total


def minor_gcd_laplace(A: Matrix, N: Matrix) -> Poly:
    """Monic gcd of the maximal minors of A + tN, each expanded by cofactors over K[t]."""
    entries = _pencil_entries(A, N)
    g = Poly(A.field, ())
    for rows in combinations(entries, A.ncols):
        g = poly_gcd(g, _det_cofactor(list(rows), A.field))
    return g


def classify_line_by_ranks(A: Matrix, N: Matrix) -> PencilAnalysis:
    """classify_line over GF(p) by the rank of A + tN at every t in the field."""
    f, p = A.field, A.ncols
    poly = det_pencil(A, N) if A.is_square else minor_gcd(A, N)
    kind = "det" if A.is_square else "minor-gcd"
    witness = None
    failures = 0
    for t in f.elements():
        if rank_rows(f, line_rows(A.rows, N.rows, t, f.modulus), p) < p:
            failures += 1
            if witness is None:
                witness = Scalar(f, t)
    if witness is not None and not (failures == f.order and poly.is_zero):
        return PencilAnalysis(poly, kind, HAS_ROOT, witness)
    return PencilAnalysis(poly, kind, _classify_formal(poly))


def write_text_per_entry(field: FieldDesc, n: int, p: int, *sections) -> str:
    """The field and size lines, then for each (heading or None, rows)
    section its heading and one line per row, entry by entry."""
    fmt = field.format
    lines = [f"field {field}", f"size {n} {p}"]
    for heading, rows in sections:
        if heading is not None:
            lines.append(heading)
        lines.extend(" ".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def free_columns_by_scan(prof, m: int) -> list[list[int]]:
    """Free columns of each RREF row with pivots prof, each column tested:
    right of the row's pivot and off every pivot; last, the base's (pivot -1)."""
    pivset = set(prof)
    return [[j for j in range(pc + 1, m) if j not in pivset] for pc in tuple(prof) + (-1,)]


def iter_rref_bases(m: int, d: int, q: int):
    """Raw (rows, pivots) for every d-dim RREF basis of F_q^m, one free slot at a time.

    Pivot profiles run in lexicographic order; within a cell the free slots
    are row-major and the last one moves fastest.
    """
    for prof in combinations(range(m), d):
        pivset = set(prof)
        template = []
        free_slots = []
        for i, pc in enumerate(prof):
            row = [0] * m
            row[pc] = 1
            template.append(row)
            free_slots.extend((i, j) for j in range(pc + 1, m) if j not in pivset)
        for assignment in product(range(q), repeat=len(free_slots)):
            for (i, j), v in zip(free_slots, assignment):
                template[i][j] = v
            yield tuple(tuple(r) for r in template), prof


def canonical_coset_bases(pivots, m: int, q: int):
    """Every vector of F_q^m that is zero at the pivots, the last free slot fastest."""
    nonpiv = [j for j in range(m) if j not in set(pivots)]
    for assignment in product(range(q), repeat=len(nonpiv)):
        vec = [0] * m
        for j, v in zip(nonpiv, assignment):
            vec[j] = v
        yield tuple(vec)


def _free_slot_count(prof, m: int) -> int:
    """The free slots of an RREF basis with pivots prof, counted one by one."""
    pivset = set(prof)
    return sum(1 for pc in prof for j in range(pc + 1, m) if j not in pivset)


def sample_rref(m: int, codim: int, q: int, rng, affine: bool):
    """(rows, pivots, base vector or None) drawn as the samplers draw them.

    The profile is drawn with weight q^(its free slots), counted slot by
    slot; then one value per free slot, row-major, then (affine) one per
    non-pivot coordinate of the base, in ascending order.
    """
    d = m - codim
    profiles = list(combinations(range(m), d))
    weights = [q ** _free_slot_count(prof, m) for prof in profiles]
    pick = rng.randrange(sum(weights))
    for prof, w in zip(profiles, weights):
        if pick < w:
            break
        pick -= w
    rows = []
    for pc in prof:
        row = [0] * m
        row[pc] = 1
        for j in range(pc + 1, m):
            if j not in prof:
                row[j] = rng.randrange(q)
        rows.append(tuple(row))
    base = tuple(0 if j in prof else rng.randrange(q) for j in range(m)) if affine else None
    return tuple(rows), prof, base


def constant_det_search_full_walk(space, N: Matrix) -> SearchOutcome:
    """constant_det_witness_search by testing every member in order.

    A member is a witness when det_pencil(A, N) has degree 0, a nonzero
    constant.  Takes the square shape and a rank n-1 direction as given.
    """
    shape = space.shape
    f, n = shape.field, shape.n
    cases = 0
    for a_rows in space.elements(budget=DEFAULT_ELEMENT_BUDGET):
        cases += 1
        A = Matrix(f, n, n, a_rows)
        if det_pencil(A, N).degree == 0:
            return SearchOutcome(WITNESS_FOUND, (A, N), cases)
    return SearchOutcome(EXHAUSTED_NO_WITNESS, None, cases)


def witness_search_full_walk(space, N: Matrix) -> SearchOutcome:
    """The exhaustive witness_search by testing every member in order.

    A member is a witness when classify_line_by_ranks finds its line
    full-rank: the rank of A + tN at every t, with no block or transport.
    """
    shape = space.shape
    f, n, p = shape.field, shape.n, shape.p
    cases = 0
    for a_rows in space.elements(budget=DEFAULT_ELEMENT_BUDGET):
        cases += 1
        A = Matrix(f, n, p, a_rows)
        if classify_line_by_ranks(A, N).full_rank:
            return SearchOutcome(WITNESS_FOUND, (A, N), cases)
    return SearchOutcome(EXHAUSTED_NO_WITNESS, None, cases)
