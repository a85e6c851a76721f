"""Linear and affine matrix subspaces: canonical bases, enumeration, sampling."""

from __future__ import annotations

import hashlib
import random
import re
import time
import tracemalloc
from itertools import combinations, islice

import pytest

from ranklines import spaces
from ranklines.fields import GF, RATIONALS
from ranklines.matrices import Matrix, _write_text, random_invertible, random_matrix, rank
from ranklines.spaces import (
    DEFAULT_ELEMENT_BUDGET,
    AffineMatrixSubspace,
    BudgetExceededError,
    LinearMatrixSubspace,
    MatrixSpaceShape,
    affine_from_point,
    count_subspaces,
    enumerate_affine,
    enumerate_subspaces,
    from_generators,
    parse_subspace_text,
    random_affine,
    random_subspace,
    transport,
    unvectorize,
    vectorize,
)

from oracles import (
    canonical_coset_bases,
    free_columns_by_scan,
    iter_rref_bases,
    sample_rref,
    write_text_per_entry,
)

F2 = GF(2)
F3 = GF(3)


def _shape(field, n, p):
    return MatrixSpaceShape(field, n, p)


def _members(space):
    """The space's members as Matrix objects; elements() yields raw rows."""
    shape = space.shape
    return [Matrix(shape.field, shape.n, shape.p, rows) for rows in space.elements()]


def _basis_matrices(space):
    return [unvectorize(space.shape, row) for row in space.basis]


def test_shape_validation_and_ambient_dim():
    s = _shape(F2, 3, 2)
    assert s.ambient_dim == 6
    with pytest.raises(ValueError):
        MatrixSpaceShape(F2, -1, 2)
    with pytest.raises(ValueError):
        MatrixSpaceShape(F2, 2, -3)


def test_vectorize_is_row_major():
    M = Matrix.from_rows(F3, [[1, 2], [0, 1]])
    assert vectorize(M) == (1, 2, 0, 1)
    assert unvectorize(_shape(F3, 2, 2), (1, 2, 0, 1)) == M


def test_from_generators_canonicalizes():
    shape = _shape(F3, 2, 2)
    a = Matrix.from_rows(F3, [[1, 1], [0, 0]])
    b = Matrix.from_rows(F3, [[0, 0], [1, 1]])
    s1 = from_generators(shape, [a, b])
    s2 = from_generators(shape, [b, a + b, a.scale(2)])
    assert s1 == s2
    assert s1.dim == 2
    assert s1.codim == 2
    assert s1.pivots == (0, 2)


def test_from_generators_under_random_change_of_generators():
    rng = random.Random(3)
    shape = _shape(F3, 2, 3)
    for _ in range(20):
        gens = [random_matrix(F3, 2, 3, rng) for _ in range(3)]
        s = from_generators(shape, gens)
        # rebuild from random invertible combinations of the basis
        mats = _basis_matrices(s)
        T = random_invertible(F3, len(mats), rng)
        mixed = []
        for i in range(len(mats)):
            acc = Matrix.zeros(F3, 2, 3)
            for j, m in enumerate(mats):
                acc = acc + m.scale(T.rows[i][j])
            mixed.append(acc)
        assert from_generators(shape, mixed) == s


def test_zero_space_and_full_space():
    shape = _shape(F2, 2, 2)
    zero = from_generators(shape, [])
    assert zero.dim == 0 and zero.codim == 4
    full = from_generators(shape, [Matrix.unit(F2, 2, 2, i, j)
                                   for i in range(2) for j in range(2)])
    assert full.dim == 4 and full.codim == 0


def test_membership_linear():
    shape = _shape(F2, 3, 2)
    s = from_generators(shape, [Matrix.unit(F2, 3, 2, 0, 0),
                                Matrix.unit(F2, 3, 2, 1, 1)])
    inside = Matrix.from_rows(F2, [[1, 0], [0, 1], [0, 0]])
    outside = Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 0]])
    assert s.contains(inside)
    assert not s.contains(outside)
    assert s.contains(Matrix.zeros(F2, 3, 2))
    with pytest.raises(ValueError):
        s.contains(Matrix.zeros(F2, 2, 2))


def test_affine_membership_and_canonical_base():
    shape = _shape(F2, 2, 2)
    direction = from_generators(shape, [Matrix.unit(F2, 2, 2, 0, 0)])
    point = Matrix.from_rows(F2, [[1, 1], [0, 0]])
    aff = affine_from_point(direction, point)
    assert aff.contains(point)
    assert aff.contains(point + Matrix.unit(F2, 2, 2, 0, 0))
    assert not aff.contains(Matrix.zeros(F2, 2, 2))
    # canonical base zeroes the pivot coordinates of the direction space
    assert aff.base.rows[0][0] == 0


def test_affine_membership_translation_consistency():
    rng = random.Random(5)
    shape = _shape(F3, 2, 2)
    for _ in range(15):
        aff = random_affine(shape, 2, rng)
        M = random_matrix(F3, 2, 2, rng)
        d = next(iter(_basis_matrices(aff.linear)), None)
        assert aff.contains(aff.base)
        if d is not None:
            assert aff.contains(aff.base + d)
        # membership is invariant under adding any direction vector
        if aff.contains(M) and d is not None:
            assert aff.contains(M + d)


def test_affine_base_canonicalization_is_representative_independent():
    shape = _shape(F2, 3, 3)
    rng = random.Random(7)
    direction = random_subspace(shape, 2, rng)
    p1 = random_matrix(F2, 3, 3, rng)
    a1 = affine_from_point(direction, p1)
    for m in _basis_matrices(direction):
        a2 = affine_from_point(direction, p1 + m)
        assert a2.base == a1.base


# ----------------------------------------------------------------- enumeration


def test_count_subspaces_small_values():
    assert count_subspaces(1, 0, 2) == 1
    assert count_subspaces(4, 4, 2) == 1
    assert count_subspaces(2, 1, 2) == 3
    assert count_subspaces(6, 1, 2) == 63
    assert count_subspaces(6, 2, 2) == 651
    assert count_subspaces(4, 2, 3) == 130
    assert count_subspaces(2, 3, 2) == 0  # no codim beyond the ambient dim


def test_enumeration_matches_count_and_is_distinct():
    for q, field in ((2, F2), (3, F3)):
        for (n, p, codim) in [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 1)]:
            shape = _shape(field, n, p)
            seen = set()
            for s in enumerate_subspaces(shape, codim):
                assert isinstance(s, LinearMatrixSubspace)
                assert s.codim == codim
                seen.add(s.basis)
            assert len(seen) == count_subspaces(n * p, codim, q)


def test_enumeration_rejects_bad_codim_and_infinite_field_when_called():
    # The checks run at the call, before the caller starts iterating.
    with pytest.raises(ValueError):
        enumerate_subspaces(_shape(F2, 2, 2), 5)
    with pytest.raises(ValueError):
        enumerate_subspaces(_shape(F2, 2, 2), -1)
    with pytest.raises(ValueError):
        enumerate_subspaces(_shape(RATIONALS, 2, 2), 1)
    with pytest.raises(ValueError):
        enumerate_affine(_shape(F2, 2, 2), 5)
    with pytest.raises(ValueError):
        enumerate_affine(_shape(RATIONALS, 2, 2), 1)


def test_enumeration_is_deterministic():
    shape = _shape(F2, 2, 2)
    first = [s.basis for s in enumerate_subspaces(shape, 2)]
    second = [s.basis for s in enumerate_subspaces(shape, 2)]
    assert first == second
    assert len(first) == 35


ORDER_SHAPES = [(6, 1), (3, 2), (2, 3), (4, 2), (3, 3)]


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_enumeration_matches_the_slot_by_slot_oracle_basis_by_basis(field):
    # Per-row products keep the order of the slot-by-slot odometer, on which
    # every case_order_hash pin depends.
    q = field.order
    cases = [(n, p, codim) for n, p in ORDER_SHAPES for codim in ((0, 1, 2) if q == 2 else (0, 1))]
    if q == 3:
        cases.append((3, 2, 2))  # GF(3)^6 at codim 2
    for n, p, codim in cases:
        m = n * p
        got = ((s.basis, s.pivots) for s in enumerate_subspaces(_shape(field, n, p), codim))
        assert list(got) == list(iter_rref_bases(m, m - codim, q)), (n, p, codim)


@pytest.mark.parametrize("field, n, p, codims", [(F3, 3, 3, (1,)), (F2, 4, 2, (0, 1, 2))],
                         ids=["gf3-3x3", "gf2-4x2"])
def test_affine_enumeration_matches_the_oracle_coset_by_coset(field, n, p, codims):
    m, q = n * p, field.order
    for codim in codims:
        got = [(a.linear.basis, a.linear.pivots, vectorize(a.base))
               for a in enumerate_affine(_shape(field, n, p), codim)]
        want = [(rows, prof, base) for rows, prof in iter_rref_bases(m, m - codim, q)
                for base in canonical_coset_bases(prof, m, q)]
        assert got == want, codim
    assert len(got) == (29_523 if q == 3 else 43_180)


@pytest.mark.parametrize("field, n, p, draws",
                         [(F2, 3, 3, 80), (F3, 3, 3, 80), (GF(5), 3, 3, 80), (GF(7), 3, 3, 80),
                          (F2, 4, 2, 40), (F3, 4, 2, 40), (GF(65521), 3, 3, 16)],
                         ids=["gf 2", "gf 3", "gf 5", "gf 7", "gf 2-4x2", "gf 3-4x2", "gf 65521"])
def test_samplers_keep_the_oracle_stream_draw_by_draw(field, n, p, draws):
    # The samplers draw by rng.getrandbits and the oracle by rng.randrange:
    # the draws agree, and so does the rng's state after them, at every codim.
    shape, m = _shape(field, n, p), n * p
    for codim in range(m + 1):
        seed = f"{field}:{codim}" if (n, p) == (3, 3) else f"{field}:{n}x{p}:{codim}"
        rng, ref = random.Random(seed), random.Random(seed)
        for i in range(draws):
            affine = i % 2 == 1
            draw = random_affine if affine else random_subspace
            space = draw(shape, codim, rng)
            lin = space.linear if affine else space
            base = vectorize(space.base) if affine else None
            assert (lin.basis, lin.pivots, base) == sample_rref(m, codim, field.order, ref, affine)
        assert rng.getstate() == ref.getstate(), codim


def test_samplers_keep_the_oracle_stream_where_profiles_are_many():
    # GF(2) 5x5 has C(25, codim) pivot profiles; the draw is unranked one
    # pivot at a time rather than looked up in the list of all of them.
    shape = _shape(F2, 5, 5)
    for codim, draws in ((2, 12), (3, 6), (4, 3)):
        rng, ref = random.Random(f"many:{codim}"), random.Random(f"many:{codim}")
        for i in range(draws):
            affine = i % 2 == 1
            space = (random_affine if affine else random_subspace)(shape, codim, rng)
            lin = space.linear if affine else space
            base = vectorize(space.base) if affine else None
            assert (lin.basis, lin.pivots, base) == sample_rref(25, codim, 2, ref, affine)
        assert rng.random() == ref.random()


def test_a_large_draw_keeps_no_table_of_counts():
    # GF(2) 20x20: a draw holds a few integers; a table of every suffix count
    # of the profile would take over 100 MiB at codim 0, and one per profile
    # or per power of q would grow with the draw too.
    shape = _shape(F2, 20, 20)
    for draw, codim in ((random_subspace, 0), (random_subspace, 200), (random_affine, 200)):
        tracemalloc.start()
        try:
            space = draw(shape, codim, random.Random("large"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (draw.__name__, codim, peak)
        assert space.codim == codim
        if codim == 0:
            assert space.pivots == tuple(range(400))


def test_free_columns_are_the_suffix_of_the_non_pivots():
    # Every pivot profile at m <= 9 (1,023 of them), then seeded ones at
    # m = 25 and 36, against the column-by-column rule.
    cells = [(m, prof) for m in range(10) for d in range(m + 1)
             for prof in combinations(range(m), d)]
    assert len(cells) == 1023
    for m, prof in cells:
        assert spaces._free_columns(prof, m) == free_columns_by_scan(prof, m), (m, prof)
    rng = random.Random("free-columns")
    for m in (25, 36):
        for _ in range(300):
            prof = tuple(sorted(rng.sample(range(m), rng.randint(0, m))))
            assert spaces._free_columns(prof, m) == free_columns_by_scan(prof, m), prof


def test_samplers_reject_negative_codim_as_enumeration_does():
    shape = _shape(F3, 3, 3)
    for draw in (random_subspace, random_affine):
        with pytest.raises(ValueError, match=r"outside \[0, 9\]"):
            draw(shape, -1, random.Random(0))
    with pytest.raises(ValueError, match=r"outside \[0, 9\]"):
        enumerate_subspaces(shape, -1)


def test_enumeration_is_lazy():
    # 2^124-odd subspaces: only a lazy enumeration returns the first one.
    shape = _shape(F2, 8, 8)
    first = next(enumerate_subspaces(shape, 2))
    assert first.pivots == tuple(range(62)) and first.basis[0] == (1,) + (0,) * 63
    assert next(enumerate_affine(shape, 2)).linear == first


def test_affine_enumeration_makes_a_cells_bases_as_it_yields_them(monkeypatch):
    # GF(2) 4x4 at codim 12 has 4,096 coset bases per cell: the first coset
    # comes after one base is made, and the cell's next subspace repeats them.
    made = []
    real = spaces._fill

    def fill(m, pc, cols, values):
        row = real(m, pc, cols, values)
        if pc < 0:  # a coset base
            made.append(row)
        return row
    monkeypatch.setattr(spaces, "_fill", fill)
    cosets = enumerate_affine(_shape(F2, 4, 4), 12)
    first = next(cosets)
    assert len(made) == 1 and first.base == Matrix.zeros(F2, 4, 4)
    rest = list(islice(cosets, 2 * 4096 - 1))
    assert rest[4095].linear != first.linear
    assert [a.base for a in rest[4095:]] == [first.base] + [a.base for a in rest[:4095]]


def test_a_cosets_base_view_is_its_first_member():
    # Every route that makes a coset stores its base as a raw vector;
    # base is the Matrix view of it, the first member elements() yields.
    rng = random.Random(23)
    shape = _shape(F3, 2, 2)
    cosets = list(islice(enumerate_affine(shape, 1), 0, None, 7))
    cosets += [random_affine(shape, codim, rng) for codim in range(5) for _ in range(4)]
    cosets += [affine_from_point(random_subspace(shape, codim, rng), random_matrix(F3, 2, 2, rng))
               for codim in range(5)]
    cosets += [transport(aff, random_matrix(F3, 3, 2, rng), random_matrix(F3, 2, 2, rng))
               for aff in cosets[-6:]]
    for aff in cosets:
        n, p = aff.shape.n, aff.shape.p
        first = next(iter(aff.elements()))
        assert aff.base == Matrix(F3, n, p, first), aff
        assert aff.contains(aff.base)


def test_affine_enumeration_counts_cosets():
    shape = _shape(F2, 2, 2)
    affs = list(enumerate_affine(shape, 1))
    # 15 hyperplane directions, 2 cosets each
    assert len(affs) == 30
    assert all(isinstance(a, AffineMatrixSubspace) for a in affs)
    assert len({(a.linear.basis, a.base.rows) for a in affs}) == 30
    # the linear coset (base 0) comes first for each direction
    assert affs[0].base == Matrix.zeros(F2, 2, 2)


def test_affine_enumeration_codim_zero_is_the_full_space():
    shape = _shape(F3, 2, 1)
    affs = list(enumerate_affine(shape, 0))
    assert len(affs) == 1
    assert affs[0].dim == 2 and affs[0].codim == 0


# -------------------------------------------------------------------- elements


def test_elements_of_linear_space():
    shape = _shape(F3, 2, 1)
    s = from_generators(shape, [Matrix.from_rows(F3, [[1], [0]])])
    mats = _members(s)
    assert len(mats) == 3
    assert mats[0] == Matrix.zeros(F3, 2, 1)  # zero element first
    assert len(set(mats)) == 3
    assert all(s.contains(m) for m in mats)


def test_elements_cover_whole_space_in_stable_order():
    shape = _shape(F2, 2, 2)
    s = from_generators(shape, [Matrix.unit(F2, 2, 2, i, j)
                                for i in range(2) for j in range(2)])
    run1 = _members(s)
    run2 = _members(s)
    assert run1 == run2
    assert len(run1) == 16
    assert len(set(run1)) == 16


def test_elements_of_affine_space_stay_in_the_coset():
    shape = _shape(F3, 2, 2)
    rng = random.Random(11)
    aff = random_affine(shape, 2, rng)
    mats = _members(aff)
    assert len(mats) == 9
    assert mats[0] == aff.base
    assert all(aff.contains(m) for m in mats)
    assert len(set(mats)) == 9


def test_elements_zero_dimensional():
    shape = _shape(F2, 2, 2)
    zero = from_generators(shape, [])
    assert _members(zero) == [Matrix.zeros(F2, 2, 2)]
    point = affine_from_point(zero, Matrix.identity(F2, 2))
    assert _members(point) == [Matrix.identity(F2, 2)]


def test_elements_budget_enforcement():
    shape = _shape(F2, 5, 5)
    full = from_generators(shape, [Matrix.unit(F2, 5, 5, i, j)
                                   for i in range(5) for j in range(5)])
    assert full.dim == 25  # 2^25 exceeds the default budget
    gen = full.elements()
    with pytest.raises(BudgetExceededError):
        next(gen)
    capped = full.elements(budget=None)
    assert Matrix(F2, 5, 5, next(capped)) == Matrix.zeros(F2, 5, 5)
    assert DEFAULT_ELEMENT_BUDGET == 1 << 24


def test_elements_rejects_infinite_fields():
    shape = _shape(RATIONALS, 2, 2)
    s = from_generators(shape, [Matrix.unit(RATIONALS, 2, 2, 0, 0)])
    with pytest.raises(ValueError):
        next(s.elements())


def _iter_coset_reference(shape, basis, base_rows):
    """Slow oracle for elements(): an odometer over coefficient digits,
    last digit fastest, that adds one basis row per digit it moves
    (a wrapping digit adds its row a q-th time, which cancels mod p)."""
    n, p = shape.n, shape.p
    m = n * p
    pm = shape.field.modulus
    q = shape.field.order
    vec = [v for row in base_rows for v in row] if base_rows is not None else [0] * m
    yield tuple(tuple(vec[i * p:(i + 1) * p]) for i in range(n))
    d = len(basis)
    digits = [0] * d
    for _ in range(q ** d - 1):
        k = d - 1
        while True:
            row = basis[k]
            for j in range(m):
                if row[j]:
                    vec[j] = (vec[j] + row[j]) % pm
            digits[k] += 1
            if digits[k] < q:
                break
            digits[k] = 0
            k -= 1
        yield tuple(tuple(vec[i * p:(i + 1) * p]) for i in range(n))


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7)], ids=str)
def test_elements_match_the_reference_odometer_member_by_member(field):
    rng = random.Random(f"coset-oracle:{field}")
    q = field.order
    checked = 0
    for n, p in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (3, 3)):
        shape = _shape(field, n, p)
        m = n * p
        for codim in range(m + 1):
            dim = m - codim
            if q ** dim > 20_000:
                continue
            for _ in range(2):
                lin = random_subspace(shape, codim, rng)
                aff = random_affine(shape, codim, rng)
                for space, basis, base in ((lin, lin.basis, None),
                                           (aff, aff.linear.basis, aff.base.rows)):
                    got = list(space.elements(budget=q ** dim))
                    assert got == list(_iter_coset_reference(shape, basis, base)), \
                        (shape, codim, space)
                    assert len(got) == q ** dim
                    short = space.elements(budget=q ** dim - 1)
                    with pytest.raises(BudgetExceededError):
                        next(short)
                    checked += 1
    assert checked >= 100


# ------------------------------------------------------------------- transport


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)], ids=str)
def test_elements_come_in_the_lexicographic_order_of_row_major_vectors(field):
    # A canonical coset's odometer order is the lexicographic order of its
    # members' row-major vectors: two members first differ at the pivot of
    # the first digit they differ in.  The searches' member tables rest on
    # this order.
    rng = random.Random(f"lex-order:{field}")
    max_dim = {2: 8, 3: 5, 5: 3}[field.order]
    for n, p in ((1, 1), (2, 2), (3, 3), (3, 2), (4, 4)):
        shape = _shape(field, n, p)
        m = n * p
        for k in range(12):
            codim = m - rng.randint(0, min(m, max_dim))
            space = (random_affine(shape, codim, rng) if k % 2 else
                     random_subspace(shape, codim, rng))
            vectors = [tuple(v for row in rows for v in row) for rows in space.elements()]
            assert len(vectors) == field.order ** space.dim
            assert all(a < b for a, b in zip(vectors, vectors[1:])), space


def test_transport_preserves_dim_and_membership():
    rng = random.Random(13)
    shape = _shape(F3, 3, 2)
    s = random_subspace(shape, 2, rng)
    P = random_invertible(F3, 3, rng)
    Q = random_invertible(F3, 2, rng)
    s2 = transport(s, P, Q)
    assert s2.dim == s.dim
    for m in _basis_matrices(s):
        assert s2.contains(P @ m @ Q)


def test_transport_affine():
    rng = random.Random(17)
    shape = _shape(F2, 3, 3)
    aff = random_affine(shape, 2, rng)
    P = random_invertible(F2, 3, rng)
    Q = random_invertible(F2, 3, rng)
    aff2 = transport(aff, P, Q)
    assert aff2.dim == aff.dim
    assert aff2.contains(P @ aff.base @ Q)
    for m in _members(aff)[:8]:
        assert aff2.contains(P @ m @ Q)


# -------------------------------------------------------------------- sampling


def test_random_subspace_has_requested_codim_and_is_deterministic():
    shape = _shape(F2, 3, 3)
    for codim in (0, 1, 3, 9):
        s = random_subspace(shape, codim, random.Random(100 + codim))
        assert s.codim == codim
        again = random_subspace(shape, codim, random.Random(100 + codim))
        assert s == again


def test_random_affine_determinism():
    shape = _shape(F3, 2, 2)
    a = random_affine(shape, 2, random.Random(5))
    b = random_affine(shape, 2, random.Random(5))
    assert a == b
    assert a.codim == 2


def test_random_subspace_rejects_bad_codim():
    shape = _shape(F2, 2, 2)
    with pytest.raises(ValueError):
        random_subspace(shape, 5, random.Random(0))
    with pytest.raises(ValueError):
        random_subspace(_shape(RATIONALS, 2, 2), 1, random.Random(0))


def test_random_subspace_hits_multiple_pivot_profiles():
    # Weighted sampling should not get stuck on a single RREF profile.
    shape = _shape(F2, 2, 2)
    rng = random.Random(19)
    profiles = {random_subspace(shape, 2, rng).pivots for _ in range(200)}
    assert len(profiles) > 1


# ---------------------------------------------------------------------- text


def test_linear_space_text_round_trip():
    shape = _shape(F3, 2, 2)
    s = from_generators(shape, [Matrix.from_rows(F3, [[1, 2], [0, 1]]),
                                Matrix.from_rows(F3, [[0, 1], [1, 0]])])
    text = s.to_text()
    assert "dim 2" in text
    back = parse_subspace_text(text)
    assert back == s


def test_affine_space_text_round_trip():
    shape = _shape(F2, 3, 2)
    rng = random.Random(23)
    aff = random_affine(shape, 2, rng)
    back = parse_subspace_text(aff.to_text())
    assert back == aff
    assert "base" in aff.to_text()


TEXT_FIELDS = [F2, F3, GF(5), GF(65521), RATIONALS]
TEXT_SHAPES = [(0, 0), (0, 2), (2, 0), (3, 3), (4, 2)]


def _seeded_texts(field):
    """(text, the per-entry oracle's text) for a seeded matrix and for
    linear and affine spaces of dim 0, 2 (at most) and full, per shape."""
    rng = random.Random(f"text:{field}")
    for n, p in TEXT_SHAPES:
        shape = _shape(field, n, p)
        M = random_matrix(field, n, p, rng)
        yield M.to_text(), write_text_per_entry(field, n, p, (None, M.rows))
        units = [Matrix.unit(field, n, p, i, j) for i in range(n) for j in range(p)]
        for gens in ([], [random_matrix(field, n, p, rng) for _ in range(2)], units):
            lin = from_generators(shape, gens)
            aff = affine_from_point(lin, random_matrix(field, n, p, rng))
            dim = (f"dim {lin.dim}", lin.basis)
            yield lin.to_text(), write_text_per_entry(field, n, p, dim)
            yield aff.to_text(), write_text_per_entry(field, n, p, dim, ("base", aff.base.rows))


@pytest.mark.parametrize("field", TEXT_FIELDS, ids=str)
def test_text_writer_matches_the_per_entry_oracle(field):
    # One template per row writes the bytes of one format call per entry,
    # negative and fractional rationals included: the case hash reads them.
    texts = list(_seeded_texts(field))
    assert len(texts) == 7 * len(TEXT_SHAPES)
    for got, want in texts:
        assert got == want
    if field == RATIONALS:
        body = "".join(got for got, _ in texts)
        assert "-" in body and "/" in body
    rows = ((1, 0, 2), (0, 1, 1))
    assert _write_text(field, 2, 3, (None, rows), ("base", rows[:1])) == \
        write_text_per_entry(field, 2, 3, (None, rows), ("base", rows[:1]))


def test_text_writer_pins_the_seeded_texts():
    # sha256 over every seeded text, taken with the per-entry writer.
    digest = hashlib.sha256()
    for field in TEXT_FIELDS:
        for got, _ in _seeded_texts(field):
            digest.update(got.encode())
    assert digest.hexdigest() == "8dd2431c665e2af9fa772dc1fff8b9d8ac24a2a462188fe3ab0952ac803f9fa6"


@pytest.mark.parametrize("field", [F2, F3, RATIONALS], ids=str)
def test_space_text_round_trip_with_no_columns(field):
    # The base of an n x 0 coset writes n blank rows, which are dropped on
    # reading: at width 0 there are no base lines to read.
    for n in (1, 2, 3):
        shape = _shape(field, n, 0)
        lin = from_generators(shape, [])
        aff = affine_from_point(lin, Matrix.zeros(field, n, 0))
        assert parse_subspace_text(lin.to_text()) == lin
        assert parse_subspace_text(aff.to_text()) == aff
    with pytest.raises(ValueError, match="expected no lines for 2 empty base rows, found 1"):
        parse_subspace_text(f"field {field}\nsize 2 0\ndim 0\nbase\n0\n")


def test_parse_zero_subspace_of_a_huge_shape_is_fast():
    # The RREF stops once no rows are left, so dim 0 costs nothing per column.
    start = time.perf_counter()
    space = parse_subspace_text("field gf 2\nsize 100000 100000\ndim 0\n")
    assert time.perf_counter() - start < 0.5
    assert space.dim == 0 and space.codim == 10**10


def test_parse_refuses_a_dim_beyond_the_ambient_dimension_before_reading_rows():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"dim 1000000000 exceeds the ambient dimension n\*p = 0"):
        parse_subspace_text("field gf 2\nsize 2 0\ndim 1000000000\n")
    assert time.perf_counter() - start < 0.1


def test_parse_subspace_rejects_garbage():
    with pytest.raises(ValueError):
        parse_subspace_text("field gf 2\nsize 2 2\ndim 1\n")
    with pytest.raises(ValueError):
        parse_subspace_text("field gf 2\nsize 2 2\ndim 1\n1 0 0 0\n1 1\n")
    with pytest.raises(ValueError):
        parse_subspace_text("field gf 2\nsize 3 -1\ndim 0\n")
    with pytest.raises(ValueError):
        parse_subspace_text("field gf 2\nsize 1 1\ndim 1 2\n1\n")


@pytest.mark.parametrize("call, message", [
    (lambda: parse_subspace_text("field gf 2\nsize 1 1\n"),
     "expected a 'dim <d>' line after the size line"),
    (lambda: parse_subspace_text("field gf 2\nsize 1 1\nbase\n1\n"),
     "expected a 'dim <d>' line after the size line"),
    (lambda: parse_subspace_text("field gf 2\nsize 1 2\ndim 2\n1 1\n1 1\n"),
     "basis rows span dimension 1, not the declared 2"),
    (lambda: unvectorize(_shape(F2, 2, 2), (0, 1, 0)), "vector length 3 does not match 2x2"),
], ids=["no-dim", "base-before-dim", "dependent-rows", "unvectorize-length"])
def test_space_texts_and_vectors_refuse_a_wrong_layout(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("value", ["-1", "+1", "1x", ""], ids=repr)
def test_dim_line_follows_the_size_line_rule(value):
    # One rule and one message for both header counts: a non-negative decimal.
    with pytest.raises(ValueError, match="bad dim line .*: expected one non-negative integer"):
        parse_subspace_text(f"field gf 2\nsize 1 1\ndim {value}\n1\n")
    with pytest.raises(ValueError, match="bad size line .*: expected two non-negative integers"):
        parse_subspace_text(f"field gf 2\nsize 1 {value}\ndim 1\n1\n")


def test_rational_space_text_round_trip():
    shape = _shape(RATIONALS, 2, 2)
    s = from_generators(shape, [Matrix.from_rows(RATIONALS, [[1, 0], [0, 0]])])
    assert parse_subspace_text(s.to_text()) == s
