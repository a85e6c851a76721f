"""Full-rank-line predicates, side conditions, and witness searches.

A line is the family A + t*N for t ranging over the field.  The central
predicate asks whether every member has full column rank p; searches look
for an A inside a given (affine) subspace making that true.  Searches over
finite fields are exhaustive in the deterministic element order, so a
negative answer is a proof of nonexistence, not a sampling artifact.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import chain, count, islice, repeat
from operator import and_, itemgetter, mul, xor
from types import MappingProxyType
from typing import ClassVar, NamedTuple

from .fields import FieldDesc, RawValue, Scalar
from .matrices import (
    Matrix,
    _check_tall,
    _det_modp,
    canonical_N,
    check_shape,
    line_rows,
    rank,
    rank_rows,
    to_rank_normal_form,
)

# det_pencil is unused here; bench/trace.py wraps lines.det_pencil by name.
from .pencils import PencilAnalysis, classify_line, det_pencil  # noqa: F401
from .polynomials import Poly
from .spaces import (
    DEFAULT_ELEMENT_BUDGET,
    _coset_size,
    _iter_coset,
    _member,
    _odometer_digits,
    transport_rows,
)

WITNESS_FOUND = "witness-found"
EXHAUSTED_NO_WITNESS = "exhausted-no-witness"
BUDGET_EXHAUSTED = "budget-exhausted"

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

DEFAULT_RANDOM_BUDGET = 10_000


@dataclass(frozen=True)
class WitnessCertificate:
    """Checkable evidence that every matrix of A + K*N has rank p.

    The evidence is the pencil analysis of the line, over every field: its
    polynomial (det(A + tN), or the gcd of the maximal minors) has no root
    in K.  The JSON form has one shape; an object without ``analysis`` is
    the retired per-t ``table`` form and is refused.
    """

    A: Matrix
    N: Matrix
    analysis: PencilAnalysis
    verdict: ClassVar[str] = "full-rank"

    def to_json_obj(self) -> dict:
        f = self.A.field
        a = self.analysis
        return {
            "A": self.A.to_text(),
            "N": self.N.to_text(),
            "field": str(f),
            "verdict": self.verdict,
            "analysis": {
                "poly_kind": a.poly_kind,
                "poly_coeffs": [f.format(c) for c in a.poly.coeffs],
                "poly": str(a.poly),
                "classification": a.classification,
                "witness": f.format(a.witness.value) if a.witness is not None else None,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WitnessCertificate":
        if obj.get("verdict") != cls.verdict:
            raise ValueError(f"certificate verdict must be {cls.verdict!r}, "
                             f"got {obj.get('verdict')!r}")
        if "analysis" not in obj:
            raise ValueError("certificate has no 'analysis': the per-t 'table' form is retired")
        A = Matrix.from_text(obj["A"])
        N = Matrix.from_text(obj["N"])
        f = A.field
        a = obj["analysis"]
        poly = Poly.from_coeffs(f, [f.parse(c) for c in a["poly_coeffs"]])
        witness = Scalar(f, f.parse(a["witness"])) if a["witness"] is not None else None
        return cls(A, N, PencilAnalysis(poly, a["poly_kind"], a["classification"], witness))

    @classmethod
    def from_json(cls, text: str) -> "WitnessCertificate":
        return cls.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class SearchOutcome:
    """A search's status and member count, and its witness line (A, N) if found."""

    status: str
    witness: tuple[Matrix, Matrix] | None
    cases_examined: int

    @property
    def found(self) -> bool:
        return self.status == WITNESS_FOUND

    @property
    def certificate(self) -> WitnessCertificate | None:
        """The witness's certificate, built when read: campaigns never read it."""
        return None if self.witness is None else _finite_certificate(*self.witness)


def _first_rank_drop(field: FieldDesc, a_rows, n_rows, p: int) -> int | None:
    """The smallest t in the (finite) field with rank(A + tN) < p, or None."""
    pm = field.modulus
    for t in range(pm):
        if rank_rows(field, line_rows(a_rows, n_rows, t, pm), p) < p:
            return t
    return None


def _finite_certificate(A: Matrix, N: Matrix) -> WitnessCertificate:
    """The certificate of a search's witness, whose line the search found full-rank."""
    analysis = classify_line(A, N)
    if not analysis.full_rank:
        raise RuntimeError(f"search witness has a {analysis.classification} line")
    return WitnessCertificate(A, N, analysis)


def line_full_rank(A: Matrix, N: Matrix):
    """Decide whether every matrix of A + K*N has rank p.

    Returns (True, certificate) or (False, t0) with t0 the smallest field
    element at which the rank drops: the smallest root of the pencil
    polynomial, or 0 when that polynomial is identically zero.
    """
    analysis = classify_line(A, N)  # rejects a mismatched pair and n < p
    if analysis.full_rank:
        return True, WitnessCertificate(A, N, analysis)
    t0 = analysis.witness
    return False, t0 if t0 is not None else Scalar(A.field, A.field.zero)


def validate_certificate(cert: WitnessCertificate) -> bool:
    """Re-check a certificate from scratch; True iff it proves a full-rank line.

    A malformed certificate is False, never an error.
    """
    A, N = cert.A, cert.N
    try:
        check_shape(N, A.field, A.nrows, A.ncols)
        _check_tall(A.nrows, A.ncols)
    except ValueError:
        return False
    return classify_line(A, N) == cert.analysis and cert.analysis.full_rank


# ---------------------------------------------------------------------------
# searches


class _DirectionPlan(NamedTuple):
    """What the searches and side conditions need of a direction N, for one shape."""

    rank: int
    canonical: bool  # N is canonical_N of its rank
    normal_form: tuple[Matrix, Matrix]  # (P, Q), P @ N @ Q canonical; (I_n, I_p) when N is
    # At rank n-1 on a square shape, the corner of P @ M @ Q, u @ M @ w with u
    # the last row of P and w the last column of Q, as the (index, weight)
    # pairs of its nonzero weights on row-major vec(M); otherwise None.
    corner: tuple[tuple[int, RawValue], ...] | None
    # On a square shape, the side condition's block maps (P[r:, :], Q[:, r:])
    # for rank r, so that P[r:, :] @ M @ Q[:, r:] is the lower-right block of
    # P @ M @ Q; otherwise None.
    block_maps: tuple[Matrix, Matrix] | None
    # The searches' member tests for canonical N of this rank, each (name,
    # lane_mask, passes): lane_mask(ops, T, ones) tests a block of members
    # on a square shape over GF(2) or GF(3) and is None elsewhere;
    # passes(rows) tests one member's raw rows.  constant_det is None unless
    # the shape is square and the rank n-1.
    full_rank: tuple
    constant_det: tuple | None


def _direction_plan(shape, N: Matrix) -> _DirectionPlan:
    """Check a search's direction against its space's shape and plan for it;
    the tests look up the kernels they call when they run, not here."""
    f, n, p = shape.field, shape.n, shape.p
    check_shape(N, f, n, p)
    _check_tall(n, p)
    rk = rank(N)
    if rk >= p:
        raise ValueError(f"direction rank {rk} is not below p = {p}")
    canonical_rows = canonical_N(f, n, p, rk).rows
    canonical = N.rows == canonical_rows
    P, Q = ((canonical_N(f, n, n, n), canonical_N(f, p, p, p)) if canonical else
            to_rank_normal_form(N))
    lanes = n == p and f.is_finite and f.order <= 3
    full_rank = ("full-rank",
                 (lambda ops, T, ones: _full_rank_mask(ops, T, ones, rk)) if lanes else None,
                 lambda rows: _first_rank_drop(f, rows, canonical_rows, p) is None)
    block_maps = (Matrix(f, n - rk, n, P.rows[rk:]),
                  Matrix(f, n, n - rk, tuple(row[rk:] for row in Q.rows))) if n == p else None
    if n != p or rk != n - 1:
        return _DirectionPlan(rk, canonical, (P, Q), None, block_maps, full_rank, None)
    w = [row[rk] for row in Q.rows]
    weights = (a * b for a in P.rows[rk] for b in w)
    corner = tuple((i, c) for i, c in enumerate(weights) if c)
    pm = f.modulus
    constant_det = ("constant-determinant",
                    (lambda ops, T, ones: _block_mask(ops, T, ones)) if lanes else None,
                    lambda rows: _constant_det(rows, rk, pm))
    return _DirectionPlan(rk, canonical, (P, Q), corner, block_maps, full_rank, constant_det)


# The one plan cache, by the identity of the direction: a campaign hands
# every case of a rank the same canonical_N object, so it checks and plans
# each direction once, and each case finds its plan without hashing N
# (about 1.1 us on 3x3).  Entries hold N, so an id is never reused while
# it is here; at 64 entries the table starts again.  A check that fails
# raises on every call, as nothing is stored for it.
_PLANS_BY_ID: dict[int, tuple] = {}


def _plan(shape, N: Matrix) -> _DirectionPlan:
    """_direction_plan(shape, N), found by the identity of N when it was
    planned for an equal shape before."""
    hit = _PLANS_BY_ID.get(id(N))
    if hit is not None and hit[0] is N and (hit[1] is shape or hit[1] == shape):
        return hit[2]
    plan = _direction_plan(shape, N)
    if len(_PLANS_BY_ID) >= 64:
        _PLANS_BY_ID.clear()
    _PLANS_BY_ID[id(N)] = N, shape, plan
    return plan


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")


def witness_search(space, N: Matrix, strategy: str = EXHAUSTIVE,
                   budget: int | None = None, seed: int = 0) -> SearchOutcome:
    """Find A in the subspace whose whole line A + K*N has rank p.

    Exhaustive strategy scans the deterministic element order and its
    negative verdict is complete (every member was tried); ``budget`` caps
    the element count (default 2^24) and overrunning it raises.  It is
    _first_in_coset with the full-rank test: a member passes iff
    rank(A + tN) = p at every t in the field.  Random strategy draws
    ``budget`` seeded uniform samples (default 10,000) and never claims
    nonexistence.  A budget below 1 raises ValueError.
    """
    plan = _plan(space.shape, N)
    _check_budget(budget)
    if strategy == EXHAUSTIVE:
        return _first_in_coset(space, N, plan,
                               DEFAULT_ELEMENT_BUDGET if budget is None else budget, plan.full_rank)
    if strategy != RANDOM:
        raise ValueError(f"unknown strategy {strategy!r}")
    shape = space.shape
    f, n, p = shape.field, shape.n, shape.p
    q, rng = f.order, random.Random(seed)
    draws = DEFAULT_RANDOM_BUDGET if budget is None else budget
    for cases in range(1, draws + 1):  # uniform members: uniform digits
        a_rows = _member(shape, space.basis, space.offset, [rng.randrange(q) for _ in space.basis])
        if _first_rank_drop(f, a_rows, N.rows, p) is None:
            return SearchOutcome(WITNESS_FOUND, (Matrix(f, n, p, a_rows), N), cases)
    return SearchOutcome(BUDGET_EXHAUSTED, None, draws)


def constant_det_witness_search(space, N: Matrix,
                                budget: int | None = None) -> SearchOutcome:
    """Find A in the subspace with det(A + tN) a nonzero constant.

    This is strictly stronger than a full-rank line over a finite field:
    the determinant polynomial must be constant as a formal polynomial,
    not merely root-free.  The scan is exhaustive over the space's member
    order; a budget below 1 raises ValueError, and more than ``budget``
    members raise BudgetExceededError before any is examined.  It is
    _first_in_coset with the raw-row test _constant_det, bitsliced over
    GF(2) and GF(3) (_block_mask).
    """
    shape = space.shape
    if shape.n != shape.p:
        raise ValueError("constant-determinant search requires a square shape")
    plan = _plan(shape, N)
    if plan.rank != shape.n - 1:
        raise ValueError(f"direction rank must be n-1 = {shape.n - 1}, got {plan.rank}")
    _check_budget(budget)
    return _first_in_coset(space, N, plan, DEFAULT_ELEMENT_BUDGET if budget is None else budget,
                           plan.constant_det)


def _first_in_coset(space, N: Matrix, plan: _DirectionPlan, budget: int,
                    test: tuple) -> SearchOutcome:
    """The first member of a space, in its own order, whose line with N
    passes a test of the plan (see _DirectionPlan); q^d members over
    ``budget`` raise BudgetExceededError before any member or table is
    made.  Every exhaustive search, of any shape and field, is this walk.

    A non-canonical N is moved to canonical form by mapping the basis and
    base once by the plan's (P, Q), which keeps the member order and each
    member's verdict: P (A + tN) Q has the rank of A + tN and, when square,
    determinant det P * det Q * det(A + tN).  With a lane test, a block of
    members is tested at a time (_bitsliced_first; block 0 from the base
    alone), and the member found is rebuilt from its coset digits and
    tested once more by passes, an independent check of the kernel.
    Otherwise passes tests each member of space.elements, or of the moved
    coset, and the one that passes is the witness as it stands; found with
    N moved, it is rebuilt from its digits in the space's basis and base.
    ``cases_examined`` counts the members up to the witness, or all q^d.
    """
    shape = space.shape
    name, lane_mask, passes = test
    # A flag, not `basis is space.basis`: every empty basis is the same ().
    moved = not plan.canonical
    if moved or lane_mask is not None:
        basis, base = space.basis, space.offset
        _coset_size(shape, len(basis), budget)
        if moved:
            basis, base = transport_rows(space, *plan.normal_form)
    if lane_mask is None:
        # space.elements checks the budget at the first member.
        for s, a_rows in enumerate(_iter_coset(shape, basis, base, None) if moved else
                                   space.elements(budget)):
            if passes(a_rows):
                break
        else:
            s = None
    else:
        s = _bitsliced_first(shape, basis, base, lane_mask)
        if s is not None:
            digits = _odometer_digits(s, shape.field.modulus, len(basis))
            a_rows = _member(shape, basis, base, digits)
            if not passes(a_rows):
                raise RuntimeError(f"coset member {digits} fails the {name} test")
    f, d = shape.field, len(space.basis)
    if s is None:
        return SearchOutcome(EXHAUSTED_NO_WITNESS, None, f.modulus ** d)
    if moved:
        a_rows = _member(shape, space.basis, space.offset, _odometer_digits(s, f.modulus, d))
    return SearchOutcome(WITNESS_FOUND, (Matrix(f, shape.n, shape.p, a_rows), N), s + 1)


def _constant_det(rows, last: int, pm: int) -> bool:
    """Is det(A + tN) a nonzero constant, for N = canonical_N of rank n-1?

    For n > 1 its t^(n-1) coefficient is the corner A[n-1][n-1], which must
    be 0.  With A = [[B, u], [v, 0]], det(A + tN) = -v adj(B + tI) u is
    constant iff the Markov parameters v B^k u vanish for k = 0..n-3
    (Cayley-Hamilton; Kailath, Linear Systems, 1980), and then it is det A.
    k = 0 is the corner sum; each later k costs one product w <- B w on the
    raw rows.
    """
    if last and rows[last][last]:
        return False
    if last > 1 and sum(rows[i][last] * rows[last][i] for i in range(last)) % pm:
        return False
    if last > 2:
        head, v = rows[:last], rows[last]
        w = [row[last] for row in head]
        for _ in range(last - 2):
            w = [sum(map(mul, row, w)) % pm for row in head]
            if sum(map(mul, v, w)) % pm:
                return False
    return _det_modp(rows, pm) != 0


# ---------------------------------------------------------------------------
# bitsliced member tests over GF(2) and GF(3)
#
# A table holds one field value per lane, lane s being member s of a block
# of the coset.  Over GF(2) it is one int whose bit s is the value; over
# GF(3) it is a pair of one-hot planes (bit s of the first set iff the
# value is 1, of the second iff it is 2), so negation swaps the planes
# (T. Boothby and R. Bradshaw, arXiv:0901.1413).  None stands for a table
# that is zero in every lane, so products with it are skipped.

# Fast digits per block, so q^b lanes, for both searches; when the corner
# moves with those digits, a q-th of the lanes have a zero corner.  With
# block 0 built from the base, 3^6 lanes ran sample-remark2-gf3 at a
# median 15,000-15,180 ops/s against 11,260 for 3^5 and 14,050 for 3^7,
# which also peaked 1.5 MiB higher (10 pairs each, 10 s, seed 1, 2
# vCPUs; 3^6 won every pair).  2^12 ran the exhaustive
# GF(2), n = 4, codim 0,1 remark2-conjecture campaign faster than 2^11 or
# 2^13, measured before the memos.  A full-rank search whose witness lies
# early in a block still tests the whole block.
_LANE_DIGITS = {2: 12, 3: 6}


def _add3(a, b):
    a1, a2 = a
    b1, b2 = b
    return (a2 & b2) | (a1 ^ b1) & ~(a2 | b2), (a1 & b1) | (a2 ^ b2) & ~(a1 | b1)


def _mul3(a, b):
    a1, a2 = a
    b1, b2 = b
    return (a1 & b1) | (a2 & b2), (a1 & b2) | (a2 & b1)


class _Planes(NamedTuple):
    add: Callable
    mul: Callable
    neg: Callable
    nonzero: Callable  # table -> int mask of its nonzero lanes
    spread: Callable  # (value, all lanes) -> the value in every lane
    order: int


_GF2 = _Planes(xor, and_, lambda a: a, lambda a: a, lambda v, ones: ones if v else 0, 2)
_GF3 = _Planes(_add3, _mul3, lambda a: (a[1], a[0]), lambda a: a[0] | a[1],
               lambda v, ones: ((0, 0), (ones, 0), (0, ones))[v], 3)
_PLANES = {2: _GF2, 3: _GF3}


@cache
def _digit_tables(q: int, b: int):
    """(all lanes, X) for q^b lanes: X[k] holds digit k of the lane number,
    first digit slowest, built by shift-and-OR doubling of one period."""
    lanes = q ** b
    ones = (1 << lanes) - 1
    tables = []
    for k in range(b):
        run = q ** (b - 1 - k)  # lanes per digit value
        planes = []
        for v in range(1, q):
            x, width = ((1 << run) - 1) << (v * run), q * run
            while width < lanes:
                x |= x << width
                width *= 2
            planes.append(x & ones)
        tables.append(planes[0] if q == 2 else tuple(planes))
    return ones, tuple(tables)


# Two memos serve the lane tests: _lane_table, for both searches, and
# _head_minors, for _block_mask and the full-rank test at r = 0.  Each is
# keyed by the field and the pattern of one entry or of a block's fixed
# rows alone, never by a case, so cosets that share a pattern share its
# memo entry, within a search and across cases.  Their
# bounds are entry counts: a lane table is at most q^b bits a plane (2^12
# bits over GF(2)), and a minors dict holds at most C(n, k) tables.


@lru_cache(maxsize=4096)
def _lane_table(q: int, value: int, column: tuple):
    """One entry's table over a block of q^b lanes, b = len(column): its
    slow-digit value in every lane plus c_k * X_k for each fast basis row k
    with coefficient c_k = column[k] there; None when that is zero in every
    lane, which happens only when value and column are all 0."""
    ops = _PLANES[q]
    ones, X = _digit_tables(q, len(column))
    terms = [x if c == 1 else ops.neg(x) for x, c in zip(X, column) if c]
    if value:
        terms.append(ops.spread(value, ones))
    return reduce(ops.add, terms) if terms else None


def _dot(ops: _Planes, xs, ys):
    """The sum of x * y over the pairs of xs and ys, up to the shorter."""
    total = None
    for x, y in zip(xs, ys):
        if x is not None and y is not None:
            term = ops.mul(x, y)
            total = term if total is None else ops.add(total, term)
    return total


def _minors(ops: _Planes, rows, minors: Mapping | None = None) -> Mapping:
    """The minors of all rows of a matrix of tables, keyed by column bit set
    and missing where zero, by Laplace along each row in turn.  ``minors``
    holds those of the rows above ``rows`` (None: ``rows`` are the first),
    and each row set's minors serve the next in a new dict, so ``minors``
    itself is never changed; for n rows, key 2^n - 1 is the determinant."""
    if minors is None:
        first, *rows = rows
        minors = {1 << j: a for j, a in enumerate(first) if a is not None}
    for row in rows:
        grown: dict = {}
        for cols, m in minors.items():
            for j, a in enumerate(row):
                if a is None or cols >> j & 1:
                    continue
                term = ops.mul(a, m)
                if (cols >> j).bit_count() & 1:  # odd count of columns right of j
                    term = ops.neg(term)
                key = cols | 1 << j
                grown[key] = ops.add(grown[key], term) if key in grown else term
        minors = grown
    return minors


@lru_cache(maxsize=512)
def _head_minors(q: int, head: tuple) -> MappingProxyType | None:
    """_minors of the rows ``head`` (a tuple of row tuples of tables) that a
    lane test never changes, shared read-only by every block whose fixed
    rows hold the same tables; None for no rows.  Never the whole block: a
    test expands at least one row of its own below them."""
    return MappingProxyType(_minors(_PLANES[q], head)) if head else None


def _block_mask(ops: _Planes, T: tuple, ones: int) -> int:
    """Lanes whose A passes _constant_det's test."""
    last = len(T) - 1
    mask = ones
    if last:
        corner = T[last][last]
        if corner is not None:
            mask &= ~ops.nonzero(corner)
            if not mask:
                return 0
    if last > 1:
        head = T[:last]  # B and v are these rows and T[last] up to len(w)
        w = list(map(itemgetter(last), head))
        for k in range(last - 1):  # v B^k u for k = 0..n-3
            if k:
                w = [_dot(ops, row, w) for row in head]
            markov = _dot(ops, T[last], w)
            if markov is not None:
                mask &= ~ops.nonzero(markov)
                if not mask:
                    return 0
    det = _minors(ops, T[last:], _head_minors(ops.order, T[:last])).get((1 << len(T)) - 1)
    return mask & ops.nonzero(det) if det is not None else 0


def _full_rank_mask(ops: _Planes, T, ones: int, r: int) -> int:
    """Lanes whose A + t * canonical_N(n, n, r) is invertible at every t.

    Row order does not change whether a determinant is zero, so the minors
    of rows r..n-1, which no t moves, are taken once, and each t only adds
    its rows 0..r-1 (t on the diagonal) below them.  Those rows include the
    last, whose tables vary from case to case, so the memo is not asked:
    on the GF(2) 3x3 main sweep it hit 7 and 63 of 512 times at r = 1 and
    2.  At r = 0 no t moves a row; the memo then holds rows 0..n-2, as for
    _block_mask (447 of 512 hits), and row n-1 is added.
    """
    if r:
        moving, fixed = T[:r], _minors(ops, T[r:])
    else:
        moving, fixed = T[-1:], _head_minors(ops.order, T[:-1])
    full = (1 << len(T)) - 1
    mask = ones
    for t in range(ops.order if r else 1):
        moved = [[*row[:i], _entry(ops, t, row[i], ones), *row[i + 1:]] if i < r else row
                 for i, row in enumerate(moving)]
        det = _minors(ops, moved, fixed).get(full)
        mask &= ops.nonzero(det) if det is not None else 0
        if not mask:
            return 0
    return mask


def _bitsliced_first(shape, basis, base, lane_mask: Callable) -> int | None:
    """Number of the first member of base + span(basis), in odometer order,
    whose lane lane_mask(ops, T, ones) passes, or None; q = 2 or 3.

    The last digits, q^b of them to a block, are the lanes of one table per
    entry (_lane_table), looked up by the entry's slow-digit value and its
    column of coefficients in the b fast basis rows.  The slow digits step
    through the blocks in order, and the first block with a passing lane
    stops it.  Block 0 holds the base's own values (its slow digits are
    0); the _iter_coset walk starts only when none of its lanes passes.
    """
    n, q = shape.n, shape.field.order
    ops = _PLANES[q]
    d = len(basis)
    b = min(d, _LANE_DIGITS[q])
    ones = _digit_tables(q, b)[0]
    columns = tuple(zip(*basis[d - b:])) if b else ((),) * (n * n)
    values, blocks = base if base is not None else repeat(0), None
    for block in count():
        # n tables at a time from one iterator: the rows of the block.
        T = tuple(zip(*[map(_lane_table, repeat(q), values, columns)] * n))
        mask = lane_mask(ops, T, ones)
        if mask:
            return block * q ** b + (mask & -mask).bit_length() - 1
        if blocks is None:
            blocks = islice(_iter_coset(shape, basis[:d - b], base, None), 1, None)
        if (rows := next(blocks, None)) is None:
            return None
        values = chain.from_iterable(rows)


def _entry(ops: _Planes, v: int, table, ones: int):
    """The table v + table; None is a zero table, returned when v = 0 and
    table is None."""
    if table is None:
        return ops.spread(v, ones) if v else None
    return ops.add(ops.spread(v, ones), table) if v else table
