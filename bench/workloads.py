"""Workload definitions shared by the timed run (run.py) and the traced run (trace.py).

A workload is set up (import the package, build the seeded inputs,
validate the campaign specs, warm up) and then runs in chunks of about a
second each: one campaign, or one slice of the generated lines.  The timed
run repeats every chunk and takes each chunk's median repetition, scaled to
a reference host speed (see ``calibrate``).
Outputs are checked outside the timed region, and an op that raises, comes
back failed or incomplete, or fails a check is counted as failed; the run
carries on.

Workloads (each stresses a different layer; see BENCHMARK.json):

- sweep-main-gf2: exhaustive ``main`` campaigns over GF(2), serial.  Per
  case cost is dominated by subspace enumeration, the case hash, the
  packed GF(2) rank and the finite certificate.  Each run also repeats the
  sweep once, untimed, on the two-worker process-pool path and checks
  that its reports equal the serial ones.
- sample-remark2-gf3: sampled ``remark2-strong`` campaigns over GF(3);
  each case walks hundreds of coset members, so member iteration and the
  mod-p determinant dominate.
- classify-rat: seeded random lines over Q with 5-bit integer entries put
  through ``classify_line``; rational root finding and the pencil
  determinant dominate, and no campaign code runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep-main-gf2", "sample-remark2-gf3", "classify-rat")
MODULES = ("fields", "matrices", "polynomials", "pencils", "spaces", "lines", "verify")

# Sampled remark2 cases: REMARK2_CHUNKS campaigns of REMARK2_SAMPLES each.
# Generated lines: CLASSIFY_CHUNKS slices of CLASSIFY_LINES each.  A chunk
# takes half a second or less, so the host-speed calibrations around it are
# close in time (the host's speed changes within seconds: scaling slices of
# 250 or 500 lines by the calibrations at their ends spread more than
# slices of 125), and a pass over all chunks takes at most a third of a
# 30-second run.  The totals leave at least 25 ops beyond the 99th
# percentile (op_p99_ms), so its figure does not hang on a few heavy inputs.
REMARK2_CHUNKS = 8
REMARK2_SAMPLES = 400
CLASSIFY_CHUNKS = 20
CLASSIFY_LINES = 125
ENTRY_BITS = 5
CLASSIFY_SHAPES = ((3, 3), (4, 4), (4, 3), (3, 3), (4, 4), (3, 2))

# case_order_hash and sha256(signature()) of each exhaustive sweep campaign.
# A change to case order or to the case-hash input must change these pins,
# and with them the benchmark, as the report identity has changed.
SWEEP_PINS = {
    (4, 2): ("c1e870b72507aa8a4c46133e843d38cbe7746c94db1aef2f804b784b285b1be0",
             "23308b1a4da76539a2f97d318fcd2d1c788dac6d586a47097b35dc5caddcb073"),
    (3, 3): ("28ea7d671219d6be21f5faff535aee42475aa6a07adeb4cb136c0d64d053cdb3",
             "071bef98728df791e03d7b841a5961f5866ec43a79f31fbe2c279f6365928d2c"),
}

# Spot checks re-verify a few witnesses per run with the benchmark's own
# elimination, so a fast but wrong kernel reads as failures, not as a gain.
SPOT_CHECKS = 40


class SetupError(RuntimeError):
    """The package under test is missing or cannot be imported."""


def load_ranklines():
    """Import (afresh) the package from this checkout's ``src`` directory.

    Returns a namespace with one attribute per layer module.  Any cached
    copy is dropped first, so each call pays the full import cost.
    """
    init = SRC / "ranklines" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"{init} not found: run the benchmark from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ranklines" or m.startswith("ranklines.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("ranklines")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise SetupError(f"imported ranklines from {pkg.__file__}, not from {init}")
    mods = {name: importlib.import_module(f"ranklines.{name}") for name in MODULES}
    return type("Ranklines", (), mods)


@dataclass
class Pass:
    """Outcome of running one chunk (or a check): counts, wall time, latencies."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    lat_ms: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# independent checks (the benchmark's own exact elimination)


def _rank(rows, modulus: int | None) -> int:
    """Rank of a list of rows over GF(modulus), or over Q when modulus is None."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                if modulus is None:
                    g = Fraction(m[i][c]) / pr[c]
                    m[i] = [a - g * b for a, b in zip(m[i], pr)]
                else:
                    g = m[i][c] * pow(pr[c], -1, modulus) % modulus
                    m[i] = [(a - g * b) % modulus for a, b in zip(m[i], pr)]
        rank += 1
    return rank


def _det_q(rows) -> Fraction:
    """Determinant over Q by fraction elimination."""
    m = [[Fraction(v) for v in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            g = m[i][c] / m[c][c]
            m[i] = [a - g * b for a, b in zip(m[i], m[c])]
    return det


def _line_at(a_rows, n_rows, t, modulus: int | None):
    if modulus is None:
        return [[a + t * b for a, b in zip(ra, rb)] for ra, rb in zip(a_rows, n_rows)]
    return [[(a + t * b) % modulus for a, b in zip(ra, rb)] for ra, rb in zip(a_rows, n_rows)]


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _check_witness(space, N, A, modulus: int, constant_det: bool) -> str | None:
    """Re-check a found witness: it is a member, and its whole line has full rank."""
    p = A.ncols
    vec = [v for row in A.rows for v in row]
    if hasattr(space, "linear"):
        basis = space.linear.basis
        base = [v for row in space.base.rows for v in row]
    else:
        basis, base = space.basis, [0] * len(vec)
    diff = [(v - b) % modulus for v, b in zip(vec, base)]
    if _rank(list(basis) + [diff], modulus) != _rank(basis, modulus):
        return "witness is not a member of its space"
    dets = set()
    for t in range(modulus):
        rows = _line_at(A.rows, N.rows, t, modulus)
        if _rank(rows, modulus) < p:
            return f"witness line drops rank at t={t}"
        if constant_det:
            dets.add(_det_q(rows) % modulus)
    if constant_det and len(dets) != 1:
        return "witness determinant is not constant"
    return None


# ---------------------------------------------------------------------------
# host-speed calibration: a fixed piece of the benchmark's own arithmetic

_CAL_RNG = random.Random("calibration")
_CAL_GF = [[[_CAL_RNG.randrange(7) for _ in range(8)] for _ in range(8)] for _ in range(120)]
_CAL_Q = [[[Fraction(_CAL_RNG.randint(-9, 9), _CAL_RNG.randint(1, 5)) for _ in range(5)]
           for _ in range(5)] for _ in range(30)]
_CAL_BASIS = [[_CAL_RNG.randrange(3) for _ in range(9)] for _ in range(6)]


def calibrate() -> float:
    """Seconds taken by fixed inputs through the benchmark's own elimination.

    None of it runs code under ``src/``, so the time moves with the host's
    speed and not with the program's.  The timed run takes one just before
    and one just after every chunk and set-up, and scales that run by them.
    """
    t0 = time.perf_counter()
    for m in _CAL_GF:
        _rank(m, 7)
        hashlib.sha256(";".join(",".join(map(str, r)) for r in m).encode()).digest()
    for m in _CAL_Q:
        _det_q(m)
    for coeffs in itertools.product(range(3), repeat=len(_CAL_BASIS)):
        a, b, c, d, e, f, g, h, i = [sum(x * row[j] for x, row in zip(coeffs, _CAL_BASIS)) % 3
                                     for j in range(9)]
        (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % 3
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# campaign workloads: one campaign per chunk


@dataclass
class CampaignState:
    rl: object
    specs: list
    totals: list
    pins: list
    spot: list


def _sweep_specs(rl):
    CampaignSpec = rl.verify.CampaignSpec
    F2 = rl.fields.GF(2)
    return [
        CampaignSpec(theorem="main", field=F2, n=4, p=2, codims=(0, 1, 2), rank_range=(0, 1)),
        CampaignSpec(theorem="main", field=F2, n=3, p=3, codims=(0, 1), rank_range=(0, 1, 2)),
    ]


def _remark2_spec(rl, seed: int, samples: int):
    return rl.verify.CampaignSpec(theorem="remark2-strong", field=rl.fields.GF(3), n=3, p=3,
                                  codims=(1,), rank_range=(2,), mode="sample",
                                  samples=samples, seed=seed)


def setup_campaigns(rl, workload: str, seed: int) -> CampaignState:
    if workload == "sample-remark2-gf3":
        # Chunk j samples with campaign seed seed*100 + j: disjoint streams.
        specs = [_remark2_spec(rl, seed * 100 + j, REMARK2_SAMPLES) for j in range(REMARK2_CHUNKS)]
        pins = [None] * len(specs)
        warm = _remark2_spec(rl, seed * 100 + 99, 20)
    else:
        specs = _sweep_specs(rl)
        pins = [SWEEP_PINS[(s.n, s.p)] for s in specs]
        warm = rl.verify.CampaignSpec(theorem="main", field=rl.fields.GF(2), n=3, p=2,
                                      codims=(0, 1), rank_range=(0, 1))
    for spec in specs + [warm]:
        rl.verify.validate_spec(spec)
    totals = [rl.verify.expected_total(s) for s in specs]
    try:
        rl.verify.run_campaign(warm)
    except Exception:  # the timed campaigns count and report the same failure
        pass
    return CampaignState(rl, specs, totals, pins, _spot_cases(rl, workload, seed))


def _spot_cases(rl, workload: str, seed: int):
    """A few seeded (space, N) cases whose witnesses get re-checked independently."""
    sp, mx = rl.spaces, rl.matrices
    rng = random.Random(f"spot:{workload}:{seed}")
    if workload == "sample-remark2-gf3":
        shape = sp.MatrixSpaceShape(rl.fields.GF(3), 3, 3)
        N = mx.canonical_N(shape.field, 3, 3, 2)
        out = []
        while len(out) < SPOT_CHECKS:
            space = sp.random_affine(shape, 1, rng)
            # Only side-condition cases (some member has M[2][2] = 0) are
            # claimed to have a constant-determinant witness.
            if any(row[8] for row in space.linear.basis) or space.base.rows[2][2] == 0:
                out.append((space, N))
        return out
    out = []
    for n, p, codim in ((4, 2, 2), (3, 3, 1)):
        shape = sp.MatrixSpaceShape(rl.fields.GF(2), n, p)
        for _ in range(SPOT_CHECKS // 2):
            r = rng.randrange(p)
            out.append((sp.random_subspace(shape, codim, rng), mx.canonical_N(shape.field, n, p, r)))
    return out


def _check_report(state: CampaignState, i: int, rep) -> str | None:
    spec = state.specs[i]
    if rep.total != state.totals[i]:
        return f"campaign {i}: {rep.total} cases, expected {state.totals[i]}"
    if rep.failures or rep.findings:
        return f"campaign {i}: {len(rep.failures)} failures, {len(rep.findings)} findings"
    if rep.incomplete or not rep.verified:
        return f"campaign {i}: verdict is not 'verified'"
    if rep.passed + rep.filtered != rep.total:
        return f"campaign {i}: passed + filtered != total"
    pin = state.pins[i]
    if pin is not None:
        if rep.case_order_hash != pin[0]:
            return f"campaign {i} ({spec.n}x{spec.p}): case_order_hash {rep.case_order_hash} != pinned"
        if hashlib.sha256(rep.signature().encode()).hexdigest() != pin[1]:
            return f"campaign {i} ({spec.n}x{spec.p}): signature differs from the pinned one"
    return None


def run_campaign_chunk(state: CampaignState, i: int, run_campaign=None) -> Pass:
    """Run campaign i serially, timing the gap between successive cases.

    ``run_campaign`` defaults to the package's; the traced run passes a
    wrapped one so the whole campaign is a span.
    """
    run = run_campaign or state.rl.verify.run_campaign
    total = state.totals[i]
    out = Pass(ops=total)
    stamps: list = []
    t0 = time.perf_counter()
    try:
        rep = run(state.specs[i], on_case=lambda *_: stamps.append(time.perf_counter()))
    except Exception as exc:  # an op that raises is a failed op; carry on
        out.fail(total, f"campaign {i} raised {type(exc).__name__}: {exc}")
        return out
    out.wall_s = time.perf_counter() - t0
    prev = t0
    for s in stamps:
        out.lat_ms.append((s - prev) * 1000.0)
        prev = s
    problem = _check_report(state, i, rep)
    if problem is not None:
        out.fail(total, problem)
    out.outputs = [rep.signature()]
    return out


def check_campaign_chunk(state: CampaignState, i: int) -> Pass:
    """Re-check, with the benchmark's own arithmetic, this chunk's share of spot cases."""
    rl = state.rl
    out = Pass()
    remark2 = state.specs[i].theorem == "remark2-strong"
    for space, N in state.spot[i::len(state.specs)]:
        out.ops += 1
        try:
            if remark2:
                res = rl.lines.constant_det_witness_search(space, N)
            else:
                res = rl.lines.witness_search(space, N)
        except Exception as exc:
            out.fail(1, f"spot search raised {type(exc).__name__}: {exc}")
            continue
        if not res.found:
            out.fail(1, "spot search found no witness where the claim guarantees one")
            continue
        problem = _check_witness(space, N, res.certificate.A, space.shape.field.modulus, remark2)
        if problem is not None:
            out.fail(1, f"spot check: {problem}")
    return out


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_pool_pass(state: CampaignState, workers: int = 2) -> Pass:
    """Every campaign once more on run_campaign's process-pool path (untimed check).

    No ``on_case`` is passed, since run_campaign falls back to serial when
    one is given.  Each report must pass the same checks (and pins) as the
    serial run, and the worker processes must have used CPU time.
    """
    run = state.rl.verify.run_campaign
    out = Pass()
    for i, spec in enumerate(state.specs):
        out.ops += state.totals[i]
        cpu0 = _children_cpu()
        t0 = time.perf_counter()
        try:
            rep = run(dataclasses.replace(spec, workers=workers))
        except Exception as exc:
            out.fail(state.totals[i], f"pooled campaign {i} raised {type(exc).__name__}: {exc}")
            continue
        out.wall_s += time.perf_counter() - t0
        problem = _check_report(state, i, rep)
        if problem is None and _children_cpu() - cpu0 <= 0:
            problem = f"pooled campaign {i}: worker processes used no CPU time"
        if problem is not None:
            out.fail(state.totals[i], problem)
    return out


# ---------------------------------------------------------------------------
# classify-rat: one slice of the generated lines per chunk


@dataclass
class ClassifyState:
    rl: object
    lines: list  # (kind, A Matrix, N Matrix, A int rows, N int rows)


def _rand_rows(rng, n, p, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(p)] for _ in range(n)]


def make_lines(seed: int, count: int):
    """Seeded integer lines (kind, A rows, N rows) with ENTRY_BITS-bit entries.

    Kinds cycle through: generic A and N; N of rank p-1; and a planted
    rank drop (A = B - t0*N with B singular), which must classify as not
    full rank.
    """
    rng = random.Random(f"classify-rat:{seed}")
    hi = (1 << (ENTRY_BITS - 1)) - 1
    lo = -hi - 1
    out = []
    for i in range(count):
        n, p = CLASSIFY_SHAPES[i % len(CLASSIFY_SHAPES)]
        kind = ("generic", "low-rank-N", "planted")[(i // len(CLASSIFY_SHAPES)) % 3]
        N = _rand_rows(rng, n, p, lo, hi)
        if kind == "low-rank-N":
            U = _rand_rows(rng, n, p - 1, -3, 3)
            V = _rand_rows(rng, p - 1, p, -3, 3)
            N = [[sum(U[r][k] * V[k][c] for k in range(p - 1)) for c in range(p)]
                 for r in range(n)]
        if kind == "planted":
            B = _rand_rows(rng, n, p, lo, hi)
            coef = [rng.randint(-1, 1) for _ in range(p - 1)]
            for row in B:
                row[p - 1] = sum(c * v for c, v in zip(coef, row))
            t0 = rng.randint(-4, 4)
            A = [[b - t0 * v for b, v in zip(rb, rn)] for rb, rn in zip(B, N)]
        else:
            A = _rand_rows(rng, n, p, lo, hi)
        out.append((kind, A, N))
    return out


def setup_classify(rl, seed: int) -> ClassifyState:
    Q = rl.fields.RATIONALS
    Matrix = rl.matrices.Matrix
    lines = [(kind, Matrix.from_rows(Q, A), Matrix.from_rows(Q, N), A, N)
             for kind, A, N in make_lines(seed, CLASSIFY_CHUNKS * CLASSIFY_LINES)]
    for _kind, A, N, _a, _n in lines[:20]:
        try:
            rl.pencils.classify_line(A, N)
        except Exception:  # the timed calls count and report the same failure
            pass
    return ClassifyState(rl, lines)


def _chunk_lines(state: ClassifyState, i: int):
    return state.lines[i * CLASSIFY_LINES:(i + 1) * CLASSIFY_LINES]


def run_classify_chunk(state: ClassifyState, i: int, classify_line=None) -> Pass:
    """Classify slice i of the lines, timing each call."""
    classify = classify_line or state.rl.pencils.classify_line
    out = Pass()
    perf = time.perf_counter
    start = perf()
    for _kind, A, N, _a, _n in _chunk_lines(state, i):
        out.ops += 1
        t0 = perf()
        try:
            res = classify(A, N)
        except Exception as exc:  # an op that raises is a failed op; carry on
            out.lat_ms.append((perf() - t0) * 1000.0)
            out.fail(1, f"classify_line raised {type(exc).__name__}: {exc}")
            out.outputs.append(None)
            continue
        out.lat_ms.append((perf() - t0) * 1000.0)
        out.outputs.append(res)
    out.wall_s = perf() - start
    # Plain values, comparable across re-imports of the package.
    out.outputs = [None if r is None else
                   (r.classification, tuple(r.poly.coeffs),
                    None if r.witness is None else r.witness.value)
                   for r in out.outputs]
    return out


SPOT_T = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-5, 3))


def check_classify_chunk(state: ClassifyState, i: int, outputs) -> Pass:
    """Re-check every classification of slice i with the benchmark's own arithmetic."""
    pc = state.rl.pencils
    out = Pass()
    for (kind, _A, _N, a_rows, n_rows), res in zip(_chunk_lines(state, i), outputs):
        out.ops += 1
        if res is None:
            continue  # already counted as failed when it raised
        cls, coeffs, witness = res
        p = len(a_rows[0])
        poly = [Fraction(c) for c in coeffs]
        if len(a_rows) == p:
            t = Fraction(3, 2)
            if _horner(poly, t) != _det_q(_line_at(a_rows, n_rows, t, None)):
                out.fail(1, f"{kind} line: poly(3/2) != det(A + 3/2 N)")
                continue
        if cls == pc.HAS_ROOT:
            t0 = Fraction(witness)
            if _rank(_line_at(a_rows, n_rows, t0, None), None) >= p or _horner(poly, t0) != 0:
                out.fail(1, f"{kind} line: witness t0={t0} is not a rank drop")
        elif cls == pc.IDENTICALLY_ZERO:
            if any(_rank(_line_at(a_rows, n_rows, t, None), None) >= p for t in SPOT_T[:3]):
                out.fail(1, f"{kind} line: identically-zero but full rank at a spot value")
        elif cls in (pc.CONSTANT_NONZERO, pc.NONCONSTANT_NO_ROOT):
            if kind == "planted":
                out.fail(1, "planted rank drop classified as full rank")
            elif any(_rank(_line_at(a_rows, n_rows, t, None), None) < p for t in SPOT_T):
                out.fail(1, f"{kind} line: root-free but rank drops at a spot value")
            elif (cls == pc.CONSTANT_NONZERO) != (len(poly) == 1):
                out.fail(1, f"{kind} line: constant-nonzero disagrees with the degree")
        else:
            out.fail(1, f"{kind} line: unknown classification {cls!r}")
    return out


# ---------------------------------------------------------------------------
# entry points used by run.py and trace.py


def setup(workload: str, seed: int):
    """Import the package afresh and build the workload's state."""
    rl = load_ranklines()
    if workload == "classify-rat":
        return setup_classify(rl, seed)
    return setup_campaigns(rl, workload, seed)


def chunk_count(workload: str, state) -> int:
    return CLASSIFY_CHUNKS if workload == "classify-rat" else len(state.specs)


def run_chunk(workload: str, state, i: int, hook=None) -> Pass:
    if workload == "classify-rat":
        return run_classify_chunk(state, i, hook)
    return run_campaign_chunk(state, i, hook)


def check_chunk(workload: str, state, i: int, res: Pass) -> None:
    """Independent output checks for a chunk's first run; failures go into res."""
    extra = (check_classify_chunk(state, i, res.outputs) if workload == "classify-rat"
             else check_campaign_chunk(state, i))
    res.failed += extra.failed
    res.problems.extend(extra.problems)
