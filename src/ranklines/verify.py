"""Verification campaigns: quantify a claim over subspaces and directions.

A campaign fixes a claim family, a finite field, sizes (n, p), a set of
codimensions, and a range of direction ranks, then sweeps every case
(exhaustively or by seeded sampling), applying side-condition filters and
witness searches.  Case enumeration order is deterministic and hashed into
the report, so serial and parallel runs are comparable byte for byte.

Case verdicts: "passed" (claim held), "filtered" (hypotheses not met, e.g.
a side condition fails), "failed" (claim violated in hypothesis), and
"finding" (violation in an out-of-hypothesis or conjecture sweep, recorded
without gating the verdict).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import time
import traceback
from contextlib import closing
from dataclasses import dataclass, fields
from itertools import islice
from multiprocessing import Pipe, Process
from multiprocessing.connection import wait

from .fields import FieldDesc, parse_field
from .lines import _DirectionPlan, _plan, constant_det_witness_search, witness_search
from .matrices import (
    Matrix,
    _det_modp,
    canonical_N,
    random_invertible,
    rank_rows,
)
from .spaces import (
    DEFAULT_ELEMENT_BUDGET,
    BudgetExceededError,
    MatrixSpaceShape,
    count_subspaces,
    enumerate_affine,
    enumerate_subspaces,
    parse_subspace_text,
    random_affine,
    random_subspace,
    transport,
)

THEOREMS = ("flanders", "main", "pencil", "square", "remark2-strong", "remark2-conjecture")
MODES = ("exhaustive", "sample")
AFFINE_THEOREMS = ("pencil", "square", "remark2-strong", "remark2-conjecture")

PASSED = "passed"
FILTERED = "filtered"
FAILED = "failed"
FINDING = "finding"


class CampaignSpecError(ValueError):
    """A campaign's parameters violate the claim's hypotheses or are malformed."""


@dataclass(frozen=True)
class CampaignSpec:
    theorem: str
    field: FieldDesc
    n: int
    p: int
    codims: tuple[int, ...]
    rank_range: tuple[int, ...]
    mode: str = "exhaustive"
    samples: int = 0
    seed: int = 0
    workers: int = 1
    element_budget: int = DEFAULT_ELEMENT_BUDGET
    random_conjugates: int = 0
    allow_out_of_hypothesis: bool = False

    def to_json_obj(self) -> dict:
        # workers is an execution knob, not campaign identity: reports must
        # not differ between serial and parallel runs.
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workers"}
        obj.update(field=str(self.field), codims=list(self.codims),
                   rank_range=list(self.rank_range))
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CampaignSpec":
        kw = {f.name: obj[f.name] for f in fields(cls) if f.name != "workers"}
        kw.update(field=parse_field(kw["field"]), codims=tuple(kw["codims"]),
                  rank_range=tuple(kw["rank_range"]))
        return cls(**kw)


def _allowed_ranks(theorem: str, n: int, p: int) -> range:
    """The direction ranks (for flanders, the rank bounds) a claim holds for."""
    if theorem == "flanders":
        return range(p + 1)
    if theorem == "main":
        return range(p)
    if theorem == "square":
        return range(n)
    return range(n - 1, n)  # pencil and both remark2 modes: corank-one directions


def default_rank_range(theorem: str, n: int, p: int) -> tuple[int, ...]:
    """The direction ranks a campaign sweeps when none are given explicitly."""
    if theorem == "flanders" or theorem not in THEOREMS:
        raise CampaignSpecError(f"theorem {theorem!r} needs an explicit rank range")
    return tuple(_allowed_ranks(theorem, n, p))


def _in_hypothesis_codim(spec: CampaignSpec, codim: int) -> bool:
    if spec.theorem == "flanders":
        return True
    return codim <= spec.n - 2


def validate_spec(spec: CampaignSpec) -> None:
    problems: list[str] = []
    if spec.theorem not in THEOREMS:
        problems.append(f"unknown theorem {spec.theorem!r}")
    if spec.mode not in MODES:
        problems.append(f"unknown mode {spec.mode!r}")
    if not spec.field.is_finite:
        problems.append("campaigns quantify over finite fields only")
    if not (spec.n >= spec.p >= 1):
        problems.append(f"need n >= p >= 1, got n={spec.n}, p={spec.p}")
    if spec.mode == "sample" and spec.samples <= 0:
        problems.append("sample mode needs a positive sample count")
    if spec.mode != "sample" and spec.samples:
        problems.append("a sample count is for sample mode only")
    if spec.workers < 1:
        problems.append("workers must be at least 1")
    if spec.element_budget < 1:
        problems.append("element budget must be positive")
    if spec.random_conjugates < 0:
        problems.append("random conjugates must be at least 0")
    if not spec.codims:
        problems.append("at least one codimension is required")
    if not spec.rank_range:
        problems.append("at least one direction rank is required")
    for what, values in (("codimension", spec.codims), ("rank", spec.rank_range)):
        if len(set(values)) < len(values):
            problems.append(f"a {what} is listed twice in {list(values)}")
    m = spec.n * spec.p
    for c in spec.codims:
        if not 0 <= c <= m:
            problems.append(f"codimension {c} outside [0, {m}]")
        elif not (_in_hypothesis_codim(spec, c) or spec.allow_out_of_hypothesis):
            problems.append(f"codimension {c} exceeds n-2 = {spec.n - 2}; "
                            "pass allow_out_of_hypothesis to sweep it anyway")
    if problems:
        raise CampaignSpecError("; ".join(problems))
    allowed = _allowed_ranks(spec.theorem, spec.n, spec.p)
    for r in spec.rank_range:
        if r not in allowed:
            problems.append(f"rank {r} outside [{allowed[0]}, {allowed[-1]}] "
                            f"for theorem {spec.theorem}")
    if spec.theorem in AFFINE_THEOREMS and spec.n != spec.p:
        problems.append(f"theorem {spec.theorem} needs square matrices, got {spec.n}x{spec.p}")
    if spec.theorem == "main" and spec.p < 2:
        problems.append("the main claim needs p >= 2")
    if spec.theorem == "remark2-strong" and spec.field.order < 3:
        problems.append("the strong constant-determinant claim needs at least 3 field elements")
    if spec.theorem == "remark2-conjecture":
        if spec.field.order != 2:
            problems.append("conjecture mode is specific to the 2-element field")
        if spec.n <= 3:
            problems.append("conjecture mode needs n > 3 (n = 3 has a known counterexample)")
    if problems:
        raise CampaignSpecError("; ".join(problems))


# ---------------------------------------------------------------------------
# case enumeration


def _spaces_for_codim(spec: CampaignSpec, codim: int):
    shape = MatrixSpaceShape(spec.field, spec.n, spec.p)
    affine = spec.theorem in AFFINE_THEOREMS
    if spec.mode == "exhaustive":
        return enumerate_affine(shape, codim) if affine else enumerate_subspaces(shape, codim)

    def sampled():
        rng = random.Random(f"{spec.seed}:cases:{codim}")
        for _ in range(spec.samples):
            yield random_affine(shape, codim, rng) if affine else random_subspace(shape, codim, rng)
    return sampled()


def _case_stream(spec: CampaignSpec):
    idx = 0
    for codim in spec.codims:
        for space in _spaces_for_codim(spec, codim):
            for r in spec.rank_range:
                yield idx, codim, space, r
                idx += 1


def expected_total(spec: CampaignSpec) -> int:
    """Number of cases the stream will yield, computed without enumerating."""
    q = spec.field.order
    m = spec.n * spec.p
    affine = spec.theorem in AFFINE_THEOREMS
    spaces = 0
    for c in spec.codims:
        if spec.mode == "sample":
            spaces += spec.samples
        else:
            cnt = count_subspaces(m, c, q)
            spaces += cnt * q ** c if affine else cnt
    return spaces * len(spec.rank_range)


# ---------------------------------------------------------------------------
# per-case judging


@dataclass(frozen=True)
class CaseRecord:
    index: int
    codim: int
    r: int
    space_text: str
    n_text: str | None
    detail: str

    def to_json_obj(self) -> dict:
        return {
            "index": self.index,
            "codim": self.codim,
            "r": self.r,
            "space": self.space_text,
            "N": self.n_text,
            "detail": self.detail,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CaseRecord":
        return cls(obj["index"], obj["codim"], obj["r"], obj["space"], obj["N"], obj["detail"])

    def space(self):
        return parse_subspace_text(self.space_text)


def _side_condition_exists(spec: CampaignSpec, space, plan: _DirectionPlan, r: int) -> bool:
    """Does some member satisfy the claim family's side condition, for the
    direction N that ``plan`` (lines._plan of space's shape and N) plans?

    pencil/remark2 ask for a member mapping Ker N into im N; square asks
    for a member whose induced kernel-to-cokernel map is non-injective.
    Both are invariant under M -> P @ M @ Q, N -> P @ N @ Q, so with
    P @ N @ Q the canonical block both ask for a singular lower-right
    (n-r) x (n-r) block of P @ M @ Q (pencil and remark2 only have
    r = n-1).  At r = n-1 that block is the corner u @ M @ w, with u the
    last row of P and w the last column of Q, which is linear in M: it
    vanishes somewhere on the coset iff it is zero on the base or nonzero
    on a basis row, so only its nonzero weights are read.  For smaller r
    the blocks of a coset form a coset of blocks, which is walked.  The
    block maps P[r:, :] and Q[:, r:] and the corner's weights come from the
    plan, which a campaign takes once per direction, not once per case.
    """
    pm = spec.field.modulus
    if r == spec.n - 1:
        base = space.offset
        if base is None:
            return True
        # The corner is 0 on the base (first) or nonzero on a basis row.
        for vec in (base, *space.basis):
            value = 0
            for i, c in plan.corner:
                value += c * vec[i]
            if (value % pm == 0) is (vec is base):
                return True
        return False
    blocks = transport(space, *plan.block_maps)
    return any(_det_modp(rows, pm) == 0 for rows in blocks.elements(budget=spec.element_budget))


def _judge_core(spec: CampaignSpec, space, N: Matrix | None, r: int) -> tuple[str, str | None]:
    """(PASSED, FILTERED or FAILED, detail); the detail is None unless FAILED.

    N is None for flanders; the searches and the side condition find its
    plan by lines._plan, so the cases of a direction hash no Matrix.
    """
    if spec.theorem == "flanders":
        if space.dim <= spec.n * r:
            return FILTERED, None
        count = 0
        for rows in space.elements(budget=spec.element_budget):
            count += 1
            if rank_rows(spec.field, rows, spec.p) > r:
                return PASSED, None
        return FAILED, f"all {count} members have rank <= {r}"
    # The affine claim families (all but main) check a side condition first.
    if spec.theorem != "main" and not _side_condition_exists(spec, space,
                                                              _plan(space.shape, N), r):
        return FILTERED, None
    if spec.theorem in ("remark2-strong", "remark2-conjecture"):
        outcome = constant_det_witness_search(space, N, budget=spec.element_budget)
        if outcome.found:
            return PASSED, None
        return FAILED, f"no constant-determinant member among {outcome.cases_examined}"
    outcome = witness_search(space, N, budget=spec.element_budget)
    if outcome.found:
        return PASSED, None
    return FAILED, f"exhausted-no-witness after {outcome.cases_examined} members"


def _conjugates_agree(spec: CampaignSpec, index: int, space, N: Matrix | None,
                      r: int, verdict: str) -> str | None:
    """Re-judge k random (P, Q)-conjugated copies; None if all verdicts match."""
    rng = random.Random(f"{spec.seed}:conj:{index}")
    for k in range(spec.random_conjugates):
        P = random_invertible(spec.field, spec.n, rng)
        Q = random_invertible(spec.field, spec.p, rng)
        space2 = transport(space, P, Q)
        N2 = P @ N @ Q if N is not None else None
        verdict2, _detail = _judge_core(spec, space2, N2, r)
        if verdict2 != verdict:
            return (f"conjugate check #{k + 1} disagreed: canonical "
                    f"{verdict} vs transported {verdict2}")
    return None


def _direction(spec: CampaignSpec, r: int) -> Matrix | None:
    """The direction of a rank-r case, canonical_N(r); None for flanders."""
    return None if spec.theorem == "flanders" else canonical_N(spec.field, spec.n, spec.p, r)


def _process_case(spec: CampaignSpec, index: int, codim: int, space, r: int, space_text: str,
                  N: Matrix | None):
    """Returns (verdict, CaseRecord | None, digest bytes) for one case;
    space_text is space.to_text() and N is _direction(spec, r)."""
    key = f"{codim}|{r}|{space_text}"
    digest = hashlib.sha256(key.encode()).digest()
    verdict, detail = _judge_core(spec, space, N, r)
    mismatch = None
    if spec.random_conjugates:
        mismatch = _conjugates_agree(spec, index, space, N, r, verdict)
    if mismatch is not None:
        # A disagreement between conjugates gates in every mode.
        verdict, detail = FAILED, mismatch
    elif verdict == FAILED and (spec.theorem == "remark2-conjecture"
                                or not _in_hypothesis_codim(spec, codim)):
        verdict = FINDING
    if verdict in (PASSED, FILTERED):
        return verdict, None, digest
    n_text = None if N is None else N.to_text()
    return verdict, CaseRecord(index, codim, r, space_text, n_text, detail), digest


def _judge(spec: CampaignSpec, lo: int = 0, hi: int | None = None):
    """Yield (index, codim, r, verdict, CaseRecord | None, digest) for cases lo..hi-1.

    The cases of one space come together, one per rank, and share its text;
    the cases of one rank share its direction, taken once.  A case whose
    walk would exceed the element budget raises BudgetExceededError.
    """
    directions = {r: _direction(spec, r) for r in spec.rank_range}
    text_of = None
    for idx, codim, space, r in islice(_case_stream(spec), lo, hi):
        if space is not text_of:
            text_of, space_text = space, space.to_text()
        yield idx, codim, r, *_process_case(spec, idx, codim, space, r, space_text,
                                            directions[r])


def _judge_chunk(spec: CampaignSpec, span: tuple[int, int]):
    """A worker's share of a parallel run, cases lo..hi-1 for span (lo, hi),
    judged and packed for the trip back: (kinds, digests, records).

    kinds[i] is case lo + i's (codim, r, verdict), one shared tuple per
    distinct value, so a chunk pickles and unpickles each value once;
    digests joins the cases' 32-byte digests, and records holds the
    CaseRecords by index.  A budget overrun ends the chunk at the cases
    before it, so a stopped chunk is shorter than its span.
    """
    shared: dict = {}
    kinds, digests, records = [], bytearray(), {}
    try:
        for idx, codim, r, verdict, record, digest in _judge(spec, *span):
            kind = (codim, r, verdict)
            kinds.append(shared.setdefault(kind, kind))
            digests += digest
            if record is not None:
                records[idx] = record
    except BudgetExceededError:
        pass
    return kinds, bytes(digests), records


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class _WorkerTraceback(Exception):
    """The traceback, as text, of an error raised in a worker process: the
    parent raises that error chained from this one."""


def _send_chunk(conn, spec: CampaignSpec, span: tuple[int, int]) -> None:
    """A worker's body: send its span's chunk, or the pair of the error that
    ended it and its traceback."""
    try:
        conn.send(_judge_chunk(spec, span))
    except Exception as exc:  # raised again by the parent, in index order
        conn.send((exc, _WorkerTraceback(traceback.format_exc())))


def _check_exit(proc: Process) -> None:
    """Join a worker that has ended, or is ending, and raise if it died."""
    proc.join()
    if proc.exitcode:
        raise RuntimeError(f"the worker judging {proc.name} exited with code {proc.exitcode}")


def _worker_chunks(spec: CampaignSpec, spans: list[tuple[int, int]]):
    """Yield _judge_chunk(spec, span) for each span in order, each judged by
    a worker process of its own; closing the generator terminates them.

    A worker that dies (killed, out of memory) before its chunk is read
    ends the run at once with a RuntimeError, rather than leaving it
    waiting for a chunk that never comes.
    """
    workers = []
    try:
        # Workers inherit this thread's signal mask: SIGINT blocked while
        # they start leaves Ctrl-C to this process, which gets one sent
        # meanwhile once the mask is restored.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for lo, hi in spans:
                recv, send = Pipe(duplex=False)
                proc = Process(target=_send_chunk, args=(send, spec, (lo, hi)),
                               name=f"cases {lo}..{hi - 1}", daemon=True)
                proc.start()
                send.close()  # the worker holds the only send end: its death reads as EOF
                workers.append((recv, proc))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        running = {proc.sentinel: proc for _recv, proc in workers}
        for recv, proc in workers:
            while not recv.poll():  # wait for this chunk, or for any worker to end
                for ended in wait([recv, *running]):
                    if ended is not recv:
                        _check_exit(running.pop(ended))
            try:
                chunk = recv.recv()
            except EOFError:
                _check_exit(proc)
                raise
            if isinstance(chunk[0], Exception):
                exc, cause = chunk
                raise exc from cause
            yield chunk
    finally:
        for recv, proc in workers:
            proc.terminate()
            proc.join()
            recv.close()


def _judge_in_pool(spec: CampaignSpec):
    """Yield every case's _judge tuple in index order from worker processes,
    one contiguous index chunk per worker; a short chunk raises
    BudgetExceededError after its cases."""
    total = expected_total(spec)
    # Workers beyond the CPUs only cost processes, and the report ignores the count.
    w = max(1, min(spec.workers, total, _available_cpus()))
    bounds = [round(i * total / w) for i in range(w + 1)]
    spans = list(zip(bounds, bounds[1:]))
    with closing(_worker_chunks(spec, spans)) as chunks:
        for (lo, hi), (kinds, digests, records) in zip(spans, chunks):
            for i, (codim, r, verdict) in enumerate(kinds):
                digest = digests[32 * i:32 * i + 32]
                yield lo + i, codim, r, verdict, records.get(lo + i), digest
            if len(kinds) < hi - lo:
                raise BudgetExceededError(f"case {lo + len(kinds)} exceeds the element budget")


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class VerificationReport:
    spec: CampaignSpec
    total: int
    passed: int
    filtered: int
    failures: tuple[CaseRecord, ...]
    findings: tuple[CaseRecord, ...]
    case_order_hash: str
    elapsed_ms: int
    incomplete: bool = False

    @property
    def verified(self) -> bool:
        return self.verdict == "verified"

    @property
    def verdict(self) -> str:
        """A failure refutes the claim, so it makes the verdict failed even in an interrupted run."""
        return "failed" if self.failures else ("incomplete" if self.incomplete else "verified")

    def to_json_obj(self) -> dict:
        return {
            "spec": self.spec.to_json_obj(),
            "counts": {
                "total": self.total,
                "passed": self.passed,
                "filtered": self.filtered,
                "failures": len(self.failures),
                "findings": len(self.findings),
            },
            "failures": [rec.to_json_obj() for rec in self.failures],
            "findings": [rec.to_json_obj() for rec in self.findings],
            "case_order_hash": self.case_order_hash,
            "elapsed_ms": self.elapsed_ms,
            "incomplete": self.incomplete,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "VerificationReport":
        return cls(
            spec=CampaignSpec.from_json_obj(obj["spec"]),
            total=obj["counts"]["total"],
            passed=obj["counts"]["passed"],
            filtered=obj["counts"]["filtered"],
            failures=tuple(CaseRecord.from_json_obj(r) for r in obj["failures"]),
            findings=tuple(CaseRecord.from_json_obj(r) for r in obj["findings"]),
            case_order_hash=obj["case_order_hash"],
            elapsed_ms=obj["elapsed_ms"],
            incomplete=obj["incomplete"],
        )

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_json_obj(json.loads(text))

    def signature(self) -> str:
        """Deterministic serialization: everything except elapsed time."""
        obj = self.to_json_obj()
        del obj["elapsed_ms"]
        return json.dumps(obj, sort_keys=True)

    def summary_text(self) -> str:
        lines = [
            f"theorem      {self.spec.theorem}",
            f"field        {self.spec.field}",
            f"shape        {self.spec.n}x{self.spec.p}",
            f"codims       {','.join(map(str, self.spec.codims))}",
            f"ranks        {','.join(map(str, self.spec.rank_range))}",
            f"mode         {self.spec.mode}"
            + (f" ({self.spec.samples} samples, seed {self.spec.seed})"
               if self.spec.mode == "sample" else ""),
            f"cases        {self.total}",
            f"passed       {self.passed}",
            f"filtered     {self.filtered}",
            f"failures     {len(self.failures)}",
            f"findings     {len(self.findings)}",
            f"case hash    {self.case_order_hash}",
            f"elapsed      {self.elapsed_ms} ms",
            f"verdict      {'FAILED' if self.failures else self.verdict}",
        ]
        for rec in list(self.failures) + list(self.findings):
            lines.append(f"  case {rec.index} (codim {rec.codim}, r {rec.r}): {rec.detail}")
        return "\n".join(lines)


def run_campaign(spec: CampaignSpec, on_case=None) -> VerificationReport:
    """Execute a campaign, folding each case into the report as it arrives.

    ``on_case(index, codim, r, verdict)`` is invoked per case in index
    order, once the case is folded, with any worker count; campaigns with
    workers > 1 partition the case index range over processes and merge in
    order.  An interrupt, or a case whose walk would exceed the element
    budget, gives an ``incomplete`` report of the cases folded before it in
    index order, so its ``total`` is the index of the first case not folded.
    Either stop ends the worker processes at once.
    """
    validate_spec(spec)
    start = time.monotonic()
    cases = _judge(spec) if spec.workers == 1 else _judge_in_pool(spec)
    h = hashlib.sha256()
    passed = filtered = 0
    failures: list[CaseRecord] = []
    findings: list[CaseRecord] = []
    incomplete = False
    try:
        for idx, codim, r, verdict, record, digest in cases:
            h.update(digest)
            if verdict == PASSED:
                passed += 1
            elif verdict == FILTERED:
                filtered += 1
            else:
                (failures if verdict == FAILED else findings).append(record)
            if on_case is not None:
                on_case(idx, codim, r, verdict)
    except (KeyboardInterrupt, BudgetExceededError):
        incomplete = True
    finally:
        cases.close()
    elapsed = int((time.monotonic() - start) * 1000)
    total = passed + filtered + len(failures) + len(findings)
    return VerificationReport(spec, total, passed, filtered, tuple(failures),
                              tuple(findings), h.hexdigest(), elapsed, incomplete)


def replay_failure(record: CaseRecord, spec: CampaignSpec) -> bool:
    """True iff re-judging the recorded case as the campaign does (the same
    conjugates, drawn by index) gives a failure or a finding again."""
    verdict, _record, _digest = _process_case(spec, record.index, record.codim, record.space(),
                                              record.r, record.space_text,
                                              _direction(spec, record.r))
    return verdict in (FAILED, FINDING)
