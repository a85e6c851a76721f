"""Campaign validation, execution, determinism, and report serialization."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import random
import re
import resource
import signal
import threading
import time
import tracemalloc
from itertools import islice

import pytest

from ranklines import lines, spaces, verify
from ranklines.fields import GF, RATIONALS
from ranklines.matrices import Matrix, canonical_N, random_invertible, rank
from ranklines.spaces import (BudgetExceededError, LinearMatrixSubspace, MatrixSpaceShape,
                              enumerate_affine, from_generators, random_affine,
                              random_subspace)
from ranklines.verify import (
    CampaignSpec,
    CampaignSpecError,
    CaseRecord,
    VerificationReport,
    _case_stream,
    _side_condition_exists,
    default_rank_range,
    expected_total,
    replay_failure,
    run_campaign,
    validate_spec,
)

from oracles import (
    ker_coker_noninjective,
    maps_ker_into_im,
    side_condition_block_walk,
    side_condition_per_case,
)

F2 = GF(2)
F3 = GF(3)


def _spec(**kw):
    base = dict(theorem="main", field=F2, n=3, p=2, codims=(1,),
                rank_range=(0, 1))
    base.update(kw)
    return CampaignSpec(**base)


# ------------------------------------------------------------------ validation


def test_default_rank_ranges():
    assert default_rank_range("main", 3, 3) == (0, 1, 2)
    assert default_rank_range("square", 3, 3) == (0, 1, 2)
    assert default_rank_range("pencil", 4, 4) == (3,)
    assert default_rank_range("remark2-strong", 3, 3) == (2,)
    with pytest.raises(CampaignSpecError):
        default_rank_range("flanders", 3, 3)


def test_validate_rejects_unknown_theorem_and_mode():
    with pytest.raises(CampaignSpecError):
        validate_spec(_spec(theorem="fermat"))
    with pytest.raises(CampaignSpecError):
        validate_spec(_spec(mode="psychic"))


def test_validate_rejects_infinite_fields():
    with pytest.raises(CampaignSpecError):
        validate_spec(_spec(field=RATIONALS))


def test_validate_rejects_out_of_hypothesis_codim_without_flag():
    with pytest.raises(CampaignSpecError) as err:
        validate_spec(_spec(codims=(2,)))
    assert "allow_out_of_hypothesis" in str(err.value)
    validate_spec(_spec(codims=(2,), allow_out_of_hypothesis=True))


def test_validate_rejects_strong_remark2_over_gf2():
    spec = _spec(theorem="remark2-strong", n=3, p=3, codims=(1,), rank_range=(2,))
    with pytest.raises(CampaignSpecError):
        validate_spec(spec)
    validate_spec(CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3,
                               codims=(1,), rank_range=(2,)))


def test_validate_conjecture_mode_requirements():
    good = CampaignSpec(theorem="remark2-conjecture", field=F2, n=4, p=4,
                        codims=(1,), rank_range=(3,), mode="sample", samples=2)
    validate_spec(good)
    with pytest.raises(CampaignSpecError):  # n = 3 has the counterexample
        validate_spec(CampaignSpec(theorem="remark2-conjecture", field=F2,
                                   n=3, p=3, codims=(1,), rank_range=(2,)))
    with pytest.raises(CampaignSpecError):  # conjecture is about GF(2) only
        validate_spec(CampaignSpec(theorem="remark2-conjecture", field=F3,
                                   n=4, p=4, codims=(1,), rank_range=(3,)))


def test_validate_pencil_needs_corank_one():
    with pytest.raises(CampaignSpecError):
        validate_spec(CampaignSpec(theorem="pencil", field=F2, n=3, p=3,
                                   codims=(1,), rank_range=(1,)))


def test_validate_sample_mode_needs_samples():
    with pytest.raises(CampaignSpecError):
        validate_spec(_spec(mode="sample"))
    validate_spec(_spec(mode="sample", samples=5))
    # A sample count would only change an exhaustive report's signature.
    with pytest.raises(CampaignSpecError, match="a sample count is for sample mode only"):
        validate_spec(_spec(samples=7))


def test_validate_main_needs_p_at_least_two():
    with pytest.raises(CampaignSpecError):
        validate_spec(_spec(n=3, p=1, codims=(1,), rank_range=(0,)))


def test_validate_rejects_negative_random_conjugates():
    with pytest.raises(CampaignSpecError, match="random conjugates must be at least 0"):
        validate_spec(_spec(random_conjugates=-3))
    validate_spec(_spec(random_conjugates=0))


@pytest.mark.parametrize("changes, message", [
    (dict(n=2, p=3), "need n >= p >= 1, got n=2, p=3"),
    (dict(p=0, rank_range=(0,)), "need n >= p >= 1, got n=3, p=0"),
    (dict(workers=0), "workers must be at least 1"),
    (dict(element_budget=0), "element budget must be positive"),
    (dict(codims=()), "at least one codimension is required"),
    (dict(rank_range=()), "at least one direction rank is required"),
    (dict(codims=(7,), allow_out_of_hypothesis=True), "codimension 7 outside [0, 6]"),
    (dict(theorem="pencil", rank_range=(2,)), "theorem pencil needs square matrices, got 3x2"),
], ids=["n-below-p", "p-zero", "workers", "element-budget", "no-codims", "no-ranks",
        "codim-beyond-m", "pencil-tall"])
def test_validate_refuses_each_malformed_parameter(changes, message):
    with pytest.raises(CampaignSpecError, match=re.escape(message)):
        validate_spec(_spec(**changes))


def test_validate_refuses_a_repeated_codimension_or_rank():
    with pytest.raises(CampaignSpecError, match=r"a codimension is listed twice in \[1, 1\]"):
        validate_spec(_spec(codims=(1, 1)))
    with pytest.raises(CampaignSpecError, match=r"a rank is listed twice in \[1, 0, 1\]"):
        validate_spec(_spec(rank_range=(1, 0, 1)))


@pytest.mark.parametrize("theorem", verify.THEOREMS)
def test_one_rank_rule_bounds_every_theorem(theorem):
    # The square claim families take n = p only, and the conjecture n > 3.
    field = F3 if theorem == "remark2-strong" else F2
    checked = 0
    for n in range(2, 5):
        for p in range(2, n + 1):
            if (theorem in verify.AFFINE_THEOREMS and p != n) or \
                    (theorem == "remark2-conjecture" and n <= 3):
                continue
            spec = CampaignSpec(theorem=theorem, field=field, n=n, p=p, codims=(0,),
                                rank_range=(0,))
            allowed = verify._allowed_ranks(theorem, n, p)
            ranks = (p,) if theorem == "flanders" else default_rank_range(theorem, n, p)
            validate_spec(dataclasses.replace(spec, rank_range=ranks))
            for r in (allowed[0] - 1, allowed[-1] + 1):
                with pytest.raises(CampaignSpecError, match=rf"rank {r} outside"):
                    validate_spec(dataclasses.replace(spec, rank_range=(r,)))
            checked += 1
    assert checked


# -------------------------------------------------------------- side condition


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_side_condition_matches_the_member_walk_predicates(field):
    # The predicates walk every member as a Matrix against any direction N;
    # _side_condition_exists walks a coset of lower-right blocks instead,
    # after moving a non-canonical N to canonical form.
    rng = random.Random(f"side-condition:{field}")
    outcomes = {False: 0, True: 0}
    for n in (2, 3):
        shape = MatrixSpaceShape(field, n, n)
        m = n * n
        for r in range(n):
            spec = CampaignSpec(theorem="square", field=field, n=n, p=n,
                                codims=(0,), rank_range=(r,))
            N0 = canonical_N(field, n, n, r)
            for _ in range(100):
                codim = rng.randint(max(0, m - 3), m)
                space = (random_affine(shape, codim, rng) if rng.random() < 0.9
                         else random_subspace(shape, codim, rng))
                members = [Matrix(field, n, n, rows) for rows in space.elements()]
                moved = random_invertible(field, n, rng) @ N0 @ random_invertible(field, n, rng)
                for N in (N0, moved):
                    want = any(ker_coker_noninjective(M, N) for M in members)
                    if r == n - 1:
                        assert want == any(maps_ker_into_im(M, N) for M in members)
                    plan = lines._plan(shape, N)
                    assert _side_condition_exists(spec, space, plan, r) == want, (space, N)
                    outcomes[want] += 1
    assert min(outcomes.values()) > 100, outcomes


@pytest.mark.parametrize("field", [F2, F3, GF(5)], ids=str)
def test_corank_one_side_condition_matches_the_block_walk(field):
    # At r = n-1 the side condition reads one linear functional off the
    # basis and base; the oracle walks the coset of 1 x 1 corner blocks.
    rng = random.Random(f"corner-functional:{field}")
    outcomes = {False: 0, True: 0}
    for n in (1, 2, 3, 4):
        shape = MatrixSpaceShape(field, n, n)
        m = n * n
        N0 = canonical_N(field, n, n, n - 1)
        for family in ("pencil", "square"):
            spec = CampaignSpec(theorem=family, field=field, n=n, p=n,
                                codims=(0,), rank_range=(n - 1,))
            for _ in range(40):
                codim = rng.randint(max(0, m - 4), m)
                space = (random_affine(shape, codim, rng) if rng.random() < 0.8
                         else random_subspace(shape, codim, rng))
                moved = random_invertible(field, n, rng) @ N0 @ random_invertible(field, n, rng)
                for N in (N0, moved):
                    want = side_condition_block_walk(space, N, n - 1)
                    plan = lines._plan(shape, N)
                    assert _side_condition_exists(spec, space, plan, n - 1) == want, (space, N)
                    outcomes[want] += 1
    assert min(outcomes.values()) > 40, outcomes


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_side_condition_plan_matches_the_per_case_route(field):
    # The campaign reads (P, Q) and the sparse corner weights off a direction
    # plan built once per (shape, N); the oracle rebuilds the normal form and
    # the dense weights for every case.  Every coset at n = 2 and seeded
    # cosets at n = 3, with the canonical N and a moved one.
    rng = random.Random(f"side-condition-plan:{field}")
    outcomes = {False: 0, True: 0}
    for n in (2, 3):
        shape = MatrixSpaceShape(field, n, n)
        m = n * n
        if n == 2:
            spaces = [space for c in range(m + 1) for space in enumerate_affine(shape, c)]
        else:
            spaces = [random_affine(shape, rng.randint(m - 5, m), rng) for _ in range(60)]
        for theorem in ("pencil", "square", "remark2-strong"):
            for r in default_rank_range(theorem, n, n):
                spec = CampaignSpec(theorem=theorem, field=field, n=n, p=n,
                                    codims=(0,), rank_range=(r,))
                N0 = canonical_N(field, n, n, r)
                for space in spaces:
                    moved = random_invertible(field, n, rng) @ N0 @ random_invertible(field, n, rng)
                    for N in (N0, moved):
                        want = side_condition_per_case(spec, space, N, r)
                        plan = lines._plan(shape, N)
                        assert _side_condition_exists(spec, space, plan, r) == want, (space, N)
                        outcomes[want] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_a_campaign_checks_each_direction_once(monkeypatch):
    # Every case of a campaign at rank r searches with the same
    # canonical_N(r), so rank(N) runs once per direction, not once per case.
    calls = []
    real = lines.rank
    monkeypatch.setattr(lines, "rank", lambda M: calls.append(M) or real(M))
    lines._PLANS_BY_ID.clear()
    sampled = CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,),
                           rank_range=(2,), mode="sample", samples=400, seed=7)
    sweep = _spec(codims=(0, 1))
    for spec in (sampled, sweep):
        calls.clear()
        rep = run_campaign(spec)
        assert rep.verified and rep.total >= 100
        assert len(calls) == len(set(calls)) <= len(spec.rank_range), spec


def test_a_warm_campaign_hashes_no_matrix_per_case(monkeypatch):
    # The cases of a rank share one canonical_N object, whose plan the side
    # condition and the search find by its identity: once warm, a campaign
    # hashes at most one Matrix per rank, never one per case.
    hashed = []
    real = Matrix.__hash__
    sampled = CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,),
                           rank_range=(2,), mode="sample", samples=400, seed=7)
    sweep = _spec(codims=(0, 1))
    for spec in (sampled, sweep):
        run_campaign(spec)
        hashed.clear()
        monkeypatch.setattr(Matrix, "__hash__", lambda M: hashed.append(M) or real(M))
        rep = run_campaign(spec)
        monkeypatch.undo()
        assert rep.verified and rep.total >= 100
        assert len(hashed) <= len(spec.rank_range), (spec, len(hashed))


def test_a_campaign_converts_no_coset_and_builds_a_matrix_only_for_a_witness(monkeypatch):
    # A coset is carried as raw vectors from the sampler or enumerator to
    # the searches: no case vectorizes a Matrix or builds one from a
    # vector, and the only Matrix a case makes is the witness it finds.
    # Below rank n - 1 the square side condition walks a coset of blocks,
    # whose block maps the direction's plan holds.
    made = {"vectorize": 0, "unvectorize": 0, "Matrix": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            made[name] += 1
            return f(*args, **kwargs)
        return wrapper
    sampled = CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,),
                           rank_range=(2,), mode="sample", samples=400, seed=11)
    swept = CampaignSpec(theorem="pencil", field=F2, n=3, p=3, codims=(1,), rank_range=(2,))
    blocks = CampaignSpec(theorem="square", field=F2, n=3, p=3, codims=(1,), rank_range=(0, 1))
    for spec in (sampled, swept, blocks):
        run_campaign(spec)  # builds the direction's cached Matrix objects
        for name in ("vectorize", "unvectorize"):
            monkeypatch.setattr(spaces, name, counted(name, getattr(spaces, name)))
        monkeypatch.setattr(Matrix, "__init__", counted("Matrix", Matrix.__init__))
        rep = run_campaign(spec)
        monkeypatch.undo()
        assert rep.verified and rep.passed >= 100, spec
        assert made["vectorize"] == made["unvectorize"] == 0, made
        assert made["Matrix"] <= rep.passed, (made, rep.passed)
        made.update(dict.fromkeys(made, 0))


# ------------------------------------------------------------------- execution


def test_expected_total_matches_stream():
    spec = _spec(codims=(0, 1))
    rep = run_campaign(spec)
    assert rep.total == expected_total(spec)
    assert rep.total == (1 + 63) * 2


def test_main_campaign_small_sweep_passes():
    rep = run_campaign(_spec(codims=(1,)))
    assert rep.verified
    assert rep.failures == ()
    assert rep.findings == ()
    assert rep.passed + rep.filtered == rep.total
    assert rep.total == 126


def test_flanders_campaign_counts_and_filtering():
    spec = CampaignSpec(theorem="flanders", field=F2, n=2, p=2,
                        codims=(0, 1, 2), rank_range=(0, 1, 2))
    rep = run_campaign(spec)
    assert rep.verified
    # r = 2 filters everything (dim <= 4 always); r = 0 filters only dim 0
    assert rep.total == (1 + 15 + 35) * 3
    assert rep.failures == ()


def test_pencil_campaign_tiny():
    spec = CampaignSpec(theorem="pencil", field=F2, n=2, p=2,
                        codims=(0,), rank_range=(1,))
    rep = run_campaign(spec)
    assert rep.verified
    assert rep.total == 1  # codim 0 has a single coset: the whole space
    assert rep.passed == 1


def test_square_campaign_r0_witness_iff_invertible_member():
    # r = 0 gives N = 0: the side condition always holds and a witness is
    # exactly an invertible member of the coset.
    spec = CampaignSpec(theorem="square", field=F2, n=2, p=2,
                        codims=(2,), rank_range=(0,),
                        allow_out_of_hypothesis=True)
    verdicts = {}
    rep = run_campaign(spec, on_case=lambda idx, codim, r, v: verdicts.update({idx: v}))
    assert rep.total == len(verdicts)
    for idx, codim, space, r in _case_stream(spec):
        ranks = [rank(Matrix(F2, 2, 2, rows)) for rows in space.elements()]
        if min(ranks) == 2:
            expected = "filtered"  # no singular member: side condition fails
        elif max(ranks) == 2:
            expected = "passed"
        else:
            expected = "finding"  # out-of-hypothesis codim, so not a failure
        assert verdicts[idx] == expected


# Conjugate checks re-judge each case on a copy moved by random (P, Q), whose
# direction is no longer canonical; they must agree with the plain run.
CONJUGATED_FAMILIES = [
    dict(theorem="pencil", n=3, p=3, codims=(0, 1), rank_range=(2,)),
    dict(theorem="square", n=3, p=3, codims=(0, 1), rank_range=(0, 1, 2),
         mode="sample", samples=12, seed=1),
    dict(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,), rank_range=(2,),
         mode="sample", samples=10, seed=2),
    dict(theorem="remark2-conjecture", n=4, p=4, codims=(1,), rank_range=(3,),
         mode="sample", samples=3, seed=4),
]


@pytest.mark.parametrize("family", CONJUGATED_FAMILIES, ids=lambda kw: kw["theorem"])
def test_conjugate_checks_agree_on_the_affine_families(family):
    spec = _spec(**family)
    plain = run_campaign(spec)
    conjugated = run_campaign(dataclasses.replace(spec, random_conjugates=1))
    assert conjugated.failures == ()
    assert (conjugated.passed, conjugated.filtered, conjugated.case_order_hash) == \
        (plain.passed, plain.filtered, plain.case_order_hash)


def test_conjugate_mismatch_records_replay(monkeypatch):
    # A transport that loses the space makes every conjugate check of the
    # main claim disagree with the canonical verdict.
    monkeypatch.setattr(verify, "transport",
                        lambda space, P, Q: from_generators(space.shape, []))
    spec = _spec(codims=(1,), rank_range=(1,), random_conjugates=1)
    rep = run_campaign(spec)
    assert rep.failures
    record = rep.failures[0]
    assert record.detail == "conjugate check #1 disagreed: canonical passed vs transported failed"
    assert replay_failure(record, spec)
    monkeypatch.undo()
    assert not replay_failure(record, spec)


def test_remark2_conjecture_sample_smoke():
    spec = CampaignSpec(theorem="remark2-conjecture", field=F2, n=4, p=4,
                        codims=(1,), rank_range=(3,), mode="sample",
                        samples=3, seed=7)
    rep = run_campaign(spec)
    assert rep.verified
    assert rep.total == 3
    assert rep.failures == ()


def test_out_of_hypothesis_failures_become_findings():
    spec = _spec(n=2, p=2, codims=(1, 2), rank_range=(1,),
                 allow_out_of_hypothesis=True)
    rep = run_campaign(spec)
    assert rep.failures == ()
    assert rep.findings  # sharp examples exist at codim n-1 = 1
    assert rep.verified  # findings do not gate
    assert rep.passed + rep.filtered + len(rep.findings) == rep.total
    for rec in rep.findings:
        assert rec.codim in (1, 2)
    # findings replay deterministically
    assert replay_failure(rep.findings[0], spec)


def test_remark2_findings_name_their_member_count_and_replay():
    # Past the hypothesis (codim 6 > n - 2), a coset of dimension 3 can hold
    # no constant-determinant member; each such case is a finding whose
    # detail counts the 27 members its search tried.
    spec = CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(6,),
                        rank_range=(2,), mode="sample", samples=300, seed=1,
                        allow_out_of_hypothesis=True)
    rep = run_campaign(spec)
    assert rep.verified and rep.failures == ()
    assert len(rep.findings) == 84
    for record in rep.findings:
        assert record.detail == f"no constant-determinant member among {3 ** 3}"
        assert replay_failure(record, spec)


def test_flanders_failure_names_the_members_of_a_low_rank_space(monkeypatch):
    # The whole 2 x 2 space has dimension 4 > n * r = 2, so it holds a
    # member of rank 2 and only a wrong rank kernel can fail it: capped at
    # r, the kernel reports every member as rank <= r.
    real = verify.rank_rows
    monkeypatch.setattr(verify, "rank_rows", lambda *args: min(real(*args), 1))
    spec = CampaignSpec(theorem="flanders", field=F2, n=2, p=2, codims=(0,), rank_range=(1,))
    rep = run_campaign(spec)
    assert rep.verdict == "failed"
    assert [record.detail for record in rep.failures] == ["all 16 members have rank <= 1"]


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@pytest.mark.parametrize("workers", [1, 2])
def test_on_case_is_called_in_index_order(workers):
    spec = _spec(codims=(1,))
    serial = []
    run_campaign(spec, on_case=lambda *case: serial.append(case))
    seen = []
    cpu0 = _children_cpu()
    run_campaign(dataclasses.replace(spec, workers=workers),
                 on_case=lambda idx, codim, r, v: seen.append((idx, codim, r, v)))
    assert [case[0] for case in seen] == list(range(len(seen)))
    assert len(seen) == 126
    assert seen == serial
    if workers > 1:  # the cases were judged by worker processes
        assert _children_cpu() > cpu0


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_gives_incomplete_report_of_a_prefix(workers):
    def on_case(idx, codim, r, verdict):
        if idx == 70:
            raise KeyboardInterrupt

    spec = _spec(codims=(1,), workers=workers)
    rep = run_campaign(spec, on_case=on_case)
    assert rep.incomplete and not rep.verified
    assert rep.total == rep.passed == 71
    h = hashlib.sha256()  # the case hash covers exactly cases 0..70
    for _idx, codim, space, r in islice(_case_stream(spec), 71):
        h.update(hashlib.sha256(f"{codim}|{r}|{space.to_text()}".encode()).digest())
    assert rep.case_order_hash == h.hexdigest()


def test_interrupted_run_with_a_failure_is_failed(monkeypatch):
    # The broken transport of test_conjugate_mismatch_records_replay plants
    # failures; the run stops after the first.  A counterexample refutes the
    # claim, so the verdict is failed, as the CLI's exit code 1 says.
    monkeypatch.setattr(verify, "transport",
                        lambda space, P, Q: from_generators(space.shape, []))

    def on_case(idx, codim, r, verdict):
        if verdict == verify.FAILED:
            raise KeyboardInterrupt

    rep = run_campaign(_spec(codims=(1,), rank_range=(1,), random_conjugates=1), on_case=on_case)
    assert rep.incomplete and len(rep.failures) == 1
    assert rep.verdict == "failed"
    assert json.loads(rep.to_json())["verdict"] == "failed"
    assert "verdict      FAILED" in rep.summary_text().splitlines()


def test_a_budget_stop_gives_an_incomplete_report_of_the_cases_before_it(monkeypatch):
    # Each of the 63 codim-1 cases walks at most 2^5 members; the first
    # codim-0 case would walk 2^6, over the budget of 32.
    spec = _spec(codims=(1, 0), rank_range=(1,), element_budget=32)
    reps = [run_campaign(dataclasses.replace(spec, workers=w)) for w in (1, 2, 3)]
    assert len({rep.signature() for rep in reps}) == 1
    rep = reps[0]
    assert rep.verdict == "incomplete" and rep.total == rep.passed == 63
    h = hashlib.sha256()
    for _idx, codim, space, r in islice(_case_stream(spec), 63):
        h.update(hashlib.sha256(f"{codim}|{r}|{space.to_text()}".encode()).digest())
    assert rep.case_order_hash == h.hexdigest()
    # A failure before the stop still refutes the claim.
    monkeypatch.setattr(verify, "transport",
                        lambda space, P, Q: from_generators(space.shape, []))
    rep = run_campaign(dataclasses.replace(spec, random_conjugates=1))
    assert rep.incomplete and rep.total == 63 and rep.failures
    assert rep.verdict == "failed"


def test_a_pooled_budget_stop_ends_its_workers_at_once():
    # Case 0 (codim 0, rank 0) walks 2^9 members, over the budget of 300;
    # the second worker's share is the rest of the ~22,000 cases, which a
    # stop must not wait for.
    spec = _spec(n=3, p=3, codims=(0, 1, 2), rank_range=(0, 1, 2),
                 allow_out_of_hypothesis=True, element_budget=300)
    serial = run_campaign(spec)
    start = time.monotonic()
    pooled = run_campaign(dataclasses.replace(spec, workers=2))
    assert time.monotonic() - start < 1.0
    assert multiprocessing.active_children() == []
    assert pooled.verdict == "incomplete" and pooled.total == 0
    assert pooled.signature() == serial.signature()


def test_a_dead_worker_ends_a_pooled_run_at_once():
    # A worker killed mid-share, as by the OOM killer, never sends its chunk;
    # the run ends with an error within seconds instead of waiting for it.
    # Each share is about 4.2M cases, minutes of work, and the later worker
    # is killed while the run waits on the first one's chunk.
    spec = _spec(n=4, p=3, codims=(0, 1, 2), rank_range=(0, 1, 2), workers=2)
    killed = []

    def kill_the_later_worker():
        deadline = time.monotonic() + 10
        while len(workers := multiprocessing.active_children()) < 2:
            if time.monotonic() > deadline:
                return
            time.sleep(0.01)
        victim = max(workers, key=lambda proc: proc.pid)
        os.kill(victim.pid, signal.SIGKILL)
        killed.append(victim.name)

    killer = threading.Thread(target=kill_the_later_worker, daemon=True)
    killer.start()
    start = time.monotonic()
    with pytest.raises(RuntimeError) as err:
        run_campaign(spec)
    assert time.monotonic() - start < 10
    killer.join(timeout=10)
    assert not killer.is_alive() and killed
    assert str(err.value) == f"the worker judging {killed[0]} exited with code -9"
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers must inherit the patched function")
def test_a_worker_error_reaches_the_caller(monkeypatch):
    # A worker sends its error back with its traceback, and the parent
    # raises it with its type, chained from that traceback, which names the
    # frame in the worker that raised it.
    def broken(*args):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(verify, "_process_case", broken)
    with pytest.raises(ZeroDivisionError, match="planted") as raised:
        run_campaign(_spec(codims=(1,), workers=2))
    cause = raised.value.__cause__
    assert isinstance(cause, verify._WorkerTraceback)
    assert 'in broken\n    raise ZeroDivisionError("planted")' in str(cause)
    assert multiprocessing.active_children() == []


def test_worker_chunks_come_back_packed(monkeypatch):
    # A chunk is (kinds, digests, records): one shared tuple per distinct
    # (codim, r, verdict), the digests joined, and the records by index; a
    # budget stop ends it at the cases before the overrun, so it is shorter
    # than its span.  Unpacked in the pool's order it is the serial stream,
    # up to the same BudgetExceededError.  Unpickled, a chunk of 126 passed
    # cases holds two kinds and one bytes, not a tuple and a digest per case.
    kinds, digests, records = pickle.loads(pickle.dumps(verify._judge_chunk(_spec(), (0, 126))))
    assert len({id(kind) for kind in kinds}) == 2 and len(kinds) == 126
    assert type(digests) is bytes and len(digests) == 32 * 126 and records == {}
    spec = _spec(codims=(1, 0), rank_range=(1,), element_budget=32, random_conjugates=1)
    monkeypatch.setattr(verify, "transport",
                        lambda space, P, Q: from_generators(space.shape, []))

    def until_the_stop(stream):
        cases = []
        with pytest.raises(BudgetExceededError):
            for case in stream:
                cases.append(case)
        return cases

    cases = until_the_stop(verify._judge(spec, 10, 70))
    kinds, digests, records = verify._judge_chunk(spec, (10, 70))
    assert kinds == [(codim, r, verdict) for _i, codim, r, verdict, _rec, _d in cases]
    assert len(kinds) == 53 < 70 - 10
    assert len({id(kind) for kind in kinds}) == len(set(kinds))
    assert digests == b"".join(case[5] for case in cases)
    assert all(len(case[5]) == 32 for case in cases)
    assert records and records == {case[0]: case[4] for case in cases if case[4] is not None}

    monkeypatch.setattr(verify, "_worker_chunks",
                        lambda spec, spans: (verify._judge_chunk(spec, span) for span in spans))
    monkeypatch.setattr(verify, "_available_cpus", lambda: 3)
    pooled = until_the_stop(verify._judge_in_pool(dataclasses.replace(spec, workers=3)))
    assert pooled == until_the_stop(verify._judge(spec))


def test_the_fold_streams(monkeypatch):
    # 200,000 synthetic cases, made lazily: the run keeps no per-case result.
    def judge(spec, lo=0, hi=None):
        for i in range(200_000):
            yield i, 1, 0, verify.PASSED, None, hashlib.sha256(i.to_bytes(4, "big")).digest()

    monkeypatch.setattr(verify, "_judge", judge)
    tracemalloc.start()
    try:
        rep = run_campaign(_spec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    assert rep.total == rep.passed == 200_000
    h = hashlib.sha256()
    for *_case, digest in judge(None):
        h.update(digest)
    assert rep.case_order_hash == h.hexdigest()


# ---------------------------------------------------------------- determinism


def test_reports_are_deterministic():
    spec = _spec(codims=(1,))
    a = run_campaign(spec)
    b = run_campaign(spec)
    assert a.signature() == b.signature()
    assert a.case_order_hash == b.case_order_hash


def test_sample_mode_is_seed_deterministic():
    spec = _spec(mode="sample", samples=20, seed=11, random_conjugates=1)
    a = run_campaign(spec)
    b = run_campaign(spec)
    assert a.signature() == b.signature()
    c = run_campaign(_spec(mode="sample", samples=20, seed=12))
    assert c.case_order_hash != a.case_order_hash


def test_parallel_run_matches_serial():
    spec = _spec(codims=(1,))
    serial = run_campaign(spec)
    parallel = run_campaign(_spec(codims=(1,), workers=2))
    assert serial.signature() == parallel.signature()


def test_parallel_sample_mode_matches_serial():
    spec = _spec(mode="sample", samples=12, seed=3)
    serial = run_campaign(spec)
    parallel = run_campaign(_spec(mode="sample", samples=12, seed=3, workers=3))
    assert serial.signature() == parallel.signature()


def test_pool_is_capped_at_the_available_cpus(monkeypatch):
    # The fake records the worker count and judges the chunks in-process,
    # so no worker process starts, whatever the requested count.
    sizes = []

    def inline_chunks(spec, spans):
        sizes.append(len(spans))
        return (verify._judge_chunk(spec, span) for span in spans)

    monkeypatch.setattr(verify, "_worker_chunks", inline_chunks)
    spec = _spec(codims=(1,))
    serial = run_campaign(spec).signature()
    assert run_campaign(dataclasses.replace(spec, workers=30_000)).signature() == serial
    monkeypatch.setattr(verify, "_available_cpus", lambda: 3)
    assert run_campaign(dataclasses.replace(spec, workers=30_000)).signature() == serial
    assert sizes[0] <= (os.cpu_count() or 1) and sizes[1:] == [3]


# (spec, case_order_hash, sha256 of signature()) for small campaigns of every
# claim family.  Any change to case order, case hashing or verdicts breaks
# these digests, and must be versioned in the report when they are updated.
PINNED_REPORTS = [
    (_spec(codims=(0, 1)),
     "8b0e0657443eb6dbb561e2b8d9890e74a90c3d18dded91c9a92d94b03cab5b54",
     "7c721e9a5e7c77231cb4a0392e2fde20f304137494f67e3e49065ca5cc8244fe"),
    # out-of-hypothesis codims: 26 findings
    (_spec(n=2, p=2, codims=(1, 2), rank_range=(1,), allow_out_of_hypothesis=True),
     "434328ab333aa1ee28f88a47551de3b61855941f052b74075393c67134b789ff",
     "250dc74c8995d31b8aa19698fefaa5c20bd52c47a1fca45ceb8a055da2779897"),
    # one filtered case
    (_spec(theorem="pencil", n=3, p=3, codims=(0, 1), rank_range=(2,)),
     "348ff86b9ed3475d5fb5afe9d98dcfbfaf2f9c7f4f385be54ede70cb6abeac91",
     "4a542901379421127db2e366900937e08aef4bd63725e0fac07cf15ae4259b3d"),
    # 15 filtered cases and 84 findings
    (_spec(theorem="square", n=2, p=2, codims=(0, 1, 2), rank_range=(0, 1),
           allow_out_of_hypothesis=True),
     "d2a26a9f81c9bc68c0aa08d6a84dc6607ac64cbd7dce4d11c2f8ffaadd76e16d",
     "55da2fe36a4286c2302d3a8cdfbc3d66146704e74db848182cf26c7b304fc3d5"),
    (_spec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,), rank_range=(2,),
           mode="sample", samples=15, seed=5),
     "66467caeaa4b9f3849939b59ccd60bf0a40a6c6a60d26bd420df056e4a60886f",
     "75f7f30dc4bcec442f9c3e32e25f94b181f2376cc6bf652f7315265276ba647c"),
    (_spec(theorem="remark2-conjecture", n=4, p=4, codims=(1,), rank_range=(3,),
           mode="sample", samples=2, seed=3),
     "935543aef724953ceed8512db585bd23c70986bb2830ff5b577100fce0ea8862",
     "6d45708edf3b548d1406600221b6ccb298335e8f482a1c0d5aac9448b694095f"),
    # 86 filtered cases
    (_spec(theorem="flanders", n=2, p=2, codims=(0, 1, 2), rank_range=(0, 1, 2)),
     "918481dd19225ce0deb391b2aa99fc6c227ba745db354d2f9388e4fb26daed3b",
     "3cb7736d0af05ca077ebe3f131ab995b9c413c75c485903bae96ca9340473f1e"),
    (_spec(field=F3, n=2, p=2, codims=(0,), mode="sample", samples=10, seed=9,
           random_conjugates=2),
     "d8c6ab03af735303ed90adb256bc5bda3529fc98678c278543aa8e1c7f68e256",
     "0e1480122e628b3018bd8c793111493aa5c5a694eaa080b7efd8d8ccf260bfcb"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_report_identity_is_pinned_for_every_family(workers):
    for spec, order_hash, signature_hash in PINNED_REPORTS:
        rep = run_campaign(dataclasses.replace(spec, workers=workers))
        assert rep.case_order_hash == order_hash, spec
        assert hashlib.sha256(rep.signature().encode()).hexdigest() == signature_hash, spec


def test_case_hash_text_is_rendered_once_per_space(monkeypatch):
    # Both ranks of a space hash the same text, so a serial run renders it
    # once per space; the case hash stays the pinned one.
    rendered = []
    real = LinearMatrixSubspace.to_text
    monkeypatch.setattr(LinearMatrixSubspace, "to_text",
                        lambda self: rendered.append(self) or real(self))
    spec, order_hash, _ = PINNED_REPORTS[0]
    assert spec.theorem == "main" and spec.workers == 1 and len(spec.rank_range) == 2
    rep = run_campaign(spec)
    assert rep.case_order_hash == order_hash
    assert rep.total == 2 * len(rendered) == 2 * len(set(rendered))


def test_campaigns_build_no_certificate(monkeypatch):
    # A campaign reads only whether a search found a witness, so no search
    # certificate is built for the hundreds of witnesses below.
    built, found = [], []
    monkeypatch.setattr(lines, "_finite_certificate", lambda *a: built.append(a))

    def counted(search):
        def run(*args, **kw):
            outcome = search(*args, **kw)
            found.append(outcome.found)
            return outcome
        return run
    for name in ("witness_search", "constant_det_witness_search"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    specs = [_spec(codims=(0, 1)),
             CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,),
                          rank_range=(2,), mode="sample", samples=100, seed=1)]
    for spec in specs:
        assert run_campaign(spec).verified
    assert all(found) and len(found) > 200
    assert built == []


def test_workers_do_not_change_report_identity():
    a = _spec(workers=1)
    b = _spec(workers=4)
    assert a.to_json_obj() == b.to_json_obj()


# -------------------------------------------------------------- serialization


def test_spec_codec_is_pinned():
    spec = CampaignSpec(theorem="square", field=F3, n=3, p=3, codims=(1, 0), rank_range=(2, 1),
                        mode="sample", samples=7, seed=5, workers=3, element_budget=999,
                        random_conjugates=2, allow_out_of_hypothesis=True)
    assert all(getattr(spec, f.name) != f.default for f in dataclasses.fields(spec))
    obj = spec.to_json_obj()
    assert list(obj.items()) == [
        ("theorem", "square"), ("field", "gf 3"), ("n", 3), ("p", 3), ("codims", [1, 0]),
        ("rank_range", [2, 1]), ("mode", "sample"), ("samples", 7), ("seed", 5),
        ("element_budget", 999), ("random_conjugates", 2), ("allow_out_of_hypothesis", True),
    ]
    assert CampaignSpec.from_json_obj(obj) == dataclasses.replace(spec, workers=1)
    for key in obj:  # every key is required on read
        with pytest.raises(KeyError):
            CampaignSpec.from_json_obj({k: v for k, v in obj.items() if k != key})


def test_report_json_round_trip():
    spec = _spec(codims=(1,), rank_range=(1,))
    rep = run_campaign(spec)
    blob = rep.to_json()
    data = json.loads(blob)
    assert data["verdict"] == "verified"
    assert data["counts"]["total"] == rep.total
    back = VerificationReport.from_json(blob)
    assert back.signature() == rep.signature()
    assert back.elapsed_ms == rep.elapsed_ms
    assert back.spec == rep.spec


def test_report_json_round_trip_with_findings():
    spec = _spec(n=2, p=2, codims=(1,), rank_range=(1,),
                 allow_out_of_hypothesis=True)
    rep = run_campaign(spec)
    back = VerificationReport.from_json(rep.to_json())
    assert back.findings == rep.findings
    assert back.signature() == rep.signature()


def test_case_record_round_trip():
    spec = _spec(n=2, p=2, codims=(1,), rank_range=(1,),
                 allow_out_of_hypothesis=True)
    rep = run_campaign(spec)
    rec = rep.findings[0]
    back = CaseRecord.from_json_obj(rec.to_json_obj())
    assert back == rec
    assert back.space().codim == 1
    assert rank(Matrix.from_text(back.n_text)) == 1


def test_summary_text_mentions_counts():
    rep = run_campaign(_spec(codims=(1,), rank_range=(1,)))
    text = rep.summary_text()
    assert "passed" in text
    assert str(rep.total) in text
    assert "verified" in text
