"""Campaign validation, execution, determinism, and report serialization."""

from __future__ import annotations

import json

import pytest

from ranklines.fields import GF, RATIONALS
from ranklines.matrices import rank
from ranklines.verify import (
    CampaignSpec,
    CampaignSpecError,
    CaseRecord,
    VerificationReport,
    default_rank_range,
    expected_total,
    replay_failure,
    run_campaign,
    validate_spec,
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


def test_validate_main_needs_p_at_least_two():
    with pytest.raises(CampaignSpecError):
        validate_spec(_spec(n=3, p=1, codims=(1,), rank_range=(0,)))


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
    from ranklines.verify import _case_stream

    for idx, codim, space, r in _case_stream(spec):
        ranks = [rank(M) for M in space.elements()]
        if min(ranks) == 2:
            expected = "filtered"  # no singular member: side condition fails
        elif max(ranks) == 2:
            expected = "passed"
        else:
            expected = "finding"  # out-of-hypothesis codim, so not a failure
        assert verdicts[idx] == expected


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


def test_on_case_is_called_in_index_order():
    seen = []
    spec = _spec(codims=(1,))
    run_campaign(spec, on_case=lambda idx, codim, r, v: seen.append(idx))
    assert seen == list(range(len(seen)))
    assert len(seen) == 126


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


def test_workers_do_not_change_report_identity():
    a = _spec(workers=1)
    b = _spec(workers=4)
    assert a.to_json_obj() == b.to_json_obj()


# -------------------------------------------------------------- serialization


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
    assert back.direction() is not None
    assert rank(back.direction()) == 1


def test_summary_text_mentions_counts():
    rep = run_campaign(_spec(codims=(1,), rank_range=(1,)))
    text = rep.summary_text()
    assert "passed" in text
    assert str(rep.total) in text
    assert "verified" in text
