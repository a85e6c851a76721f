"""The benchmark's traced run can still wrap every name it patches, and a
short traced run of the sampled Remark 2 workload passes its own checks.

``bench/trace.py`` replaces module attributes of the package by name, so a
rename under ``src/`` would break the traced run without failing any other
test.  The check runs in a subprocess: ``install`` patches classes for the
rest of the process, and ``bench/trace.py`` shadows the standard library's
``trace`` module once ``bench/`` is first on ``sys.path``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path.insert(0, "bench")
import trace, workloads
assert trace.__file__.endswith("bench/trace.py"), trace.__file__
rl = workloads.load_ranklines()
tracer = trace.Tracer()
hooks = trace.install(tracer, rl)
F2, F3 = rl.fields.GF(2), rl.fields.GF(3)
Spec = rl.verify.CampaignSpec
specs = [Spec(theorem="main", field=F2, n=3, p=2, codims=(1,), rank_range=(1,)),
         Spec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,),
              rank_range=(2,), mode="sample", samples=20, seed=1)]
reports = [hooks["run_campaign"](spec) for spec in specs]
Q = rl.fields.RATIONALS
M = rl.matrices.Matrix
hooks["classify_line"](M.from_rows(Q, [[1, 2], [3, 4]]), M.from_rows(Q, [[1, 0], [0, 0]]))
print(json.dumps({k: v for k, (v, _u) in trace.layer_metrics(tracer).items()}))
print(json.dumps({"expected": sum(rl.verify.expected_total(spec) for spec in specs),
                  "filtered": sum(rep.filtered for rep in reports)}))
"""


def test_trace_install_patches_every_name_and_records_each_layer():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, metrics_line, totals_line = proc.stdout.strip().splitlines()
    metrics, totals = json.loads(metrics_line), json.loads(totals_line)
    for name in ("spaces.members", "spaces.enum_spaces", "spaces.to_text_calls",
                 "matrices.rank_calls", "matrices.det_calls", "lines.searches",
                 "verify.cases", "verify.side_condition_calls", "pencils.classify_calls",
                 "pencils.det_pencil_calls", "polynomials.roots_calls"):
        assert metrics[name] > 0, name
    # Every case of the hooked campaigns passed through the wrapped names.
    assert metrics["verify.cases"] == totals["expected"]
    assert metrics["lines.searches"] == totals["expected"] - totals["filtered"]


def test_traced_remark2_run_is_correct_and_checks_its_direction_once():
    # About 3 s: one untimed pass, one traced pass, each 8 x 400 cases.
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sample-remark2-gf3",
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Every case searches with canonical_N(2); its rank is taken once per
    # process, by the warm-up campaign before the traced pass.
    assert metrics["matrices.rank_calls"] <= 1
    assert metrics["verify.side_condition_calls"] == metrics["lines.searches"] == 3200


WALK_SCRIPT = """
import json, sys
sys.path.insert(0, "bench")
import trace, workloads
rl = workloads.load_ranklines()
tracer = trace.Tracer()
trace.install(tracer, rl)
sp = rl.spaces
shape = sp.MatrixSpaceShape(rl.fields.GF(3), 2, 2)
coset = next(sp.enumerate_affine(shape, 2))
linear = next(sp.enumerate_subspaces(shape, 1))
yielded = sum(1 for space in (coset, linear) for _rows in space.elements())
print(json.dumps({"yielded": yielded, "counted": tracer.counts.get("members", 0)}))
"""


def test_trace_counts_each_member_once_for_both_subspace_kinds():
    # bench/trace.py wraps elements() on each public class in turn; were one
    # class to inherit the other's wrapped method, its members would count twice.
    proc = subprocess.run([sys.executable, "-c", WALK_SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got == {"yielded": 9 + 27, "counted": 9 + 27}
