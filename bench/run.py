"""The ranklines benchmark: one command, named workloads, checked outputs.

    python3 bench/run.py --workload sweep-main-gf2 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; stdlib only.  ``--trace 0`` sets the
workload up seven times (imports, seeded inputs, spec validation, warm-up)
and reports the median as ``setup_s``, then repeats passes of the workload
untraced for ``--seconds`` and reports the end-to-end metrics, scaled to
a reference host speed (see ``timed_run``).
``--trace 1`` runs one untraced pass here and the same pass traced in a
child process (bench/trace.py), and reports the per-layer metrics plus the
tracing overhead (traced minus untraced wall time of that pass).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds ungated metadata (Python version, nproc, commit, seed, ``src/``
line count, sample counts).  Outputs are checked every run, outside the
timed region; failed ops count in ``failed`` and the run carries on.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
# Calibration time (workloads.calibrate) of the reference host, in seconds.
CAL_REF_S = 0.025


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def commit() -> str:
    head = workloads.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (workloads.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((workloads.SRC / "ranklines").glob("*.py")))


def metadata(args, extra: dict) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "seed": args.seed, "workload": args.workload,
            "src_lines": src_lines(), **extra}


def timed_run(args):
    """Repeat every chunk for ``--seconds``; report medians at reference speed.

    The host is shared, and its speed drifts by tens of percent over tens
    of seconds, so every chunk and set-up is timed between two calibrations
    (workloads.calibrate) and scaled by CAL_REF_S over their mean: the
    figures read as on a host where the calibration takes CAL_REF_S.  The
    raw figures go into the metadata line.  Set-ups are spread over the run
    (one before the first round, one after each later round).
    """
    setups = []
    raw_setups = []
    speeds = []
    cal = workloads.calibrate()

    def scaled():
        """Scale factor for the work timed since ``cal``; takes the next calibration."""
        nonlocal cal
        after = workloads.calibrate()
        factor = CAL_REF_S / ((cal + after) / 2)
        cal = after
        speeds.append(factor)
        return factor

    def timed_setup():
        gc.collect()
        t0 = time.perf_counter()
        state = workloads.setup(args.workload, args.seed)
        wall = time.perf_counter() - t0
        raw_setups.append(wall)
        setups.append(wall * scaled())
        return state

    state = timed_setup()
    n = workloads.chunk_count(args.workload, state)
    walls = [[] for _ in range(n)]
    raw_walls = [[] for _ in range(n)]
    lats = [[] for _ in range(n)]
    chunk_ops = [0] * n
    first_outputs = [None] * n
    attempted = failed = rounds = 0
    problems = []
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for i in range(n):
            if rounds >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                break
            gc.collect()
            res = workloads.run_chunk(args.workload, state, i)
            factor = scaled()
            if first_outputs[i] is None:
                workloads.check_chunk(args.workload, state, i, res)
                first_outputs[i] = res.outputs
            elif res.outputs != first_outputs[i]:
                res.fail(res.ops, f"chunk {i} output differs from its first run")
            attempted += res.ops
            failed += res.failed
            problems += res.problems
            if res.wall_s > 0:
                walls[i].append(res.wall_s * factor)
                raw_walls[i].append(res.wall_s)
                chunk_ops[i] = res.ops
                lats[i].append([x * factor for x in res.lat_ms])
        rounds += 1
        if len(setups) < SETUP_REPEATS:
            state = timed_setup()
    while len(setups) < SETUP_REPEATS:
        state = timed_setup()

    # Each chunk's median time over its repeats, and each op's median
    # latency over the repeats of its chunk (the same op at the same index
    # every time).  If every run of a chunk raised, it has nothing to time;
    # if all did, the figures read 0.
    timed = [i for i in range(n) if walls[i]]
    ops = sum(chunk_ops[i] for i in timed)
    wall = sum(statistics.median(walls[i]) for i in timed)
    raw_wall = sum(statistics.median(raw_walls[i]) for i in timed)
    lat = []
    for i in timed:
        full = [r for r in lats[i] if len(r) == len(lats[i][0])]
        lat += [statistics.median(op) for op in zip(*full)]
    lat = lat or [0.0]
    metrics = {
        "ops_per_s": (ops / wall if wall else 0.0, "1/s"),
        "op_p50_ms": (percentile(lat, 0.50), "ms"),
        "op_p99_ms": (percentile(lat, 0.99), "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {"rounds": rounds, "chunks": n, "latency_samples": len(lat),
             "raw_ops_per_s": ops / raw_wall if raw_wall else 0.0,
             "raw_setup_s": statistics.median(raw_setups),
             "host_speed": statistics.median(speeds)}
    if args.workload == "sweep-main-gf2":
        pooled = workloads.run_pool_pass(state)
        attempted += pooled.ops
        failed += pooled.failed
        problems += pooled.problems
        extra["pool_w2_ops_per_s"] = pooled.ops / pooled.wall_s if pooled.wall_s else None
    # After the pool pass, so that its worker processes count too.
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    failed = min(attempted, failed)
    extra.update(failed_frac=failed / attempted, problems=problems[:20])
    return attempted, failed, metrics, metadata(args, extra)


def traced_run(args):
    """Untraced rounds here, then one round traced in a child process.

    The tracing overhead is the traced round's wall time minus that of the
    faster of two untraced rounds.
    """
    state = workloads.setup(args.workload, args.seed)
    plain = workloads.Pass()
    walls = []
    for _ in range(2):
        wall = 0.0
        for i in range(workloads.chunk_count(args.workload, state)):
            res = workloads.run_chunk(args.workload, state, i)
            if not walls:
                workloads.check_chunk(args.workload, state, i, res)
            plain.ops += res.ops
            plain.failed += res.failed
            plain.problems += res.problems
            wall += res.wall_s
        walls.append(wall)
    plain.wall_s = min(walls)
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "trace.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=workloads.ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"traced run exited with {proc.returncode}")
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain.wall_s, "s")
    attempted = plain.ops + traced["ops"]
    failed = min(attempted, plain.failed + traced["failed"])
    meta = metadata(args, {
        "untraced_round_s": plain.wall_s, "traced_round_s": traced["wall_s"],
        "problems": (plain.problems + traced["problems"])[:20],
    })
    return attempted, failed, metrics, meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        attempted, failed, metrics, meta = (traced_run if args.trace else timed_run)(args)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
