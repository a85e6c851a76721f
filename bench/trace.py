"""Traced run: per-layer spans recorded from the benchmark's own files.

Run as a separate process by ``run.py --trace 1``, so the wrapped names
never exist in a process whose timings are reported as end-to-end metrics:

    python3 bench/trace.py --workload sweep-main-gf2 --seed 1

It imports the package, replaces the names each module imports from
another layer (for example ``ranklines.lines.rank_rows`` and
``ranklines.verify.witness_search``) and the ``elements()`` methods of the
subspace classes with wrappers that record spans, runs every chunk of the
workload once, and prints the per-layer metrics as one JSON line.  Nothing
under ``src/`` is modified.

A span is (name, start, end, parent); spans are kept in memory and written
to ``.bench_out/spans-<workload>-seed<seed>.tsv.gz`` when the run ends.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


class Tracer:
    """In-memory span store with an explicit stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, k: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def call(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def iterate(self, name: str, fn, item_key: str):
        """Wrap a function returning an iterator: each ``next`` is a span."""
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                sid = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(sid)
                self.count(item_key)
                yield item
        return wrapper

    def summary(self):
        """Per-name [count, top-level count, top-level time, self time].

        A top-level span is one whose parent has another name, so time
        is not counted twice where a layer calls itself."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
        stats = {name: [0, 0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            par = self.parent[i]
            s[0] += 1
            if par < 0 or self.name[par] != self.name[i]:
                s[1] += 1
                s[2] += dur[i]
            s[3] += dur[i] - child[i]
        return stats

    def write(self, path: Path) -> None:
        """Gzipped TSV: one row per span, times in ns from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names\t" + "\t".join(self.names) + "\n")
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            fh.writelines(f"{i}\t{nid}\t{round((s - t0) * 1e9)}\t{round((e - t0) * 1e9)}\t{par}\n"
                          for i, (nid, s, e, par) in enumerate(zip(self.name, self.start,
                                                                    self.end, self.parent)))


FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")


def install(tracer: Tracer, rl) -> dict:
    """Wrap the cross-layer names; returns the wrapped entry points the bench calls."""
    sp, ln, vf, pc, fl = rl.spaces, rl.lines, rl.verify, rl.pencils, rl.fields

    def patch(obj, attr, make):
        setattr(obj, attr, make(getattr(obj, attr)))

    # spaces: member iteration, subspace generation, the case-hash text
    for cls in (sp.LinearMatrixSubspace, sp.AffineMatrixSubspace):
        patch(cls, "elements", lambda f: tracer.iterate("spaces.members", f, "members"))
        patch(cls, "to_text", lambda f: tracer.call("spaces.to_text", f))
    for attr in ("enumerate_subspaces", "enumerate_affine"):
        patch(vf, attr, lambda f: tracer.iterate("spaces.enum", f, "enum_spaces"))
    for attr in ("random_subspace", "random_affine"):
        patch(vf, attr, lambda f: tracer.call("spaces.enum", f,
                                              lambda _r: tracer.count("enum_spaces")))

    # matrices: elimination kernels as the other layers import them
    for mod in (ln, vf, pc):
        patch(mod, "rank_rows", lambda f: tracer.call("matrices.rank", f))
    patch(ln, "rank", lambda f: tracer.call("matrices.rank", f))
    for mod in (ln, vf):
        patch(mod, "_det_modp", lambda f: tracer.call("matrices.det", f))

    # lines: searches and certificates
    def search_done(outcome):
        tracer.count("search_members", outcome.cases_examined)
        tracer.count("search_found", outcome.found)
    for attr in ("witness_search", "constant_det_witness_search"):
        patch(vf, attr, lambda f: tracer.call("lines.search", f, search_done))
    patch(ln, "_finite_certificate", lambda f: tracer.call("lines.cert", f))

    # verify: per-case judging and side conditions
    def case_done(result):
        tracer.count("cases_filtered", result[0] == vf.FILTERED)
    patch(vf, "_process_case", lambda f: tracer.call("verify.case", f, case_done))
    patch(vf, "_side_condition_exists", lambda f: tracer.call("verify.side_condition", f))

    # pencils and polynomials
    for mod in (pc, ln):
        patch(mod, "det_pencil", lambda f: tracer.call("pencils.det_pencil", f))
    patch(pc, "minor_gcd", lambda f: tracer.call("pencils.minor_gcd", f))
    patch(pc, "rational_roots",
          lambda f: tracer.call("polynomials.roots", f,
                                lambda roots: tracer.count("roots_hit", bool(roots))))
    classify = tracer.call("pencils.classify", pc.classify_line)
    ln.classify_line = classify

    # fields: a count only; timing each call would measure the wrapper
    def counted(f):
        def wrapper(*args):
            tracer.counts["field_ops"] = tracer.counts.get("field_ops", 0) + 1
            return f(*args)
        return wrapper
    for attr in FIELD_OPS:
        patch(fl.FieldDesc, attr, counted)

    return {"run_campaign": tracer.call("verify.campaign", vf.run_campaign),
            "classify_line": classify}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, by the names BENCHMARK.json declares."""
    st = tracer.summary()
    c = tracer.counts

    def n(name):
        return st.get(name, [0, 0, 0.0, 0.0])[0]

    def top(name):
        return st.get(name, [0, 0, 0.0, 0.0])[2]

    def own(name):
        return st.get(name, [0, 0, 0.0, 0.0])[3]

    def ratio(a, b):
        return a / b if b else 0.0

    members = c.get("members", 0)
    searches = n("lines.search")
    roots = n("polynomials.roots")
    return {
        "spaces.members": (members, "count"),
        "spaces.members_s": (top("spaces.members"), "s"),
        "spaces.enum_spaces": (c.get("enum_spaces", 0), "count"),
        "spaces.enum_s": (top("spaces.enum"), "s"),
        "spaces.to_text_calls": (st.get("spaces.to_text", [0, 0])[1], "count"),
        "spaces.to_text_s": (top("spaces.to_text"), "s"),
        "matrices.rank_calls": (n("matrices.rank"), "count"),
        "matrices.rank_s": (top("matrices.rank"), "s"),
        "matrices.det_calls": (n("matrices.det"), "count"),
        "matrices.det_s": (top("matrices.det"), "s"),
        "matrices.rank_per_member": (ratio(n("matrices.rank"), members), "ratio"),
        "lines.searches": (searches, "count"),
        "lines.search_self_s": (own("lines.search"), "s"),
        "lines.members_per_search": (ratio(c.get("search_members", 0), searches), "ratio"),
        "lines.witness_rate": (ratio(c.get("search_found", 0), searches), "ratio"),
        "lines.cert_s": (top("lines.cert"), "s"),
        "verify.cases": (n("verify.case"), "count"),
        "verify.case_self_s": (own("verify.case"), "s"),
        "verify.side_condition_calls": (n("verify.side_condition"), "count"),
        "verify.side_condition_s": (top("verify.side_condition"), "s"),
        "verify.filtered_frac": (ratio(c.get("cases_filtered", 0), n("verify.case")), "ratio"),
        "pencils.classify_calls": (n("pencils.classify"), "count"),
        "pencils.classify_self_s": (own("pencils.classify"), "s"),
        "pencils.det_pencil_calls": (n("pencils.det_pencil"), "count"),
        "pencils.det_pencil_s": (top("pencils.det_pencil"), "s"),
        "pencils.minor_gcd_s": (top("pencils.minor_gcd"), "s"),
        "polynomials.roots_calls": (roots, "count"),
        "polynomials.roots_s": (top("polynomials.roots"), "s"),
        "polynomials.roots_hit_rate": (ratio(c.get("roots_hit", 0), roots), "ratio"),
        "fields.ops": (c.get("field_ops", 0), "count"),
        "trace.spans": (len(tracer.name), "count"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    try:
        state = workloads.setup(args.workload, args.seed)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer()
    hooks = install(tracer, state.rl)
    hook = hooks["classify_line" if args.workload == "classify-rat" else "run_campaign"]
    n = workloads.chunk_count(args.workload, state)
    parts = [workloads.run_chunk(args.workload, state, i, hook) for i in range(n)]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer).items()}
    tracer.write(workloads.ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    # Checks run after the spans are summarized, so their calls are not counted.
    for i, part in enumerate(parts):
        workloads.check_chunk(args.workload, state, i, part)
    print(json.dumps({"wall_s": sum(p.wall_s for p in parts),
                      "ops": sum(p.ops for p in parts),
                      "failed": sum(p.failed for p in parts),
                      "problems": [m for p in parts for m in p.problems][:20],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
