"""Command-line frontend.

Subcommands: check-line, witness, verify, gen, pencil-det.  Exit codes are
a stable contract: 0 success/verified, 1 definite negative (rank drop,
no witness, campaign failure), 2 usage/parse/hypothesis error (including
the library's ValueError for a bad A/N pair), 3 resource exhaustion
(budgets).  All randomness flows from --seed, which defaults to 0 rather
than entropy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .fields import parse_field
from .gallery import EXAMPLES
from .lines import (
    BUDGET_EXHAUSTED,
    WITNESS_FOUND,
    line_full_rank,
    witness_search,
)
from .matrices import Matrix
from .pencils import det_pencil
from .spaces import DEFAULT_ELEMENT_BUDGET, BudgetExceededError, parse_subspace_text
from .verify import (
    THEOREMS,
    CampaignSpec,
    default_rank_range,
    run_campaign,
    validate_spec,
)


class _UsageError(Exception):
    """Bad inputs: parse failures, shape/field mismatches, hypothesis violations."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: Path, text: str, mode: str = "w", make_parents: bool = False) -> None:
    try:
        if make_parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        with path.open(mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


@contextmanager
def _usage_errors(prefix: str = ""):
    """The library's ValueError, which reports a bad input, becomes a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(f"{prefix}{exc}") from exc


def _load(path: str, parse=Matrix.from_text):
    """The parsed contents of a matrix file, or of another text format by ``parse``."""
    with _usage_errors(f"{path}: "):
        return parse(_read_text(path))


def _parse_int_list(text: str, top: int, what: str) -> tuple[int, ...]:
    """Accepts '1', '0,2', and '0-3' (inclusive range) forms; a value above
    top is refused before its range is expanded."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        lo_s, sep, hi_s = part.partition("-")
        try:
            lo, hi = int(lo_s), int(hi_s if sep else lo_s)
        except ValueError:
            raise _UsageError(f"expected an integer or a range lo-hi, got {part!r}") from None
        if hi < lo:
            raise _UsageError(f"empty range {part!r}")
        if hi > top:
            raise _UsageError(f"{what} {hi} exceeds {top}")
        out.extend(range(lo, hi + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_line(args) -> int:
    A = _load(args.A)
    N = _load(args.N)
    with _usage_errors():
        ok, payload = line_full_rank(A, N)
    if ok:
        if args.format == "json":
            print(payload.to_json())
        else:
            a = payload.analysis
            print("full-rank line")
            print(f"  {a.poly_kind}: {a.poly}")
            print(f"  classification: {a.classification}")
        return 0
    if args.format == "json":
        print(json.dumps({"verdict": "rank-drop", "t0": str(payload)}, indent=2))
    else:
        print(f"rank drops at t = {payload}")
    return 1


def _cmd_witness(args) -> int:
    space = _load(args.space, parse_subspace_text)
    N = _load(args.N)
    with _usage_errors():
        outcome = witness_search(space, N, strategy=args.strategy,
                                 budget=args.budget, seed=args.seed)
    if outcome.status == WITNESS_FOUND:
        cert = outcome.certificate
        if args.format == "json":
            obj = cert.to_json_obj()
            obj["cases_examined"] = outcome.cases_examined
            print(json.dumps(obj, indent=2))
        else:
            print(f"witness found after {outcome.cases_examined} candidates")
            print(cert.A.to_text(), end="")
        return 0
    if args.format == "json":
        print(json.dumps({"verdict": outcome.status,
                          "cases_examined": outcome.cases_examined}, indent=2))
    else:
        print(f"{outcome.status} ({outcome.cases_examined} candidates)")
    return 3 if outcome.status == BUDGET_EXHAUSTED else 1


def _cmd_verify(args) -> int:
    with _usage_errors():
        field = parse_field(f"gf {args.q}")
    n = args.n
    p = args.p if args.p is not None else n
    codims = (_parse_int_list(args.codim, n * p, "codimension") if args.codim is not None
              else tuple(range(max(n - 1, 1))))
    if args.rank is not None:
        ranks = _parse_int_list(args.rank, p, "rank")
    else:
        with _usage_errors():
            ranks = default_rank_range(args.theorem, n, p)
    # Every other spec field is the parsed option of the same name.
    values = vars(args) | {"field": field, "p": p, "codims": codims, "rank_range": ranks}
    spec = CampaignSpec(**{f.name: values[f.name] for f in fields(CampaignSpec)})
    with _usage_errors():
        validate_spec(spec)
    out = Path(args.out) if args.out else None
    if out:  # a bad path fails here, not after the campaign
        existed = os.path.lexists(out)
        _write_text(out, "", mode="a")  # "a" keeps an existing file as it is
        if not existed:  # a campaign that stops without a report leaves no file
            out.unlink()
    report = run_campaign(spec)
    text = report.summary_text() if args.format == "text" else report.to_json()
    if out:
        _write_text(out, text + "\n")
    else:
        print(text)
    return {"verified": 0, "failed": 1, "incomplete": 3}[report.verdict]


def _cmd_gen(args) -> int:
    with _usage_errors():
        field = parse_field(args.field)
    params, build = EXAMPLES[args.example]
    missing = [k for k in params if getattr(args, k) is None]
    if missing:
        raise _UsageError(f"example {args.example} needs --{', --'.join(missing)}")
    with _usage_errors():
        parts = list(build(field, *(getattr(args, k) for k in params)))
    for part, obj in parts:
        path = Path(args.out) / f"{args.example}_{part}.txt"
        _write_text(path, obj.to_text(), make_parents=True)
        print(path)
    return 0


def _cmd_pencil_det(args) -> int:
    A = _load(args.A)
    N = _load(args.N)
    with _usage_errors():
        poly = det_pencil(A, N)
    if args.format == "json":
        f = A.field
        print(json.dumps({
            "poly": str(poly),
            "coeffs": [f.format(c) for c in poly.coeffs],
            "degree": None if poly.is_zero else poly.degree,
        }, indent=2))
    else:
        print(poly)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranklines",
        description="Exact full-rank matrix line analysis and exhaustive verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")

    p = sub.add_parser("check-line", help="decide whether A + tN has rank p for every t")
    p.add_argument("A", help="matrix file for the base point A")
    p.add_argument("N", help="matrix file for the direction N")
    add_format(p)
    p.set_defaults(func=_cmd_check_line)

    p = sub.add_parser("witness", help="search a subspace for a full-rank-line witness")
    p.add_argument("space", help="subspace file (linear or affine)")
    p.add_argument("N", help="matrix file for the direction N")
    p.add_argument("--strategy", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--budget", type=int, default=None,
                   help="element budget (exhaustive) or sample count (random)")
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--theorem", choices=THEOREMS, required=True)
    p.add_argument("--q", type=int, required=True, help="field size (prime)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=None, help="column count (default n)")
    p.add_argument("--codim", default=None,
                   help="codimensions, e.g. '1', '0,1', '0-2' (default all <= n-2)")
    p.add_argument("--rank", default=None,
                   help="direction ranks (default: all allowed by the theorem)")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--samples", type=int, default=0,
                   help="subspaces per codimension in sample mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--element-budget", type=int, default=DEFAULT_ELEMENT_BUDGET)
    p.add_argument("--random-conjugates", type=int, default=0,
                   help="re-test each case under this many random equivalences")
    p.add_argument("--allow-out-of-hypothesis", action="store_true",
                   help="sweep codimensions beyond n-2; violations become findings")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="write a named example to files")
    p.add_argument("--example", choices=EXAMPLES, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--field", default="gf 2", help="'gf <prime>' or 'rat' (default 'gf 2')")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pencil-det", help="print det(A + tN) as a polynomial")
    p.add_argument("A", help="matrix file for A")
    p.add_argument("N", help="matrix file for N")
    add_format(p)
    p.set_defaults(func=_cmd_pencil_det)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
