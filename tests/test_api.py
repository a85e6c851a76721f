"""The public names of the package, the members of ``Poly`` and the fields of
``CampaignSpec`` are pinned, so growing the API is a deliberate edit."""

from __future__ import annotations

import ast
import sys
import types
from dataclasses import dataclass, fields
from pathlib import Path

import ranklines

PUBLIC_NAMES = [
    "AffineMatrixSubspace", "BUDGET_EXHAUSTED", "BudgetExceededError", "CONSTANT_NONZERO",
    "CampaignSpec", "CampaignSpecError", "CaseRecord", "DEFAULT_ELEMENT_BUDGET",
    "EXAMPLE_NAMES", "EXHAUSTED_NO_WITNESS", "FieldDesc", "FieldMismatchError", "GF",
    "HAS_ROOT", "IDENTICALLY_ZERO", "LinearMatrixSubspace", "Matrix", "MatrixSpaceShape",
    "NONCONSTANT_NO_ROOT", "PencilAnalysis", "Poly", "RATIONALS", "Scalar", "SearchOutcome",
    "VerificationReport", "WITNESS_FOUND", "WitnessCertificate", "affine_from_point",
    "canonical_N", "classify_line", "constant_det_witness_search", "count_subspaces",
    "default_rank_range", "det", "det_pencil", "enumerate_affine", "enumerate_subspaces",
    "expected_total", "flanders_extremal", "from_generators", "lemma1_witness",
    "line_full_rank", "minor_gcd", "parse_field", "parse_subspace_text", "random_affine",
    "random_invertible", "random_subspace", "rank", "rational_roots", "remark1_example",
    "remark2_f2_example", "replay_failure", "run_campaign", "sharpness_example",
    "to_rank_normal_form", "transport", "validate_certificate", "validate_spec",
    "witness_search",
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package once imported; they are not API names.
    names = sorted(name for name, value in vars(ranklines).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


# Poly is a value with no K[t] arithmetic: its fields and what it adds to a
# bare frozen dataclass are pinned, so an operator cannot come back unnoticed.
POLY_SURFACE = ["__call__", "__str__", "coeffs", "degree", "field", "from_coeffs", "is_zero"]


@dataclass(frozen=True)
class _Bare:
    field: object
    coeffs: tuple


def test_poly_members_are_pinned():
    Poly = ranklines.Poly
    added = set(vars(Poly)) - set(vars(_Bare))
    assert sorted(added | {f.name for f in fields(Poly)}) == POLY_SURFACE


# CampaignSpec's JSON codec is derived from its fields, so every field but
# workers reaches the report identity by itself.
CAMPAIGN_SPEC_FIELDS = ["theorem", "field", "n", "p", "codims", "rank_range", "mode", "samples",
                        "seed", "workers", "element_budget", "random_conjugates",
                        "allow_out_of_hypothesis"]


def test_campaign_spec_fields_are_pinned():
    assert [f.name for f in fields(ranklines.CampaignSpec)] == CAMPAIGN_SPEC_FIELDS


def test_runtime_imports_only_the_standard_library():
    # The runtime stays stdlib-only: every absolute import under the package
    # names a standard-library module; relative imports stay inside it.
    paths = sorted(Path(ranklines.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (path.name, module)
