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


def _private_definitions(tree: ast.Module):
    """The module-level private names a module defines: functions, classes
    and assignment targets starting with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_used():
    # A private function, class or constant that no code under the package
    # loads, by name or as an attribute, is dead: a refactor left it behind.
    # A name counts as loaded in its own module and in a module that
    # imports it from there, so two modules' same-named helpers are told apart.
    paths = sorted(Path(ranklines.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}
    loaded = {module: set() for module in trees}
    imported = {module: set() for module in trees}  # (module, name) pairs it imports
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded[module].add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded[module].add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imported[module].update((node.module, alias.name) for alias in node.names)
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}

    def used(module, name):
        return (name in loaded[module] or name in attributes
                or any((module, name) in imported[m] and name in loaded[m] for m in trees))
    defined = [(module, name) for module, tree in trees.items()
               for name in _private_definitions(tree)]
    assert len(defined) > 80
    assert [pair for pair in defined if not used(*pair)] == []


# Names imported but never loaded.  bench/trace.py wraps these two by their
# module's name, so they stay until the benchmark counts at the layers
# themselves; nothing else may join them.
UNUSED_IMPORTS = [("lines", "det_pencil"), ("pencils", "rank_rows")]


def test_every_imported_name_is_used():
    # An import that its module never loads is a leftover of a refactor.
    # __init__ only re-exports, so it is exempt.
    unused = []
    for path in sorted(Path(ranklines.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.append((path.stem, name))
    assert unused == UNUSED_IMPORTS
