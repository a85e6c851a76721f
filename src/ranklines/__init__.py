"""Exact linear algebra over GF(p) and the rationals for full-rank matrix
lines: pencil analysis, subspace enumeration, witness search, and
exhaustive verification campaigns."""

from .fields import (
    GF,
    RATIONALS,
    FieldDesc,
    FieldMismatchError,
    Scalar,
    parse_field,
)
from .gallery import (
    EXAMPLE_NAMES,
    flanders_extremal,
    lemma1_witness,
    remark1_example,
    remark2_f2_example,
    sharpness_example,
)
from .lines import (
    BUDGET_EXHAUSTED,
    EXHAUSTED_NO_WITNESS,
    WITNESS_FOUND,
    SearchOutcome,
    WitnessCertificate,
    constant_det_witness_search,
    line_full_rank,
    validate_certificate,
    witness_search,
)
from .matrices import (
    Matrix,
    canonical_N,
    det,
    random_invertible,
    rank,
    to_rank_normal_form,
)
from .pencils import (
    CONSTANT_NONZERO,
    HAS_ROOT,
    IDENTICALLY_ZERO,
    NONCONSTANT_NO_ROOT,
    PencilAnalysis,
    classify_line,
    det_pencil,
    minor_gcd,
)
from .polynomials import Poly, rational_roots
from .spaces import (
    DEFAULT_ELEMENT_BUDGET,
    AffineMatrixSubspace,
    BudgetExceededError,
    LinearMatrixSubspace,
    MatrixSpaceShape,
    affine_from_point,
    count_subspaces,
    enumerate_affine,
    enumerate_subspaces,
    from_generators,
    parse_subspace_text,
    random_affine,
    random_subspace,
    transport,
)
from .verify import (
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

__version__ = "0.1.0"
