"""Rules and matrix oracles for symplectic-period parameter classification.

The package has two layers that check each other.  The symbolic layer
models parameters as multisets of segments St(k, rho) over a catalog of
cuspidal labels and answers distinction, symplectic-image, and
ellipticity questions by duality bookkeeping.  The matrix layer realizes
small parameters by the tensor factors of explicit generators (finite
groups tensored with symmetric powers), computes invariant bilinear forms
exactly, and settles
the same questions by linear algebra.  The CLI and the conjecture sweep
insist the two layers agree.
"""

from .exactnum import QQi
from .param_core import (
    CuspidalLabel,
    Segment,
    SelfDualityType,
    WDParameter,
    is_tempered,
    labels_equal,
    multiplicities,
    segment_self_duality,
    segments_equivalent,
    sl2_duality_sign,
)
from .matrix_lab import (
    FLOAT_TOL,
    BilinearForm,
    FactoredForm,
    Matrix,
    PermutationMap,
    Symmetry,
    TensorFactors,
    VerifiedForm,
    classify_form,
    conjugator_for_partition,
    find_nondegenerate_skew,
    invariant_form_sl2,
    invariant_forms,
    is_in_sp,
    partition_J,
    realize,
    sl2_exp_e,
    sl2_exp_f,
    sl2_sym_power_action,
    sym_power,
    symplectic_J,
    w_plus,
)
from .group_models import (
    SL2_SURROGATE_BOUND,
    Catalog,
    CatalogEntry,
    builtin_catalog,
    builtin_models,
    centralizer_dimension,
    commutant_dimension,
    fs_indicator,
    invariant_isotropic_exists,
    sl2_surrogate,
)
from .distinction import (
    RDSSpec,
    check_conjecture_instance,
    factors_through_sp_symbolic,
    is_linear_distinguished,
    is_x_elliptic_symbolic,
    oracle_verdicts,
    validate_rds,
)
from .notation import load_catalog, parse_param, print_param

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "Catalog",
    "CatalogEntry",
    "CuspidalLabel",
    "FactoredForm",
    "FLOAT_TOL",
    "Matrix",
    "PermutationMap",
    "QQi",
    "RDSSpec",
    "SL2_SURROGATE_BOUND",
    "Segment",
    "SelfDualityType",
    "Symmetry",
    "TensorFactors",
    "VerifiedForm",
    "WDParameter",
    "builtin_catalog",
    "builtin_models",
    "centralizer_dimension",
    "check_conjecture_instance",
    "classify_form",
    "commutant_dimension",
    "conjugator_for_partition",
    "factors_through_sp_symbolic",
    "find_nondegenerate_skew",
    "fs_indicator",
    "invariant_form_sl2",
    "invariant_forms",
    "invariant_isotropic_exists",
    "is_in_sp",
    "is_linear_distinguished",
    "is_tempered",
    "is_x_elliptic_symbolic",
    "labels_equal",
    "load_catalog",
    "multiplicities",
    "oracle_verdicts",
    "parse_param",
    "partition_J",
    "print_param",
    "realize",
    "segment_self_duality",
    "segments_equivalent",
    "sl2_duality_sign",
    "sl2_exp_e",
    "sl2_exp_f",
    "sl2_surrogate",
    "sl2_sym_power_action",
    "sym_power",
    "symplectic_J",
    "validate_rds",
    "w_plus",
]
