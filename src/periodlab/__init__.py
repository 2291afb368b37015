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

The public names below are imported on first use (PEP 562), so a bare
``import periodlab`` loads no submodule and no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module and the public names it defines
_PUBLIC = {
    "exactnum": ["QQi"],
    "param_core": [
        "CuspidalLabel", "Segment", "SelfDualityType", "WDParameter",
        "is_tempered", "labels_equal", "multiplicities",
        "segment_self_duality", "segments_equivalent", "sl2_duality_sign"],
    "linalg": ["FLOAT_TOL", "Matrix"],
    "matrix_lab": [
        "BilinearForm", "FactoredForm", "PermutationMap", "Symmetry",
        "TensorFactors", "VerifiedForm", "centralizer_dimension",
        "classify_form", "commutant_dimension", "conjugator_for_partition",
        "find_nondegenerate_skew", "invariant_form_sl2", "invariant_forms",
        "invariant_isotropic_exists", "is_in_sp", "partition_J", "realize",
        "sl2_exp_e", "sl2_exp_f", "sl2_sym_power_action", "symplectic_J",
        "w_plus"],
    "group_models": [
        "SL2_SURROGATE_BOUND", "Catalog", "CatalogEntry", "builtin_catalog",
        "builtin_models", "fs_indicator", "sl2_surrogate", "sym_power"],
    "distinction": [
        "RDSSpec", "centralizer_dimension_symbolic",
        "check_conjecture_instance", "factors_through_sp_symbolic",
        "is_linear_distinguished", "is_x_elliptic_symbolic",
        "oracle_verdicts", "validate_rds"],
    "notation": ["load_catalog", "parse_param", "print_param"],
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
