"""Distinction rules, the regular-discrete-sum construction, and its checks.

The rules here are all pole-profile logic: a self-dual label owns exactly
one pole, exterior-square for symplectic type or symmetric-square for
orthogonal type, and every linear-distinction statement reduces to which
pole St(k, rho) inherits.  The rules and the matrix oracle meet in one
place, :func:`add_sp_checks`, which records the rule verdicts and
cross-examines them against the oracle: a realized parameter must carry an
invariant symplectic form exactly when the rules say it factors through
the symplectic group, and the centralizer of its image in Sp must have
the dimension the rules compute (0 when elliptic).  The oracle
(:func:`oracle_verdicts`) realizes the parameter as one
``matrix_lab.TensorFactors``, builds a skew form on it, checks the form
with ``FactoredForm.verify`` and reads the centralizer off the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimBoundExceededError,
    DimensionMismatchError,
    DuplicateSegmentError,
    NonTemperedError,
    NotDistinguishedError,
    OddBlockError,
    OddDimensionError,
    PeriodLabError,
)
from .group_models import Catalog, builtin_catalog
from .matrix_lab import (
    FactoredForm,
    TensorFactors,
    centralizer_dimension,
    find_nondegenerate_skew,
    is_in_sp,  # noqa: F401  the dense reference, read here by periodbench
    realize,
)
from .notation import print_param, print_segment
from .param_core import (
    Segment,
    SelfDualityType,
    WDParameter,
    multiplicities,
    segments_equivalent,
)
from .reporting import ERROR, Report

TAG_RDS = "rule:rds-construction"
TAG_TEMPERED = "rule:tempered"
TAG_DISTINGUISHED = "rule:linear-distinction"
TAG_SP = "rule:sp-image"
TAG_ELLIPTIC = "rule:elliptic-multiplicity-free"
TAG_ORACLE_FORM = "oracle:invariant-form"
TAG_ORACLE_ISOTROPY = "oracle:isotropy"

# The largest dimension the matrix oracle realizes.  Of the built-in
# parameters of dim 24, the costliest, St(22,trivial) (+) St(2,trivial),
# takes 0.005-0.007 s as `classify --oracle` and 31 MB of peak RSS, in a
# fresh process once the catalog is built, on a 2-vCPU Xeon VM (Python
# 3.11.7, numpy 2.4.6).  Above it (the bound raised), St(48,trivial) takes
# 0.007 s and 1000 copies of trivial 0.017-0.030 s.
FORM_ORACLE_DIM_BOUND = 24


# ---------------------------------------------------------------------------
# linear distinction


def is_linear_distinguished(s: Segment) -> bool:
    """Whether the even-dimensional segment St(k, rho) is distinguished.

    Odd k needs the exterior-square pole, so rho symplectic (a symplectic
    label has even dimension); even k needs the symmetric-square pole, so
    rho orthogonal.  Requires twist 0 and even segment dimension.
    """
    if s.twist:
        raise NonTemperedError(
            f"distinction is defined for untwisted segments; got twist "
            f"{s.twist}")
    if s.dim % 2 == 1:
        raise OddDimensionError(
            f"St({s.k},{s.cuspidal.name}) has odd dimension {s.dim}")
    if s.k % 2 == 1:
        return s.cuspidal.sd_type is SelfDualityType.SYMPLECTIC
    return s.cuspidal.sd_type is SelfDualityType.ORTHOGONAL


# ---------------------------------------------------------------------------
# regular discrete sums


@dataclass(frozen=True)
class RDSSpec:
    """A requested direct sum of distinguished blocks filling dimension 2n."""

    n: int
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "segments", tuple(self.segments))


def validate_rds(spec: RDSSpec) -> WDParameter:
    """Build the parameter of a regular discrete sum, or explain why not.

    Checks, in order: total dimension 2n, every block of even dimension,
    pairwise inequivalent blocks, every block linearly distinguished.  The
    returned parameter has no twists (a twisted block is not linearly
    distinguished), but it is tempered only when its labels are unitary.
    """
    total = sum(s.dim for s in spec.segments)
    if total != 2 * spec.n:
        raise DimensionMismatchError(
            f"block dimensions sum to {total}, expected 2n = {2 * spec.n}")
    for s in spec.segments:
        if s.dim % 2 == 1:
            raise OddBlockError(
                f"St({s.k},{s.cuspidal.name}) has odd dimension {s.dim}")
    for i, a in enumerate(spec.segments):
        for b in spec.segments[i + 1:]:
            if segments_equivalent(a, b):
                raise DuplicateSegmentError(
                    f"repeated block St({a.k},{a.cuspidal.name})")
    for i, s in enumerate(spec.segments):
        if not is_linear_distinguished(s):
            raise NotDistinguishedError(
                f"block {i} = St({s.k},{s.cuspidal.name}) is not "
                f"linearly distinguished", index=i)
    return WDParameter(spec.segments)


def add_tempered_check(report: Report, p: WDParameter) -> None:
    """Record whether ``p`` is tempered, naming what keeps it from being so:
    its twisted segments and its non-unitary labels."""
    twisted, non_unitary = {}, {}  # insertion-ordered sets
    for s in p.segments:
        if s.twist:
            twisted[print_segment(s)] = None
        if not s.cuspidal.unitary:
            non_unitary[s.cuspidal.name] = None
    found = [f"{what}: {', '.join(names)}" for what, names in (
        ("twisted segments present", twisted),
        ("non-unitary labels", non_unitary)) if names]
    report.add_outcome("tempered", not found, TAG_TEMPERED,
                       "; ".join(found) or "all twists zero")


# ---------------------------------------------------------------------------
# symbolic symplectic-image and ellipticity predicates


def centralizer_dimension_symbolic(p: WDParameter) -> int | None:
    """Dimension of the centralizer of the image in Sp, or None when the
    parameter preserves no nondegenerate skew form.

    A symplectic-type class of multiplicity m adds o(m), m(m-1)/2; an
    orthogonal-type class needs even m and adds sp(m), m(m+1)/2; any other
    class needs its dual class (same k, dual label, opposite twist) at the
    same m, and the pair adds gl(m), m^2.
    """
    mults = multiplicities(p)
    table = {(s.cuspidal.name, s.k, s.twist): m for s, m in mults}
    twice = 0  # a dual pair counts m^2 on each of its two classes
    for s, m in mults:
        sd = s.self_duality
        if sd is SelfDualityType.SYMPLECTIC:
            twice += m * (m - 1)
        elif sd is SelfDualityType.ORTHOGONAL and m % 2 == 0:
            twice += m * (m + 1)
        elif sd is SelfDualityType.NOT_SELF_DUAL and table.get(
                (s.cuspidal.dual_name, s.k, -s.twist)) == m:
            twice += m * m
        else:
            return None
    return twice // 2


def factors_through_sp_symbolic(p: WDParameter) -> bool:
    """Whether the parameter preserves some nondegenerate skew form."""
    return centralizer_dimension_symbolic(p) is not None


def is_x_elliptic_symbolic(p: WDParameter) -> bool:
    """Symplectic image with a finite centralizer in Sp."""
    return centralizer_dimension_symbolic(p) == 0


# ---------------------------------------------------------------------------
# oracle cross-examination


@dataclass(frozen=True)
class OracleVerdicts:
    """Matrix-level answers for one parameter.

    ``factors`` is the realization (:func:`realize`).  ``form`` is the
    nondegenerate skew invariant form built class by class, kept as its
    tiles, or None when a certificate rules one out.  ``centralizer_dim``
    is the dimension of the centralizer of the image in sp(J)
    (:func:`centralizer_dimension`), 0 exactly when the parameter is
    elliptic, or None when no form was found or the isotropy stage hit an
    internal fault, ``isotropy_error``.  ``max_residue`` is the worst
    |g^T J g - J| entry as :meth:`FactoredForm.verify` computes it on the
    factors (per tile, |c| max|A^T X A' - X| max|Y|, exactly 0.0 between
    classes whose factors are exact), and 0.0 when no form was found.
    """

    factors: TensorFactors
    form: FactoredForm | None
    centralizer_dim: int | None
    max_residue: float
    isotropy_error: PeriodLabError | None = None

    @property
    def skew_found(self) -> bool:
        return self.form is not None


def oracle_verdicts(p: WDParameter,
                    catalog: Catalog | None = None) -> OracleVerdicts:
    """Realize a parameter and answer the conjecture questions in matrices.

    The pipeline: realize, build a nondegenerate skew form class by class
    or certify that there is none, check it once on its tiles
    (:meth:`FactoredForm.verify`), then read the dimension of the
    centralizer of the image in sp(J) off the verified form
    (:func:`centralizer_dimension`).  The empty parameter
    and parameters above ``FORM_ORACLE_DIM_BOUND`` are refused before
    anything is built.  A fault of the isotropy stage is returned in
    ``isotropy_error``; every other error propagates.
    """
    if not p.segments:
        raise PeriodLabError("the form oracle needs a nonempty parameter; "
                             "0 has no realization")
    if p.dim > FORM_ORACLE_DIM_BOUND:
        raise DimBoundExceededError(
            f"form oracle bound is {FORM_ORACLE_DIM_BOUND}, parameter has "
            f"dimension {p.dim}")
    factors = realize(p, builtin_catalog() if catalog is None else catalog)
    j = find_nondegenerate_skew(factors)
    if j is None:
        return OracleVerdicts(factors, None, None, 0.0)
    verified = j.verify()
    try:
        dim = centralizer_dimension(verified)
    except PeriodLabError as exc:
        return OracleVerdicts(factors, j, None, verified.residue, exc)
    return OracleVerdicts(factors, j, dim, verified.residue)


def add_sp_checks(report: Report, p: WDParameter, catalog: Catalog | None,
                  use_oracle: bool) -> tuple[bool, bool]:
    """Record the symplectic-image and ellipticity rule checks, both read
    off :func:`centralizer_dimension_symbolic`, and return ``(factors,
    elliptic)``; with ``use_oracle``, run the matrix oracle and record
    whether its form and its centralizer's dimension agree with the rules'.

    The two oracle stages fail independently: a fault of the isotropy stage
    is an ``oracle-isotropy`` ERROR that leaves the form verdict on record,
    with agreement downgraded to None rather than False.
    """
    dim = centralizer_dimension_symbolic(p)
    factors, elliptic = dim is not None, dim == 0
    report.add_outcome("sp-image", factors, TAG_SP,
                       "symplectic pairing exists" if factors
                       else "no symplectic pairing exists")
    report.add_outcome("x-elliptic", elliptic, TAG_ELLIPTIC,
                       "multiplicity-free symplectic-type decomposition"
                       if elliptic else "parameter is not elliptic")
    if not use_oracle:
        return factors, elliptic
    try:
        verdicts = oracle_verdicts(p, catalog)
    except PeriodLabError as exc:
        report.add("oracle-form", ERROR, TAG_ORACLE_FORM, str(exc))
        report.oracle_agreement = None
        return factors, elliptic
    agreement = verdicts.skew_found == factors
    detail = (f"nondegenerate skew form found; max |g^T J g - J| = "
              f"{verdicts.max_residue:.2e}" if verdicts.skew_found
              else "no nondegenerate skew form in the invariant-form space")
    report.add_outcome("oracle-form", agreement, TAG_ORACLE_FORM, detail)
    if verdicts.skew_found and verdicts.isotropy_error is not None:
        report.add("oracle-isotropy", ERROR, TAG_ORACLE_ISOTROPY,
                   str(verdicts.isotropy_error))
        agreement = None
    elif verdicts.skew_found:
        isotropy_agrees = verdicts.centralizer_dim == dim
        report.add_outcome(
            "oracle-isotropy", isotropy_agrees, TAG_ORACLE_ISOTROPY,
            f"centralizer of dimension {verdicts.centralizer_dim}, where "
            f"the rules give {dim}" if not isotropy_agrees
            else "no invariant isotropic subspace" if dim == 0
            else "found an invariant isotropic subspace")
        agreement = agreement and isotropy_agrees
    report.oracle_agreement = agreement
    return factors, elliptic


def check_conjecture_instance(spec: RDSSpec,
                              catalog: Catalog | None = None) -> Report:
    """Validate a regular discrete sum and check the main-theorem claims.

    Propagates validation errors (an invalid spec yields no report).  The
    four rule checks are temperedness, dimension, symplectic image, and
    ellipticity; the matrix oracle's two verdicts on the last two follow,
    and ``oracle_agreement`` is set.
    """
    p = validate_rds(spec)
    report = Report(input=print_param(p))
    report.add_outcome(
        "rds-valid", True, TAG_RDS,
        f"n={spec.n}, {len(spec.segments)} pairwise inequivalent "
        f"distinguished blocks")
    report.add_outcome("dimension", p.dim == 2 * spec.n, TAG_RDS,
                       f"dim = {p.dim} = 2n")
    add_tempered_check(report, p)
    add_sp_checks(report, p, catalog, use_oracle=True)
    return report
