"""The conjecture sweep over regular discrete sums, with negative controls."""

from __future__ import annotations

from .distinction import (
    FORM_ORACLE_DIM_BOUND,
    TAG_RDS,
    TAG_SP,
    RDSSpec,
    add_sp_checks,
    check_conjecture_instance,
    is_linear_distinguished,
)
from .errors import (
    DimensionMismatchError,
    DuplicateSegmentError,
    NotDistinguishedError,
    OddBlockError,
    PeriodLabError,
)
from .group_models import Catalog
from .notation import print_param
from .param_core import (
    CuspidalLabel,
    Segment,
    SelfDualityType,
    WDParameter,
)
from .reporting import ERROR, PASS, Report


def conjecture_sweep(catalog: Catalog, source: str, max_dim: int) -> Report:
    """Exhaustively check every regular discrete sum up to ``max_dim``.

    Every valid spec must pass symbolically and agree with the matrix
    oracle.  Invalid specs (duplicate, undistinguished or odd blocks, a
    dimension mismatch) must be rejected, and parameters that factor
    without being elliptic, or do not factor at all, must be classified
    alike by the rules and the oracle.  ``source`` names the catalog in the
    enumeration note.
    """
    report = Report(input=f"sweep max_dim={max_dim}")
    pool, skipped = _segment_pool(catalog, max_dim)
    combos = _bounded_combinations(pool, max_dim)
    note = f"{len(combos)} valid specs from {len(pool)} blocks ({source})"
    if skipped:
        note += "; skipped: " + ", ".join(skipped)
    report.add("enumeration", PASS, TAG_RDS, note)

    agreement = True
    for combo in combos:
        spec = RDSSpec(sum(s.dim for s in combo) // 2, combo)
        try:
            rep = check_conjecture_instance(spec, catalog=catalog)
        except PeriodLabError as exc:
            text = print_param(WDParameter.of(combo))
            report.add_outcome(f"rds {text}", False, TAG_RDS, str(exc))
            continue
        text = rep.input  # the printed parameter
        if rep.oracle_agreement is False:
            agreement = False
        failure = next((f"{c.name}: {c.details}" for c in rep.checks
                        if c.verdict != PASS), "")
        report.add_outcome(f"rds {text}", not failure, TAG_RDS,
                           failure or f"{len(rep.checks)} checks pass")

    # the controls' segments, from the modeled labels in name order
    modeled = [label for label in sorted(catalog.labels(),
                                         key=lambda l: l.name)
               if catalog.entries[label.name].model is not None]
    bad, bad_orthogonal = _first_undistinguished(modeled)
    pair = _first_dual_pair(catalog, modeled)
    agreement = _run_validation_controls(
        report, catalog, pool, bad, pair) and agreement
    agreement = _run_parameter_controls(
        report, catalog, pool, bad_orthogonal, pair) and agreement
    report.oracle_agreement = agreement
    return report


def _bounded_combinations(pool: list[Segment],
                          max_dim: int) -> list[tuple[Segment, ...]]:
    """The combinations of pool entries with total dimension at most
    ``max_dim``, in ``itertools.combinations`` order size by size: a
    recursion that stops at the bound lists them lexicographically, and a
    stable sort by size finishes."""
    found: list[tuple[Segment, ...]] = []

    def extend(combo: tuple[Segment, ...], start: int, room: int) -> None:
        for i in range(start, len(pool)):
            if pool[i].dim <= room:
                found.append(combo + (pool[i],))
                extend(found[-1], i + 1, room - pool[i].dim)

    extend((), 0, max_dim)
    return sorted(found, key=len)


def _segment_pool(catalog: Catalog,
                  max_dim: int) -> tuple[list[Segment], list[str]]:
    """Distinguished even-dimensional segments buildable from the catalog.

    Labels without a matrix model cannot face the oracle and are skipped
    with a note.
    """
    pool: list[Segment] = []
    skipped: list[str] = []
    for label in sorted(catalog.labels(), key=lambda l: l.name):
        step = 1 + label.dim % 2  # the k that make the dimension even
        for k in range(step, max_dim // label.dim + 1, step):
            seg = Segment(label, k)
            if not is_linear_distinguished(seg):
                continue
            if catalog.entries[label.name].model is None:
                skipped.append(f"St({k},{label.name}): no matrix model")
                continue
            pool.append(seg)
    return list(WDParameter.of(pool).segments), skipped


def _run_validation_controls(
        report: Report, catalog: Catalog, pool: list[Segment],
        bad: Segment | None, pair: tuple[Segment, Segment] | None) -> bool:
    controls: list[tuple[str, RDSSpec, type]] = []
    if pool:
        s = pool[0]
        controls.append(("duplicate-blocks", RDSSpec(s.dim, (s, s)),
                         DuplicateSegmentError))
        controls.append(("dimension-mismatch", RDSSpec(s.dim, (s,)),
                         DimensionMismatchError))
    if bad is not None:
        controls.append(("undistinguished-block",
                         RDSSpec(bad.dim // 2, (bad,)),
                         NotDistinguishedError))
    if pair is not None and pair[0].dim % 2 == 1:
        controls.append(("odd-blocks", RDSSpec(pair[0].dim, pair),
                         OddBlockError))
    ok_all = True
    for name, spec, expected in controls:
        try:
            check_conjecture_instance(spec, catalog=catalog)
            report.add_outcome(f"control {name}", False, TAG_RDS,
                               "expected rejection, got a report")
            ok_all = False
        except expected as exc:
            report.add_outcome(f"control {name}", True, TAG_RDS,
                               f"rejected: {exc}")
        except PeriodLabError as exc:
            report.add_outcome(f"control {name}", False, TAG_RDS,
                               f"wrong error: {exc!r}")
            ok_all = False
    return ok_all


def _first_undistinguished(modeled: list[CuspidalLabel]
                           ) -> tuple[Segment | None, Segment | None]:
    """The first even-dimensional segment St(k, rho), k = 1 or 2, of a
    modeled label that fails linear distinction, and the first such of
    orthogonal type."""
    first = None
    for label in modeled:
        for k in (1, 2):
            seg = Segment(label, k)
            if seg.dim % 2 == 1 or is_linear_distinguished(seg):
                continue
            first = first or seg
            if seg.self_duality is SelfDualityType.ORTHOGONAL:
                return first, seg
    return first, None


def _first_dual_pair(catalog: Catalog, modeled: list[CuspidalLabel]
                     ) -> tuple[Segment, Segment] | None:
    """St(1, rho) and St(1, dual of rho) for the first non-self-dual
    modeled label whose dual is modeled too."""
    for label in modeled:
        if label.sd_type is not SelfDualityType.NOT_SELF_DUAL:
            continue
        if label.name >= label.dual_name:
            continue
        dual = catalog.label(label.dual_name)
        if dual in modeled:
            return Segment(label, 1), Segment(dual, 1)
    return None


def _run_parameter_controls(
        report: Report, catalog: Catalog, pool: list[Segment],
        bad: Segment | None, pair: tuple[Segment, Segment] | None) -> bool:
    """Parameters that factor without being elliptic, or do not factor at
    all; the rules and the oracle must agree on each.  ``bad`` is an
    orthogonal-type segment that fails linear distinction."""
    bound = FORM_ORACLE_DIM_BOUND  # every control faces the oracle
    controls: list[tuple[str, tuple[Segment, ...], bool]] = []
    dup = next((s for s in pool
                if s.self_duality is SelfDualityType.SYMPLECTIC
                and 2 * s.dim <= bound), None)
    if dup is not None:
        controls.append(("duplicate-parameter", (dup, dup), True))
    if pair is not None and 2 * pair[0].dim <= bound:
        controls.append(("dual-pair-parameter", pair, True))
    if bad is not None:
        if bad.dim <= bound:
            controls.append(("orthogonal-single", (bad,), False))
        if 2 * bad.dim <= bound:
            controls.append(("orthogonal-double", (bad, bad), True))
    agreement = True
    for name, segments, want_factors in controls:
        p = WDParameter.of(segments)
        sub = Report(input=print_param(p))
        factors, elliptic = add_sp_checks(sub, p, catalog, True)
        oracle_ok = sub.oracle_agreement is True
        agreement = agreement and oracle_ok
        if sub.oracle_agreement is None:  # an oracle stage failed
            error = next(c.details for c in sub.checks
                         if c.verdict == ERROR)
            report.add_outcome(f"control {name}", False, TAG_SP,
                               f"oracle error: {error}")
            continue
        outcome = ["factors" if factors else "does not factor",
                   "elliptic" if elliptic else "not elliptic",
                   "oracle agrees" if oracle_ok else "oracle disagrees"]
        report.add_outcome(
            f"control {name}",
            oracle_ok and factors == want_factors and not elliptic, TAG_SP,
            f"{sub.input}: " + ", ".join(outcome))
    return agreement
