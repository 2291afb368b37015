"""Acceptance suite: the headline properties, one verdict line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line with capture disabled
so the verdict is visible in the normal pytest output, then asserts.  The
checks here are deliberately independent of the CLI plumbing: enumerations
are rebuilt from the public API rather than reusing the sweep command.
"""

import itertools
import time

import numpy as np
import pytest

from periodlab import (
    FLOAT_TOL,
    RDSSpec,
    SL2_SURROGATE_BOUND,
    Segment,
    Symmetry,
    WDParameter,
    builtin_catalog,
    builtin_models,
    check_conjecture_instance,
    conjugator_for_partition,
    factors_through_sp_symbolic,
    find_nondegenerate_skew,
    fs_indicator,
    invariant_form_sl2,
    invariant_forms,
    invariant_isotropic_exists,
    is_linear_distinguished,
    is_x_elliptic_symbolic,
    load_catalog,
    parse_param,
    partition_J,
    print_param,
    realize,
    sl2_exp_e,
    sl2_exp_f,
    sl2_surrogate,
    symplectic_J,
    w_plus,
)
from periodlab.errors import (
    ConsistencyError,
    ParseError,
    PeriodLabError,
)

CAT = builtin_catalog()
RESIDUE_TOL = 1e-9


@pytest.fixture
def emit(capsys):
    """Print one visible verdict line per criterion, bypassing capture."""

    def _emit(name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\n[{verdict}] {name}: {detail}", flush=True)

    return _emit


def seg(name, k=1):
    return Segment(CAT.label(name), k)


def _max_form_residue(factors, j) -> float:
    jc = j.gram.as_complex()
    worst = 0.0
    for g in factors.dense():
        gc = g.as_complex()
        worst = max(worst, float(np.abs(gc.T @ jc @ gc - jc).max()))
    return worst


def _distinguished_pool(max_dim: int) -> list[Segment]:
    pool = []
    for label in sorted(CAT.labels(), key=lambda l: l.name):
        for k in range(1, max_dim // label.dim + 1):
            s = Segment(label, k)
            if s.dim % 2:
                continue
            try:
                if is_linear_distinguished(s):
                    pool.append(s)
            except PeriodLabError:
                continue
    return pool


def test_criterion_1_discrete_sum_sweep(emit):
    start = time.monotonic()
    pool = _distinguished_pool(8)
    specs = [
        combo
        for size in range(1, len(pool) + 1)
        for combo in itertools.combinations(pool, size)
        if sum(s.dim for s in combo) <= 8
    ]
    problems = []
    outside = []
    for combo in specs:
        total = sum(s.dim for s in combo)
        p = WDParameter.of(combo)
        text = print_param(p)
        report = check_conjecture_instance(RDSSpec(total // 2, combo))
        if not report.all_pass:
            problems.append(f"{text}: symbolic checks failed")
            continue
        factors = realize(p, CAT)
        j = find_nondegenerate_skew(factors)
        if j is None:
            problems.append(f"{text}: no invariant nondegenerate skew form")
            continue
        residue = _max_form_residue(factors, j)
        if residue > RESIDUE_TOL:
            problems.append(f"{text}: residue {residue:.2e}")
        try:
            if invariant_isotropic_exists(j.verify()):
                problems.append(f"{text}: invariant isotropic subspace found")
        except PeriodLabError:
            outside.append(text)
    elapsed = time.monotonic() - start
    counts_ok = len(specs) == 46 and outside == [] and elapsed < 60
    ok = not problems and counts_ok
    emit("criterion 1 (discrete-sum sweep)", ok,
          f"{len(specs)} specs at dim <= 8, residues <= {RESIDUE_TOL:.0e}, "
          f"no isotropic subspaces; isotropy refused for "
          f"{outside or 'none'}; {elapsed:.1f}s")
    assert not problems, problems[:5]
    assert len(specs) == 46
    assert outside == []
    assert elapsed < 60


def test_criterion_2_unique_skew_form_on_distinguished_blocks(emit):
    problems = []
    cases = 0
    for name in sorted(CAT.entries):
        for k in range(1, 5):
            s = seg(name, k)
            if s.dim % 2:
                continue
            try:
                if not is_linear_distinguished(s):
                    continue
            except PeriodLabError:
                continue
            cases += 1
            forms = invariant_forms(realize(WDParameter.of([s]), CAT))
            tag = f"St({k},{name})"
            if len(forms) != 1:
                problems.append(f"{tag}: form space has dim {len(forms)}")
                continue
            f = forms[0]
            if f.symmetry is not Symmetry.SKEW or not f.nondegenerate:
                problems.append(f"{tag}: form is {f.symmetry.value}")
            if not f.gram.exact:
                problems.append(f"{tag}: expected the exact path")
    control_gens = realize(WDParameter.of([seg("q8", 2)]), CAT)
    control = invariant_forms(control_gens)
    control_ok = (
        any(f.symmetry is Symmetry.SYMMETRIC and f.nondegenerate
            for f in control)
        and find_nondegenerate_skew(control_gens) is None)
    if not control_ok:
        problems.append("St(2,q8): expected symmetric-only invariant forms")
    ok = not problems and cases == 10
    emit("criterion 2 (unique invariant skew form)", ok,
          f"{cases} distinguished blocks with k <= 4 carry a 1-dimensional "
          f"skew form space, exactly; St(2,q8) control is symmetric-only")
    assert not problems, problems
    assert cases == 10


def test_criterion_3_form_parity(emit):
    problems = []
    for k in range(1, 9):
        f = invariant_form_sl2(k)
        want = Symmetry.SYMMETRIC if k % 2 else Symmetry.SKEW
        if f.symmetry is not want or not f.nondegenerate or not f.gram.exact:
            problems.append(f"k={k}: {f.symmetry.value}")
            continue
        flipped = f.gram.T if k % 2 else -f.gram.T
        if not flipped.equals(f.gram):
            problems.append(f"k={k}: parity fails exactly")
        group_forms = invariant_forms([sl2_exp_e(k), sl2_exp_f(k)])
        if len(group_forms) != 1 or not group_forms[0].gram.equals(
                f.gram):
            problems.append(f"k={k}: solution space is not one-dimensional")
    ok = not problems
    emit("criterion 3 (form parity)", ok,
          "k = 1..8: invariant form symmetric iff k odd, 1-dimensional "
          "solution space, exact arithmetic")
    assert not problems, problems


def _even_partitions(total, max_part=None):
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    first = min(total, max_part)
    if first % 2:
        first -= 1
    for part in range(first, 0, -2):
        for rest in _even_partitions(total - part, part):
            yield (part, *rest)


def test_criterion_4_conjugator_suite(emit):
    problems = []
    count = 0
    for n in range(1, 7):
        m = 2 * n
        j_prime = symplectic_J(m).gram
        for part in _even_partitions(m):
            count += 1
            p = conjugator_for_partition(part).matrix()
            if not (p.T @ j_prime @ p).equals(partition_J(part).gram):
                problems.append(f"partition {part}")
    for n in range(1, 7):
        w = w_plus(n).matrix()
        target = partition_J((2,) * n).gram
        if not (w.T @ symplectic_J(2 * n).gram @ w).equals(target):
            problems.append(f"w_plus({n})")
        if conjugator_for_partition((2,) * n) != w_plus(n):
            problems.append(f"w_plus({n}) != conjugator")
    ok = not problems and count == 29
    emit("criterion 4 (partition conjugators)", ok,
          f"{count} even partitions of 2..12 conjugated exactly; w_plus "
          f"matches the all-2 conjugator for n = 1..6")
    assert not problems, problems
    assert count == 29


def _segment_universe(max_dim: int) -> list[Segment]:
    out = []
    for name in sorted(CAT.entries):
        label = CAT.label(name)
        for k in range(1, max_dim // label.dim + 1):
            out.append(Segment(label, k))
    return out


def _multisets(pool, max_dim):
    """All nonempty multisets over pool with multiplicity <= 2, dim <= max_dim."""
    def rec(i, remaining, acc):
        if i == len(pool):
            if acc:
                yield tuple(acc)
            return
        s = pool[i]
        for copies in range(0, 3):
            if copies * s.dim > remaining:
                break
            yield from rec(i + 1, remaining - copies * s.dim,
                           acc + [s] * copies)
    yield from rec(0, max_dim, [])


def test_criterion_5_oracle_symbolic_equivalence(emit):
    start = time.monotonic()
    disagreements = []
    outside = []
    checked = 0
    for combo in _multisets(_segment_universe(8), 8):
        p = WDParameter.of(combo)
        if not factors_through_sp_symbolic(p):
            continue
        text = print_param(p)
        elliptic = is_x_elliptic_symbolic(p)
        j = find_nondegenerate_skew(realize(p, CAT))
        if j is None:
            disagreements.append(f"{text}: factors but no skew form")
            continue
        try:
            isotropic = invariant_isotropic_exists(j.verify())
        except PeriodLabError:
            outside.append(text)
            continue
        checked += 1
        if elliptic != (not isotropic):
            disagreements.append(
                f"{text}: symbolic elliptic={elliptic}, "
                f"oracle isotropic={isotropic}")
    elapsed = time.monotonic() - start
    ok = not disagreements and checked >= 50 and outside == []
    emit("criterion 5 (oracle-symbolic equivalence)", ok,
          f"{checked} factoring multiplicity-<=2 parameters at dim <= 8, "
          f"zero disagreements; isotropy refused for "
          f"{outside or 'none'}; {elapsed:.1f}s")
    assert not disagreements, disagreements[:5]
    assert checked >= 50
    assert outside == []


def test_criterion_6_indicator_ground_truth(emit):
    problems = []

    def gap_of(model):
        chi = np.array(model.character)
        raw = chi[list(model.group.square_idx)].sum() / model.group.order
        return abs(raw - round(raw.real))

    models = builtin_models()
    for name, want in (("q8", -1), ("s3", 1), ("chi3", 0)):
        model = models[name]
        if fs_indicator(model) != want:
            problems.append(f"{name}: indicator {fs_indicator(model)}")
        if gap_of(model) >= FLOAT_TOL:
            problems.append(f"{name}: rounding gap {gap_of(model):.2e}")
    for k in range(1, SL2_SURROGATE_BOUND + 1):
        model = sl2_surrogate(k)
        want = 1 if k % 2 else -1
        if fs_indicator(model) != want:
            problems.append(f"S({k}): indicator {fs_indicator(model)}")
        if gap_of(model) >= FLOAT_TOL:
            problems.append(f"S({k}): rounding gap {gap_of(model):.2e}")
    ok = not problems
    emit("criterion 6 (indicator ground truth)", ok,
          "q8 -> -1, s3 -> +1, chi3 -> 0; surrogate S(k) -> (-1)^(k+1) for "
          f"k <= 6; every rounding gap < FLOAT_TOL = {FLOAT_TOL:g}")
    assert not problems, problems


ROUND_TRIP = [
    "0",
    "q8",
    "q8b",
    "trivial",
    "St(2,trivial)",
    "St(8,trivial)",
    "St(3,q8)",
    "q8 * nu^1/2",
    "q8 * nu^-7/3",
    "St(2,s3) * nu^5",
    "q8 (+) q8b",
    "q8b (+) St(3,q8)",
    "chi3 (+) chi3bar",
    "chi3 * nu^1/2 (+) chi3bar * nu^-1/2",
    "trivial (+) St(2,trivial) (+) St(3,trivial)",
    "s3 (+) d4",
    "St(2,d4) (+) St(2,s3)",
    "q8 (+) q8 (+) q8",
    "trivial * nu^1/3 (+) trivial * nu^2/3",
    "St(2,q8) (+) St(2,q8b)",
    "St(4,chi3) (+) St(4,chi3bar)",
]

MALFORMED = [
    ("St(2 q8)", (1, 6)),
    ("St(3,q8", (1, 7)),
    ("St(,q8)", (1, 4)),
    ("q8 (+)", (1, 6)),
    ("q8 * nu^1/0", (1, 11)),
    ("q8 @", (1, 4)),
    ("q8 q8", (1, 4)),
    ("q8 * mu^1", (1, 6)),
]

BAD_CATALOGS = [
    # declared type contradicts the model's indicator
    "[cuspidal.x]\ndim = 2\ntype = orthogonal\nmodel = q8\n",
    # dual points at a label that does not exist
    "[cuspidal.x]\ndim = 1\ntype = none\ndual = ghost\n",
    # duals that are not mutual
    ("[cuspidal.a]\ndim = 1\ntype = none\ndual = b\n"
     "[cuspidal.b]\ndim = 1\ntype = none\ndual = c\n"
     "[cuspidal.c]\ndim = 1\ntype = none\ndual = b\n"),
]


def test_criterion_8_ingestion(emit):
    problems = []
    for text in ROUND_TRIP:
        p = parse_param(text, CAT)
        if parse_param(print_param(p), CAT) != p:
            problems.append(f"round trip failed: {text!r}")
    for text, where in MALFORMED:
        try:
            parse_param(text, CAT)
            problems.append(f"accepted malformed input: {text!r}")
        except ParseError as exc:
            if (exc.line, exc.column) != where:
                problems.append(
                    f"{text!r}: span {(exc.line, exc.column)} != {where}")
    for bad in BAD_CATALOGS:
        try:
            load_catalog(bad)
            problems.append(f"accepted inconsistent catalog: {bad!r}")
        except ConsistencyError:
            pass
    ok = not problems
    emit("criterion 8 (ingestion)", ok,
          f"{len(ROUND_TRIP)} expressions round-trip; {len(MALFORMED)} "
          f"malformed inputs rejected with correct spans; "
          f"{len(BAD_CATALOGS)} inconsistent catalogs rejected")
    assert not problems, problems
