"""Tests for distinction rules, discrete-sum validation, and the oracle bridge."""

import dataclasses
import itertools
import json
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from periodlab import (
    Catalog,
    CatalogEntry,
    CuspidalLabel,
    QQi,
    RDSSpec,
    SelfDualityType,
    Segment,
    Symmetry,
    WDParameter,
    builtin_catalog,
    centralizer_dimension_symbolic,
    check_conjecture_instance,
    classify_form,
    factors_through_sp_symbolic,
    is_in_sp,
    is_linear_distinguished,
    is_tempered,
    is_x_elliptic_symbolic,
    multiplicities,
    oracle_verdicts,
    parse_param,
    print_param,
    segment_self_duality,
    validate_rds,
)
from periodlab import cli, distinction, matrix_lab, param_core, sweep
from periodlab.errors import (
    CatalogMismatchError,
    CommutantMismatchError,
    DimBoundExceededError,
    DimensionMismatchError,
    DuplicateSegmentError,
    NonTemperedError,
    NotDistinguishedError,
    OddBlockError,
    OddDimensionError,
    PeriodLabError,
)
from periodlab.cli import main
from periodlab.distinction import add_sp_checks
from periodlab.linalg import Matrix
from periodlab.matrix_lab import BilinearForm
from periodlab.reporting import ERROR, FAIL, PASS, Report

CAT = builtin_catalog()


def seg(name, k=1, twist=0):
    return Segment(CAT.label(name), k, Fraction(twist))


def param(*segments):
    return WDParameter.of(segments)


# -- linear distinction -------------------------------------------------------


def test_distinguished_segments_table():
    cases = [
        ("q8", 1, True),        # odd k, wedge pole, even label dim
        ("q8", 2, False),       # even k needs the symmetric-square pole
        ("q8", 3, True),
        ("s3", 1, False),       # odd k, no wedge pole
        ("s3", 2, True),        # even k, symmetric-square pole
        ("d4", 4, True),
        ("trivial", 2, True),
        ("trivial", 4, True),
        ("chi3", 2, False),     # no poles at all
        ("chi3", 4, False),
    ]
    for name, k, want in cases:
        assert is_linear_distinguished(seg(name, k)) == want, (name, k)


def test_distinction_agrees_with_the_single_block_oracle_on_every_segment():
    """Every built-in segment St(k, rho) up to dim 24: the rule calls it
    distinguished exactly when the one block rho (x) S(k) carries an
    invariant nondegenerate skew form, which the oracle finds and
    ``FactoredForm.verify`` checks; at odd dimension the rule refuses and
    the oracle finds no form."""
    even = distinguished = 0
    segments = [seg(name, k) for name in sorted(CAT.entries)
                for k in range(1, 25) if CAT.label(name).dim * k <= 24]
    for s in segments:
        form = matrix_lab.find_nondegenerate_skew(
            matrix_lab.realize(param(s), CAT))
        if s.dim % 2:
            with pytest.raises(OddDimensionError):
                is_linear_distinguished(s)
            assert form is None, s
            continue
        even += 1
        if form is not None:
            form.verify()
            distinguished += 1
        assert is_linear_distinguished(s) == (form is not None), s
    assert (len(segments), even, distinguished) == (120, 84, 36)


@given(st.integers(1, 8), st.sampled_from(SelfDualityType), st.booleans(),
       st.integers(1, 12))
def test_distinction_is_the_pole_rule_on_any_label(dim, sd_type, unitary, k):
    # the rule as the pole profile of rho states it: odd k needs the
    # exterior-square pole (symplectic rho) of an even-dimensional rho, even
    # k the symmetric-square pole (orthogonal rho)
    assume(not (sd_type is SelfDualityType.SYMPLECTIC and dim % 2))
    assume(dim * k % 2 == 0)
    want = ((k % 2 == 1 and sd_type is SelfDualityType.SYMPLECTIC
             and dim % 2 == 0)
            or (k % 2 == 0 and sd_type is SelfDualityType.ORTHOGONAL))
    dual = "rhobar" if sd_type is SelfDualityType.NOT_SELF_DUAL else ""
    label = CuspidalLabel("rho", dim, sd_type, dual_name=dual, unitary=unitary)
    assert is_linear_distinguished(Segment(label, k)) == want


def test_distinction_rejects_twists_and_odd_dimension():
    with pytest.raises(NonTemperedError):
        is_linear_distinguished(seg("q8", 1, Fraction(1, 2)))
    with pytest.raises(OddDimensionError):
        is_linear_distinguished(seg("trivial", 3))
    with pytest.raises(OddDimensionError):
        is_linear_distinguished(seg("s3", 1, 0).__class__(
            CAT.label("trivial"), 1))


# -- discrete-sum validation ----------------------------------------------


def test_rds_spec_coercion():
    spec = RDSSpec(2, [seg("q8"), seg("trivial", 2)])
    assert isinstance(spec.segments, tuple)
    with pytest.raises(ValueError):
        RDSSpec(0, ())


def test_validate_rds_happy_path():
    spec = RDSSpec(3, (seg("q8"), seg("q8b"), seg("trivial", 2)))
    p = validate_rds(spec)
    assert p.dim == 6
    assert is_tempered(p)
    assert len(p.segments) == 3


def test_validate_rds_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate_rds(RDSSpec(3, (seg("q8"),)))


def test_validate_rds_odd_block():
    with pytest.raises(OddBlockError):
        validate_rds(RDSSpec(2, (seg("trivial", 3), seg("trivial"))))


def test_validate_rds_duplicate_block():
    with pytest.raises(DuplicateSegmentError):
        validate_rds(RDSSpec(2, (seg("q8"), seg("q8"))))


def test_validate_rds_undistinguished_block():
    with pytest.raises(NotDistinguishedError) as info:
        validate_rds(RDSSpec(3, (seg("q8"), seg("s3"), seg("trivial", 2))))
    assert info.value.index == 1


def test_validate_rds_error_precedence():
    # a spec wrong in several ways reports the dimension problem first
    with pytest.raises(DimensionMismatchError):
        validate_rds(RDSSpec(5, (seg("q8"), seg("q8"))))
    # then odd blocks, before duplicates are considered
    with pytest.raises(OddBlockError):
        validate_rds(RDSSpec(3, (seg("trivial", 3), seg("trivial", 3))))


# -- symbolic predicates -------------------------------------------------------


def test_factors_symplectic_any_multiplicity():
    assert factors_through_sp_symbolic(param(seg("q8")))
    assert factors_through_sp_symbolic(param(seg("q8"), seg("q8")))
    assert factors_through_sp_symbolic(param(seg("q8"), seg("q8"), seg("q8")))


def test_factors_orthogonal_needs_even_multiplicity():
    assert not factors_through_sp_symbolic(param(seg("d4")))
    assert factors_through_sp_symbolic(param(seg("d4"), seg("d4")))
    assert not factors_through_sp_symbolic(param(seg("s3", 2), seg("d4")))


def test_factors_nsd_needs_dual_partner():
    assert not factors_through_sp_symbolic(param(seg("chi3")))
    assert factors_through_sp_symbolic(param(seg("chi3"), seg("chi3bar")))
    assert not factors_through_sp_symbolic(
        param(seg("chi3"), seg("chi3"), seg("chi3bar")))


def test_factors_twisted_pairs():
    up = seg("q8", 1, Fraction(1, 2))
    down = seg("q8", 1, Fraction(-1, 2))
    assert factors_through_sp_symbolic(param(up, down))
    assert not factors_through_sp_symbolic(param(up))


def test_elliptic_requires_multiplicity_free_symplectic():
    assert is_x_elliptic_symbolic(param(seg("q8")))
    assert is_x_elliptic_symbolic(param(seg("q8"), seg("q8b")))
    assert is_x_elliptic_symbolic(param(seg("q8", 3), seg("trivial", 2)))
    assert not is_x_elliptic_symbolic(param(seg("q8"), seg("q8")))
    assert not is_x_elliptic_symbolic(param(seg("d4"), seg("d4")))
    assert not is_x_elliptic_symbolic(param(seg("chi3"), seg("chi3bar")))


def test_elliptic_is_the_multiplicity_free_symplectic_part_of_factoring():
    # the definition read off the multiplicities, as the predicate once
    # computed it; every elliptic parameter must factor
    universe = [seg("q8"), seg("q8b"), seg("trivial", 2), seg("d4"),
                seg("s3", 2), seg("chi3"), seg("chi3bar"), seg("q8", 1, 1),
                seg("q8", 1, -1)]
    for size in range(4):
        for combo in itertools.combinations_with_replacement(universe, size):
            p = param(*combo)
            want = factors_through_sp_symbolic(p) and all(
                m == 1
                and segment_self_duality(s) is SelfDualityType.SYMPLECTIC
                for s, m in multiplicities(p))
            assert is_x_elliptic_symbolic(p) == want, print_param(p)


# -- oracle verdicts -------------------------------------------------------------


def test_oracle_verdicts_elliptic_exact():
    v = oracle_verdicts(param(seg("q8", 3)))
    assert v.skew_found
    assert v.centralizer_dim == 0
    assert v.max_residue == 0.0
    assert classify_form(v.form.gram).symmetry is Symmetry.SKEW


def test_oracle_verdicts_no_skew_for_orthogonal_single():
    v = oracle_verdicts(param(seg("d4")))
    assert not v.skew_found
    assert v.centralizer_dim is None


def test_oracle_verdicts_above_dim_12_get_both_verdicts():
    # the isotropy stage has no dimension bound of its own
    v = oracle_verdicts(param(seg("trivial", 14)))
    assert v.skew_found
    assert v.max_residue == 0.0
    assert v.centralizer_dim == 0
    assert v.isotropy_error is None
    report = check_conjecture_instance(
        RDSSpec(7, (seg("trivial", 14),)))
    assert report.oracle_agreement is True
    assert report.exit_code == 0


def test_oracle_verdicts_non_elliptic_case():
    v = oracle_verdicts(param(seg("q8"), seg("q8")))
    assert v.skew_found
    assert v.centralizer_dim == 1


@pytest.mark.parametrize("segments", [
    (("q8", 3),), (("q8", 1), ("q8", 1)), (("chi3", 2), ("chi3bar", 2)),
    (("d4", 1), ("d4", 1), ("trivial", 2))])
def test_oracle_verdicts_checks_every_tile_on_its_factors(monkeypatch,
                                                          segments):
    """The oracle checks its form on the factors: every placed block pair
    is checked on both sides, and no dense generator is given to
    ``is_in_sp``.  The tile checks are cached per pair of class ids for the
    process, so each is recorded through the uncached check.  Run again,
    the oracle places no dense generator and no dense form."""
    dense, checked = [], set()

    def counted(*args):
        dense.append(args)
        return is_in_sp(*args)

    def recorded(*args):
        checked.add(args)
        return tile_residue(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("periodlab") and \
                getattr(module, "is_in_sp", None) is is_in_sp:
            monkeypatch.setattr(module, "is_in_sp", counted)
    tile_residue = matrix_lab._tile_residue.__wrapped__
    monkeypatch.setattr(matrix_lab, "_tile_residue", recorded)
    p = param(*(seg(name, k) for name, k in segments))
    v = oracle_verdicts(p)
    assert v.skew_found and v.centralizer_dim is not None
    assert dense == []
    blocks = len(v.factors.blocks)
    assert sorted(i for i, *_ in v.form.tiles) == list(range(blocks))
    ids = v.factors.class_ids
    for i, j, _, x, y in v.form.tiles:
        # both sides, the S(k) one on the exp E and exp F of both blocks
        assert (ids[i], ids[j], x, y) in checked

    def placed(*args):
        raise AssertionError("a dense matrix was placed")

    monkeypatch.setattr(matrix_lab.TensorFactors, "dense", placed)
    monkeypatch.setattr(Matrix, "placed", placed)
    assert oracle_verdicts(p) == v


def test_the_oracle_classes_and_partners_are_the_rules_on_every_pair():
    """On every pair of built-in untwisted segments of dim <= 24, a segment
    paired with itself included (7,260 pairs): the realization's class ids
    split the blocks as ``multiplicities`` splits the segments, and
    ``_class_pairing(c, d)`` finds a pairing exactly when d's segment is
    the rules' dual key of c's (the dual label, the label itself when it
    is self-dual, with the same k and the opposite twist).  Both paths are
    read: every pair with a chi3 or chi3bar block is solved on floats."""
    pool = [seg(name, k) for name in sorted(CAT.entries)
            for k in range(1, 25) if CAT.label(name).dim * k <= 24]
    pairs = list(itertools.combinations_with_replacement(pool, 2))
    paths = Counter()
    for pair in pairs:
        p = param(*pair)
        tf = matrix_lab.realize(p, CAT)
        assert [[p.segments[i] for i in blocks]
                for blocks in tf.classes.values()] == [
                    [s] * m for s, m in multiplicities(p)], pair
        keys = [(s.cuspidal.name, s.k, s.twist) for s in p.segments]
        for i, c in enumerate(tf.class_ids):
            s = p.segments[i]
            dual = (s.cuspidal.dual_name, s.k, -s.twist)
            for j, d in enumerate(tf.class_ids):
                found = matrix_lab._class_pairing(c, d) is not None
                assert found == (keys[j] == dual), (pair, i, j)
        paths[tf.exact] += 1
    assert (len(pairs), paths) == (7260, {True: 2628, False: 4632})


def test_a_realization_with_no_generator_leaves_every_form_free():
    """``trivial (+) trivial`` has no generator that moves: its realization
    has none, and the oracle, with every form invariant, agrees with the
    rules."""
    p = parse_param("trivial (+) trivial", CAT)
    assert matrix_lab.realize(p, CAT).dense() == []
    v = oracle_verdicts(p)
    assert v.skew_found and factors_through_sp_symbolic(p)
    assert v.centralizer_dim > 0 and not is_x_elliptic_symbolic(p)
    assert (v.centralizer_dim, v.max_residue) == (3, 0.0)


def test_the_oracle_refuses_a_parameter_above_its_bound_unrealized(
        monkeypatch):
    def realize(*args):
        raise AssertionError("realized above the bound")

    monkeypatch.setattr(distinction, "realize", realize)
    with pytest.raises(DimBoundExceededError,
                       match="bound is 24, parameter has dimension 25"):
        oracle_verdicts(parse_param("St(25,trivial)", CAT))


def test_warm_oracle_verdicts_constructs_no_qqi(monkeypatch):
    """Exact matrices are stored as Gaussian integers, so once the factor
    solves are cached the oracle builds no Gaussian-rational scalar."""
    p = parse_param("St(3,q8) (+) q8b (+) q8b (+) St(2,d4)", CAT)
    oracle_verdicts(p)
    constructed = []
    init = QQi.__init__

    def counted(self, *args):
        constructed.append(args)
        init(self, *args)

    monkeypatch.setattr(QQi, "__init__", counted)
    v = oracle_verdicts(p)
    assert v.factors.exact and v.skew_found and v.centralizer_dim == 1
    assert constructed == []


def test_a_warm_sweep_constructs_no_matrix_and_no_form(monkeypatch, capsys):
    """Once a sweep has run, a second one in the same process reads every
    matrix and every form it needs from the factor table: it constructs
    no Matrix and no BilinearForm, not even for the tabled factors that
    the skew search classifies."""
    assert main(["sweep", "--max-dim", "16", "--json"]) == 0
    constructed = Counter()
    for cls in (Matrix, BilinearForm):
        def counted(self, *args, init=cls.__init__, name=cls.__name__):
            constructed[name] += 1
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    assert main(["sweep", "--max-dim", "16", "--json"]) == 0
    capsys.readouterr()
    assert constructed == {}


def test_a_warm_sweep_computes_each_segment_type_once(monkeypatch, capsys):
    """A segment's self-duality type is computed when the segment is built
    and read off it afterwards: in a warm sweep, segment_self_duality runs
    once per segment built, each time from Segment's constructor, and the
    rules, the sweep and the CLI never call it."""
    assert main(["sweep", "--max-dim", "6", "--json"]) == 0
    built, callers = [], Counter()
    post_init, definition = Segment.__post_init__, segment_self_duality

    def counted_build(self):
        built.append(self)
        post_init(self)

    def counted_type(s):
        callers[sys._getframe(1).f_code] += 1
        return definition(s)

    monkeypatch.setattr(Segment, "__post_init__", counted_build)
    monkeypatch.setattr(param_core, "segment_self_duality", counted_type)
    assert main(["sweep", "--max-dim", "6", "--json"]) == 0
    capsys.readouterr()
    assert len(built) > 20
    assert dict(callers) == {post_init.__code__: len(built)}
    for module in (distinction, cli, sweep):
        assert definition not in vars(module).values(), module.__name__


def _multisets(pool, max_mult, max_dim):
    """Every nonempty multiset of pool entries with multiplicity at most
    ``max_mult`` and total dimension at most ``max_dim``."""
    out = []

    def extend(i, room, acc):
        if i == len(pool):
            if acc:
                out.append(acc)
            return
        for copies in range(max_mult + 1):
            if copies * pool[i].dim > room:
                break
            extend(i + 1, room - copies * pool[i].dim,
                   acc + (pool[i],) * copies)

    extend(0, max_dim, ())
    return out


def test_oracle_agrees_with_rules_at_multiplicity_three_and_four():
    pool = [seg(label.name, k) for label in CAT.labels()
            for k in range(1, 6 // label.dim + 1)]
    high = [m for m in _multisets(pool, 4, 6)
            if max(m.count(s) for s in m) >= 3]
    assert len(high) == 145
    reached_isotropy = 0
    for m in high:
        report = Report(input="")
        add_sp_checks(report, param(*m), CAT, use_oracle=True)
        assert all(c.verdict != ERROR for c in report.checks), m
        assert report.oracle_agreement is True, m
        reached_isotropy += any(c.name == "oracle-isotropy"
                                for c in report.checks)
    assert reached_isotropy == 9


def _accepted(segments):
    """Whether ``validate_rds`` builds a regular discrete sum of
    ``segments`` (n = dim // 2, at least 1)."""
    try:
        validate_rds(RDSSpec(max(1, sum(s.dim for s in segments) // 2),
                             segments))
    except PeriodLabError:
        return False
    return True


def test_every_multiset_to_dim_10_agrees_and_meets_the_converse():
    """Every multiset of untwisted built-in segments of dim <= 10, with no
    cap on multiplicity: the oracle agrees with the rules through
    ``add_sp_checks``, and its cell is "form and elliptic" exactly when
    ``validate_rds`` accepts the segments (the main theorem's converse).
    The rules' centralizer dimensions over the factoring multisets are
    pinned by their sum and largest value, which the oracle agrees with."""
    pool = [seg(label.name, k) for label in CAT.labels()
            for k in range(1, 10 // label.dim + 1)]
    cells = Counter()
    dims = []
    for m in _multisets(pool, 10, 10):
        report = Report(input="")
        cell = add_sp_checks(report, param(*m), CAT, use_oracle=True)
        assert all(c.verdict != ERROR for c in report.checks), m
        assert report.oracle_agreement is True, m  # so cell is the oracle's
        assert (cell == (True, True)) == _accepted(m), m
        cells[cell] += 1
        if cell[0]:
            dims.append(centralizer_dimension_symbolic(param(*m)))
    assert cells == {(False, False): 22366, (True, False): 801,
                     (True, True): 88}
    assert (len(dims), sum(dims), max(dims)) == (889, 4270, 55)


def _catalog(change):
    """The built-in catalog with ``change(label)`` as each entry's label
    and model, built past ``Catalog.validate``."""
    return Catalog({name: CatalogEntry(*change(e.label, e.model))
                    for name, e in CAT.entries.items()})


def test_the_oracle_reads_no_declared_type_and_the_rules_no_model():
    """Every multiset to dim 6, each parsed with the catalog under test: the
    oracle's verdicts survive a scramble of every label's declared type and
    dual, and the rules' verdicts the removal of every model."""
    sd = SelfDualityType
    scramble = {"s3": (sd.SYMPLECTIC, "s3"), "d4": (sd.SYMPLECTIC, "d4"),
                "q8": (sd.ORTHOGONAL, "q8"), "q8b": (sd.NOT_SELF_DUAL, "q8"),
                "trivial": (sd.NOT_SELF_DUAL, "chi3"),
                "chi3": (sd.ORTHOGONAL, "chi3"),
                "chi3bar": (sd.ORTHOGONAL, "chi3bar")}
    scrambled = _catalog(lambda label, model: (dataclasses.replace(
        label, sd_type=scramble[label.name][0],
        dual_name=scramble[label.name][1]), model))
    modelless = _catalog(lambda label, model: (
        dataclasses.replace(label, model=None), None))

    def rules(p):
        return (factors_through_sp_symbolic(p), is_x_elliptic_symbolic(p),
                centralizer_dimension_symbolic(p))

    def oracle(p, catalog):
        v = oracle_verdicts(p, catalog)
        return v.skew_found, v.centralizer_dim

    pool = [seg(label.name, k) for label in CAT.labels()
            for k in range(1, 6 // label.dim + 1)]
    multisets = _multisets(pool, 6, 6)
    assert len(multisets) == 980
    rules_moved = 0
    for m in multisets:
        p = param(*m)
        text = print_param(p)
        assert oracle(parse_param(text, scrambled), scrambled) == oracle(
            p, CAT), text
        assert rules(parse_param(text, modelless)) == rules(p), text
        rules_moved += rules(parse_param(text, scrambled)) != rules(p)
    # the scramble is one the rules see
    assert rules_moved > 0


def test_both_rule_predicates_refuse_a_label_conflict():
    # two labels named q8 that differ in their data: two catalogs mixed
    other = dataclasses.replace(CAT.label("q8"), model=None)
    p = param(seg("q8"), Segment(other, 1))
    with pytest.raises(CatalogMismatchError):
        factors_through_sp_symbolic(p)
    with pytest.raises(CatalogMismatchError):
        is_x_elliptic_symbolic(p)


# -- full conjecture instances -----------------------------------------------


def test_check_conjecture_instance_symbolic():
    report = check_conjecture_instance(
        RDSSpec(4, (seg("q8"), seg("trivial", 2), seg("trivial", 4))))
    assert report.all_pass
    assert report.exit_code == 0
    assert report.oracle_agreement is True
    names = [c.name for c in report.checks]
    assert names == ["rds-valid", "dimension", "tempered", "sp-image",
                     "x-elliptic", "oracle-form", "oracle-isotropy"]


def test_check_conjecture_instance_with_oracle():
    report = check_conjecture_instance(
        RDSSpec(2, (seg("q8"), seg("q8b"))))
    assert report.all_pass
    assert report.oracle_agreement is True
    assert report.exit_code == 0
    names = [c.name for c in report.checks]
    assert "oracle-form" in names and "oracle-isotropy" in names


def test_check_conjecture_instance_invalid_spec_raises():
    with pytest.raises(DuplicateSegmentError):
        check_conjecture_instance(RDSSpec(2, (seg("q8"), seg("q8"))))


def test_oracle_isotropy_fault_reports_error_not_disagreement(monkeypatch):
    def faulty(verified):
        raise CommutantMismatchError("injected isotropy fault")

    monkeypatch.setattr(distinction, "centralizer_dimension", faulty)
    report = check_conjecture_instance(
        RDSSpec(7, (seg("trivial", 14),)))
    by_name = {c.name: c for c in report.checks}
    assert by_name["oracle-form"].verdict == PASS
    assert by_name["oracle-form"].details.endswith("= 0.00e+00")
    assert by_name["oracle-isotropy"].verdict == ERROR
    assert by_name["oracle-isotropy"].details == "injected isotropy fault"
    assert report.oracle_agreement is None
    assert report.exit_code == 1


def test_a_centralizer_fault_that_keeps_every_boolean_is_caught(
        monkeypatch, capsys):
    """The oracle's centralizer grown by one wherever it is positive keeps
    every form and ellipticity verdict, and still fails the cross-check:
    the two sides compare integers."""
    centralizer_dimension = distinction.centralizer_dimension

    def grown(verified):
        d = centralizer_dimension(verified)
        return d and d + 1

    monkeypatch.setattr(distinction, "centralizer_dimension", grown)
    expr = "St(2,trivial) (+) St(2,trivial)"
    assert main(["classify", expr, "--oracle", "--json"]) == 4
    out = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in out["checks"]}
    assert by_name["x-elliptic"]["verdict"] == FAIL
    assert by_name["oracle-form"]["verdict"] == PASS
    isotropy = by_name["oracle-isotropy"]
    assert isotropy["verdict"] == FAIL
    assert re.findall(r"\d+", isotropy["details"]) == ["2", "1"]
    assert out["oracle_agreement"] is False
