"""Tests for finite-group models, indicators, catalogs, and the isotropy oracle."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from periodlab import group_models
from periodlab import (
    Catalog,
    CatalogEntry,
    CuspidalLabel,
    FLOAT_TOL,
    FactoredForm,
    Matrix,
    SL2_SURROGATE_BOUND,
    Segment,
    SelfDualityType,
    Symmetry,
    WDParameter,
    builtin_catalog,
    builtin_models,
    centralizer_dimension,
    classify_form,
    commutant_dimension,
    factors_through_sp_symbolic,
    find_nondegenerate_skew,
    fs_indicator,
    invariant_forms,
    invariant_isotropic_exists,
    is_in_sp,
    is_x_elliptic_symbolic,
    oracle_verdicts,
    realize,
    sl2_surrogate,
)
from periodlab.errors import (
    CatalogError,
    CommutantMismatchError,
    ConsistencyError,
    FormVerificationError,
    MissingModelError,
    NonIntegralIndicatorError,
    PeriodLabError,
    ShapeMismatchError,
    SurrogateBoundExceededError,
)
from periodlab.group_models import _element_key, sym_power
from periodlab import matrix_lab
from periodlab.cli import main
from periodlab.linalg import _sparse_row, nullspace_exact, nullspace_float
from periodlab.matrix_lab import (
    TensorFactors,
    VerifiedForm,
    _class_pairing,
    _factor,
    intertwiners,
    invariant_pairings,
    sl2_intertwiners,
    sl2_pairings,
    tensor_factors,
)

CAT = builtin_catalog()
MODELS = builtin_models()


def _matrix(f):
    """The matrix of factor id ``f``, as its reading holds it."""
    return matrix_lab._reading(f).gram


def seg(name, k=1):
    return Segment(CAT.label(name), k)


def oracle_gens(*segments):
    return realize(WDParameter.of(segments), CAT)


def skew_of(gens):
    """The oracle's skew form of ``gens``, through the one verifier."""
    j = find_nondegenerate_skew(gens)
    assert j is not None
    return j.verify()


ONE = Matrix.identity(1)


def on_path(m, exact):
    """``m``, or its float twin when not ``exact``."""
    return m if exact else Matrix.from_array(m.as_complex())


def form_of(gens, *tiles):
    """The factored form on the blocks of ``gens`` with ``tiles``
    (i, j, c, X, Y) of exact matrices, X on the generators' path."""
    return FactoredForm(gens, tuple(
        (i, j, c, _factor(on_path(x, gens.exact)), _factor(y))
        for i, j, c, x, y in tiles))


def scaled(form, s):
    """``form`` with every tile's coefficient times ``s``."""
    return replace(form, tiles=tuple((i, j, c * s, x, y)
                                     for i, j, c, x, y in form.tiles))


# -- groups and models --------------------------------------------------------


def test_builtin_group_orders():
    orders = {name: m.group.order for name, m in MODELS.items()}
    assert orders == {"trivial": 1, "chi3": 3, "chi3bar": 3, "s3": 6,
                      "d4": 8, "q8": 8, "q8b": 8}


def test_q8_and_q8b_are_distinct_instances():
    assert MODELS["q8"].group is not MODELS["q8b"].group
    assert MODELS["chi3"].group is MODELS["chi3bar"].group


def test_model_matrices_close_under_inverse():
    for name in ("s3", "d4", "q8"):
        model = MODELS[name]
        group = model.group
        for i, m in enumerate(model.matrices):
            inv = model.matrices[group.inverse_idx[i]]
            assert (m @ inv).is_identity()


def test_commutant_dimension_detects_reducibility():
    q8 = MODELS["q8"]
    assert commutant_dimension(q8.matrices) == 1
    doubled = [m.kron(Matrix.identity(2)) for m in q8.matrices]
    assert commutant_dimension(doubled) == 4


# -- indicators ----------------------------------------------------------------


def test_fs_indicator_ground_truth():
    want = {"trivial": 1, "chi3": 0, "chi3bar": 0, "s3": 1, "d4": 1,
            "q8": -1, "q8b": -1}
    got = {name: fs_indicator(model) for name, model in MODELS.items()}
    assert got == want


def test_a_character_far_from_an_integral_indicator_is_refused():
    halved = replace(MODELS["q8"], character=tuple(
        c / 2 for c in MODELS["q8"].character))
    with pytest.raises(NonIntegralIndicatorError,
                       match="indicator of q8 is .*not near an integer"):
        fs_indicator(halved)


def test_an_indicator_just_off_an_integer_is_refused():
    # q8's indicator is -1; a character shifted by 1e-8 everywhere moves
    # the sum by 1e-8, ten times the one float tolerance
    shifted = replace(MODELS["q8"], character=tuple(
        c + 1e-8 for c in MODELS["q8"].character))
    with pytest.raises(NonIntegralIndicatorError,
                       match="indicator of q8 is .*not near an integer"):
        fs_indicator(shifted)


def test_surrogate_dimension_and_parity():
    for k in range(1, SL2_SURROGATE_BOUND + 1):
        model = sl2_surrogate(k)
        assert model.dim == k
        assert fs_indicator(model) == (1 if k % 2 else -1)


def test_surrogate_bound_is_enforced():
    with pytest.raises(SurrogateBoundExceededError):
        sl2_surrogate(SL2_SURROGATE_BOUND + 1)
    with pytest.raises(SurrogateBoundExceededError):
        sl2_surrogate(0)


def test_surrogate_group_is_binary_icosahedral():
    assert sl2_surrogate(2).group.order == 120


def _reference_group(generators):
    """The table, inverses, squares and generator indices of the group
    closed from ``generators``, keyed one product ``a @ b`` at a time."""
    elements, _, _ = group_models._generate_elements("ref", generators)
    keys = {_element_key(m): i for i, m in enumerate(elements)}
    table = np.array([[keys[_element_key(a @ b)] for b in elements]
                      for a in elements])
    inverse = np.array([list(row).index(0) for row in table])
    gens = tuple(keys[_element_key(g)] for g in generators)
    return table, inverse, table.diagonal(), gens


@pytest.mark.parametrize("build, exact", [
    (group_models._trivial_group, True),
    (group_models._cyclic3_group, False),
    (group_models._s3_group, True),
    (group_models._d4_group, True),
    (lambda: group_models._q8_group("q8"), True),
    (lambda: group_models._q8_group("q8b"), True),
    (group_models._icosian_group.__wrapped__, False),
], ids=["trivial", "c3", "s3", "d4", "q8", "q8b", "icosian"])
def test_group_tables_match_the_per_pair_reference(build, exact, monkeypatch):
    calls = []
    real = group_models._build_group

    def recording(name, generators):
        calls.append(generators)
        return real(name, generators)

    monkeypatch.setattr(group_models, "_build_group", recording)
    group = build()
    generators, = calls
    assert {m.exact for m in (*generators, *group.elements)} == {exact}
    table, inverse, square, gens = _reference_group(generators)
    assert np.array_equal(group.table, table)
    assert np.array_equal(group.inverse_idx, inverse)
    assert np.array_equal(group.square_idx, square)
    assert group.generator_idxs == gens


@pytest.mark.parametrize("k", range(1, SL2_SURROGATE_BOUND + 1))
def test_surrogate_characters_are_the_traces_of_symmetric_powers(k):
    """The generators' images are their symmetric powers, bit for bit, and
    every other image is its closure parent's times a generator's; so each
    matrix is the symmetric power of its element under the float rule."""
    model = sl2_surrogate(k)
    group = model.group
    for i in group.generator_idxs:
        assert np.array_equal(model.matrices[i].as_complex(),
                              sym_power(group.elements[i], k).as_complex())
    walked = {0: Matrix.identity(k, exact=False)}
    for i, row in enumerate(group.table):
        for g in group.generator_idxs:
            walked.setdefault(row[g], walked[i] @ model.matrices[g])
    assert len(walked) == group.order
    assert all(np.array_equal(m.as_complex(), walked[i].as_complex())
               for i, m in enumerate(model.matrices))
    powers = [sym_power(m, k) for m in group.elements]
    assert all(m.equals(p) for m, p in zip(model.matrices, powers))
    assert np.array_equal(model.character,
                          [complex(m.trace()) for m in model.matrices])


# -- the homomorphism certificate ----------------------------------------------


_TABLE_MISMATCH = "do not respect the group table"


@pytest.mark.parametrize("name", ["q8", "d4"])
def test_certificate_refuses_one_negated_element(name):
    model = MODELS[name]
    group = model.group
    rebuilt = group_models._make_model(name, group, model.matrices)
    assert np.array_equal(rebuilt.character, model.character)
    others = [i for i in range(group.order) if i not in group.generator_idxs]
    assert len(others) == group.order - 2
    for i in others:
        mats = list(model.matrices)
        mats[i] = -mats[i]
        with pytest.raises(ConsistencyError, match=_TABLE_MISMATCH):
            group_models._make_model(name, group, mats)


@pytest.mark.parametrize("value", [0, 2, -1])
def test_certificate_refuses_a_trivial_model_off_the_identity(value):
    group = MODELS["trivial"].group
    with pytest.raises(ConsistencyError, match=_TABLE_MISMATCH):
        group_models._make_model("trivial", group,
                                 [Matrix.from_rows([[value]])])


def test_certificate_accepts_the_float_surrogate():
    model = sl2_surrogate(3)
    rebuilt = group_models._make_model("s", model.group, model.matrices)
    assert np.array_equal(rebuilt.character, model.character)
    assert fs_indicator(rebuilt) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 119))
def test_certificate_refuses_a_perturbed_surrogate_element(i):
    model = sl2_surrogate(3)
    mats = list(model.matrices)
    mats[i] = Matrix.from_array(mats[i].as_complex() + 1e-6)
    with pytest.raises(ConsistencyError, match=_TABLE_MISMATCH):
        group_models._make_model("s", model.group, mats)


# -- the character certificate -------------------------------------------------


def _sum_of(*names):
    """The block-diagonal sum of built-in models of one group, matrix by
    matrix: a representation, but a reducible one."""
    models = [MODELS[name] for name in names]
    return models[0].group, [matrix_lab.blockdiag(list(mats))
                             for mats in zip(*(m.matrices for m in models))]


@pytest.mark.parametrize("names, exact", [
    (("q8", "q8"), True), (("chi3", "chi3bar"), False)],
    ids=["q8+q8-exact", "chi3+chi3bar-float"])
def test_character_certificate_refuses_a_reducible_model(names, exact):
    group, mats = _sum_of(*names)
    assert {m.exact for m in mats} == {exact}
    with pytest.raises(ConsistencyError, match="is not irreducible"):
        group_models._make_model("sum", group, mats)


def _character_norm(mats, order):
    return round(sum(abs(complex(m.trace())) ** 2 for m in mats) / order)


@pytest.mark.parametrize("case", [
    *sorted(MODELS), *(f"S({k})" for k in range(1, SL2_SURROGATE_BOUND + 1)),
    "q8+q8", "chi3+chi3bar"])
def test_character_norm_is_the_commutant_dimension(case):
    """<chi, chi> is the dimension of the commutant of the generators
    (sum m^2 over the irreducible constituents), so the character
    certificate says "irreducible" exactly when the commutant does."""
    if case in MODELS:
        model = MODELS[case]
        group, mats = model.group, model.matrices
    elif case.startswith("S("):
        model = sl2_surrogate(int(case[2:-1]))
        group, mats = model.group, model.matrices
    else:
        group, mats = _sum_of(*case.split("+"))
    gens = [mats[i] for i in group.generator_idxs] or mats[:1]
    norm = _character_norm(mats, group.order)
    assert norm == commutant_dimension(tensor_factors(gens))
    assert (norm == 1) == (case in MODELS or case.startswith("S("))


# -- catalogs -------------------------------------------------------------------


def test_builtin_catalog_contents():
    assert sorted(CAT.entries) == [
        "chi3", "chi3bar", "d4", "q8", "q8b", "s3", "trivial"]
    assert CAT.label("q8").sd_type is SelfDualityType.SYMPLECTIC
    assert CAT.label(CAT.label("chi3").dual_name).name == "chi3bar"
    with pytest.raises(CatalogError):
        CAT.label("nope")


def test_model_for_rejects_foreign_labels():
    foreign = CuspidalLabel("q8", 2, SelfDualityType.ORTHOGONAL)
    with pytest.raises(CatalogError):
        CAT.model_for(foreign)


def test_catalog_entry_without_model():
    label = CuspidalLabel("plain", 2, SelfDualityType.ORTHOGONAL)
    cat = Catalog({"plain": CatalogEntry(label, None)})
    cat.validate()
    with pytest.raises(MissingModelError):
        cat.model_for(label)


def test_validate_rejects_dangling_dual():
    label = CuspidalLabel("a", 1, SelfDualityType.NOT_SELF_DUAL,
                          dual_name="missing")
    with pytest.raises(ConsistencyError):
        Catalog({"a": CatalogEntry(label, None)}).validate()


def test_validate_rejects_non_mutual_duals():
    a = CuspidalLabel("a", 1, SelfDualityType.NOT_SELF_DUAL, dual_name="b")
    b = CuspidalLabel("b", 1, SelfDualityType.NOT_SELF_DUAL, dual_name="c")
    c = CuspidalLabel("c", 1, SelfDualityType.NOT_SELF_DUAL, dual_name="b")
    with pytest.raises(ConsistencyError):
        Catalog({"a": CatalogEntry(a, None), "b": CatalogEntry(b, None),
                 "c": CatalogEntry(c, None)}).validate()


def test_validate_rejects_indicator_mismatch():
    label = CuspidalLabel("fake", 2, SelfDualityType.ORTHOGONAL, model="q8")
    with pytest.raises(ConsistencyError):
        Catalog({"fake": CatalogEntry(label, MODELS["q8"])}).validate()


def test_validate_rejects_shared_models():
    a = CuspidalLabel("a", 2, SelfDualityType.SYMPLECTIC, model="q8")
    b = CuspidalLabel("b", 2, SelfDualityType.SYMPLECTIC, model="q8")
    with pytest.raises(ConsistencyError):
        Catalog({"a": CatalogEntry(a, MODELS["q8"]),
                 "b": CatalogEntry(b, MODELS["q8"])}).validate()


def _dual_pair_catalog(model, dual_model):
    """The labels chi3 and chi3bar, dual to each other, on the given
    models."""
    sd = SelfDualityType.NOT_SELF_DUAL
    a = CuspidalLabel("chi3", 1, sd, dual_name="chi3bar", model="chi3")
    b = CuspidalLabel("chi3bar", 1, sd, dual_name="chi3", model="chi3bar")
    return Catalog({"chi3": CatalogEntry(a, model),
                    "chi3bar": CatalogEntry(b, dual_model)})


def test_validate_accepts_contragredient_models():
    _dual_pair_catalog(MODELS["chi3"], MODELS["chi3bar"]).validate()
    for cat in (CAT, builtin_catalog()):
        cat.validate()


def test_validating_a_valid_catalog_quotes_no_label_name(monkeypatch):
    """Label names are formatted only on the way to an error: validating
    the built-in catalog makes no ``quoted`` call, and refusing a catalog
    does."""
    calls = []
    monkeypatch.setattr(group_models, "quoted",
                        lambda text: calls.append(text) or repr(text))
    builtin_catalog().validate()
    assert calls == []
    with pytest.raises(ConsistencyError, match="not contragredient"):
        _dual_pair_catalog(MODELS["chi3"], MODELS["chi3"]).validate()
    assert calls == ["chi3", "chi3bar"]


@pytest.mark.parametrize("case", ["two-groups", "same-character"])
def test_validate_rejects_dual_labels_whose_models_are_not_dual(case):
    # two copies of C3: chi3bar's character on its own group is still the
    # conjugate of chi3's, but the models share no group, so the oracle
    # could never pair their blocks; on one group, a character equal to
    # chi3's (not real) is not its conjugate
    chi3 = MODELS["chi3"]
    if case == "two-groups":
        c3 = group_models._cyclic3_group()
        dual_model = group_models._make_model(
            "chi3bar", c3, [m.conj() for m in c3.elements])
    else:
        dual_model = group_models._make_model(
            "chi3 again", chi3.group, chi3.matrices)
    cat = _dual_pair_catalog(chi3, dual_model)
    with pytest.raises(ConsistencyError, match="not contragredient"):
        cat.validate()


def test_validate_rejects_a_character_just_off_the_conjugate():
    # the shifts at a and a^2 cancel in chi(g^2) summed over C3, so the
    # indicator stays 0 and only the character comparison can refuse
    chi3bar = MODELS["chi3bar"]
    shifted = replace(chi3bar, character=tuple(
        c + e for c, e in zip(chi3bar.character, [0, 1e-8, -1e-8])))
    assert fs_indicator(shifted) == 0
    cat = _dual_pair_catalog(MODELS["chi3"], shifted)
    with pytest.raises(ConsistencyError, match="not contragredient"):
        cat.validate()


def test_validate_rejects_dual_labels_that_disagree_about_unitarity():
    # the contragredient of a unitary representation is unitary
    cat = _dual_pair_catalog(MODELS["chi3"], MODELS["chi3bar"])
    bar = replace(cat.entries["chi3bar"].label, unitary=False)
    cat.entries["chi3bar"] = CatalogEntry(bar, MODELS["chi3bar"])
    with pytest.raises(ConsistencyError, match="'chi3'/'chi3bar' disagree "
                       "about unitarity"):
        cat.validate()


def test_validate_rejects_model_dim_mismatch():
    label = CuspidalLabel("wide", 4, SelfDualityType.ORTHOGONAL, model="s3")
    with pytest.raises(ConsistencyError):
        Catalog({"wide": CatalogEntry(label, MODELS["s3"])}).validate()


# -- isotypic components -----------------------------------------------------


def certified_classes(*segments):
    """The blocks of each class of equal factors of the realized
    ``segments``, once the isotropy oracle has certified them as the
    isotypic components by the commutant dimension."""
    gens = oracle_gens(*segments)
    invariant_isotropic_exists(skew_of(gens))
    return list(gens.classes.values())


def test_multiplicities_distinct_classes():
    assert certified_classes(seg("q8"), seg("q8", 3)) == [[0], [1]]


def test_multiplicities_repeated_class():
    assert certified_classes(seg("q8"), seg("q8")) == [[0, 1]]


def test_multiplicities_mixed_groups():
    components = certified_classes(seg("q8"), seg("q8b"), seg("chi3"),
                                   seg("chi3bar"))
    assert components == [[0], [1], [2], [3]]


def test_multiplicities_beyond_surrogate_range():
    assert certified_classes(seg("trivial", 8)) == [[0]]
    assert oracle_verdicts(
        WDParameter.of([seg("trivial", 8)])).centralizer_dim == 0


def _foreign_generators(case):
    """Generators whose classes of equal factors are not the isotypic
    components, and a form those generators preserve."""
    if case == "mixed-blocks":
        # q8 (+) q8b with coordinates 1 and 2 swapped is one reducible block
        base = oracle_gens(seg("q8"), seg("q8b"))
        p = Matrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0],
                              [0, 1, 0, 0], [0, 0, 0, 1]])
        mixed = tensor_factors([p @ g @ p.T for g in base.dense()])
        return mixed, form_of(
            mixed, (0, 0, 1, p @ skew_of(base).form.gram @ p.T, ONE))
    # q8 (+) q8 with the second block's generators conjugated by s: two
    # classes of unequal factors that are one representation, and q8's
    # skew form on each block, moved by s on the second
    base = oracle_gens(seg("q8"))
    s = Matrix.from_rows([[1, 1], [0, 1]])
    s_inv = Matrix.from_rows([[1, -1], [0, 1]])
    rho = tuple(tuple(map(_factor, mats)) for mats in (
        base.dense(), [s @ g @ s_inv for g in base.dense()]))
    gens = TensorFactors(4, ((0, 2, 1), (2, 2, 1)), rho)
    x = skew_of(base).form.gram
    return gens, form_of(gens, (0, 0, 1, x, ONE),
                         (1, 1, 1, s_inv.T @ x @ s_inv, ONE))


@pytest.mark.parametrize("case, message", [
    ("mixed-blocks", "commutant dimension 2 disagrees with block count 1"),
    ("extra-commutant", "commutant dimension 4 disagrees with block count 2"),
])
def test_isotypic_certificate_rejects_foreign_generators(case, message):
    gens, j = _foreign_generators(case)
    with pytest.raises(CommutantMismatchError, match=message):
        invariant_isotropic_exists(j.verify())


# -- the tensor-factored oracle -------------------------------------------------


@pytest.mark.parametrize("k", [24, 25, 26])
def test_commutant_of_a_long_block_is_exact(k):
    # a float SVD certificate gave 5, 6 and 13 here
    assert commutant_dimension(oracle_gens(seg("trivial", k))) == 1


def test_commutant_counts_the_squares_of_multiplicities():
    gens = oracle_gens(seg("q8"), seg("q8"), seg("q8b", 2))
    assert commutant_dimension(gens) == 2 ** 2 + 1 ** 2


@st.composite
def small_parameters(draw, max_dim=8):
    """A multiset of built-in segments of total dimension <= max_dim."""
    segments, room = [], max_dim
    while room and (not segments or draw(st.booleans())):
        name = draw(st.sampled_from(
            sorted(n for n in MODELS if CAT.label(n).dim <= room)))
        dim = CAT.label(name).dim
        k = draw(st.integers(1, room // dim))
        segments.append(seg(name, k))
        room -= dim * k
    return WDParameter.of(segments)


@settings(max_examples=30, deadline=None)
@given(small_parameters())
@example(WDParameter.of([seg("trivial")] * 2))
def test_factored_oracle_matches_the_one_block_solve(p):
    gens = realize(p, CAT)
    # with no generator, such as for trivial (+) trivial, every form is
    # invariant, as under the identity alone
    one_block = gens.dense() or [Matrix.identity(gens.n, gens.exact)]
    assert len(tensor_factors(gens).blocks) == len(p.segments)
    assert len(tensor_factors(one_block).blocks) == 1
    factored, single = invariant_forms(gens), invariant_forms(one_block)
    if gens.exact:
        assert len(factored) == len(single)
        for f, g in zip(factored, single):
            assert f.gram.equals(g.gram)
            assert (f.symmetry, f.nondegenerate) == (g.symmetry,
                                                     g.nondegenerate)
    else:
        assert Counter(f.symmetry for f in factored) == Counter(
            f.symmetry for f in single)
    assert commutant_dimension(gens) == commutant_dimension(one_block)


def _block_pair(tf, i, j):
    """The solve arguments of block pair (i, j), read off the blocks
    rather than their class ids: of the rho side, its factor ids and
    sizes; of the S(k) side, k and k'."""
    (_, r, k), (_, r2, k2) = tf.blocks[i], tf.blocks[j]
    return (tf.rho[i], tf.rho[j], r, r2), (k, k2)


def _per_block_commutant(gens):
    """The reference commutant dimension: the sum over block pairs (i, j)
    of dim Hom(A_j, A_i) * dim Hom(U_j, U_i)."""
    tf = tensor_factors(gens)
    size = len(tf.blocks)
    return sum(len(intertwiners(*rho_args))
               * len(sl2_intertwiners(*sl2_args))
               for i in range(size) for j in range(size)
               for rho_args, sl2_args in [_block_pair(tf, i, j)])


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_parameters(max_dim=12), small_parameters(
    max_dim=4).map(lambda p: WDParameter.of(p.segments * 3))))
def test_class_level_commutant_matches_the_per_block_sum(p):
    gens = realize(p, CAT)
    assert commutant_dimension(gens) == _per_block_commutant(gens)


def _per_block_pairing(rho_args, sl2_args):
    """The reference pairing of a block pair: X (x) Y from the solves of
    its factors (``_block_pair``), as the factors (X, Y, X^T, Y^T),
    or None when there is none."""
    xs, ys = invariant_pairings(*rho_args), sl2_pairings(*sl2_args)
    if not (xs and ys):
        return None
    (x,), (y,) = xs, ys
    return _factor(x), _factor(y), _factor(x.T), _factor(y.T)


def _multisets(pool, room, start=0):
    """Every nonempty multiset of ``pool`` entries of total dimension at
    most ``room``, once each, as a tuple in pool order."""
    for i in range(start, len(pool)):
        if pool[i].dim <= room:
            yield (pool[i],)
            for rest in _multisets(pool, room - pool[i].dim, i):
                yield (pool[i], *rest)


def test_class_caches_match_the_per_block_solves():
    """On every multiset of built-in segments up to dim 8 (5,142 of them),
    the pairing and the commutant read through class ids equal the solves
    of every block pair."""
    pool = [seg(name, k) for name in MODELS for k in range(1, 9)
            if CAT.label(name).dim * k <= 8]
    count = 0
    for segments in _multisets(pool, 8):
        tf, count = realize(WDParameter.of(segments), CAT), count + 1
        ids = tf.class_ids
        for i, c in enumerate(ids):
            for j, d in enumerate(ids):
                assert _class_pairing(c, d) == _per_block_pairing(
                    *_block_pair(tf, i, j))
        assert commutant_dimension(tf) == _per_block_commutant(tf)
    assert count == 5142


def _kron_rows(m):
    """The rows of an exact system matrix, as sparse Gaussian-integer rows
    (its denominator dropped)."""
    return [_sparse_row(re, im) for re, im in zip(m.re.tolist(),
                                                  m.im.tolist())]


def _intertwining_system(l, r):
    """L X - X R = 0 on the row-major vec of X: L (x) I - I (x) R^T, as
    vec(A X B) = (A (x) B^T) vec(X)."""
    return (l.kron(Matrix.identity(r.rows))
            - Matrix.identity(l.rows).kron(r.T))


def _pairing_system(l, r):
    """L^T X R - X = 0 on the row-major vec of X: L^T (x) R^T - I."""
    return l.T.kron(r.T) - Matrix.identity(l.rows * r.rows)


def test_the_rho_solves_match_the_full_kronecker_systems_to_dim_6():
    """On every block pair of every multiset of built-in segments up to
    dim 6, the rho-side pairings and intertwiners span the null space of
    the full Kronecker system, stacked over every (L, R), the repeated
    pairs and the pairs of identities included: the same basis when every
    factor is exact (the reduced row echelon form is unique), else the
    same span, within the float rank rule's scale.  The block pairs ask
    for 202 distinct solves, 112 of them exact; 146 have a repeated pair or
    a pair of identities."""
    pool = [seg(name, k) for name in MODELS for k in range(1, 7)
            if CAT.label(name).dim * k <= 6]
    solves = {}
    for segments in _multisets(pool, 6):
        tf = realize(WDParameter.of(segments), CAT)
        for i in range(len(tf.blocks)):
            for j in range(len(tf.blocks)):
                solves[_block_pair(tf, i, j)[0]] = None
    paths, skipped = Counter(), 0
    for ls, rs, a, b in solves:
        pairs = [(_matrix(l), _matrix(r)) for l, r in zip(ls, rs)]
        exact = all(m.exact for pair in pairs for m in pair)
        paths[exact] += 1
        skipped += len(set(zip(ls, rs))) < len(pairs) or any(
            l.is_identity() and r.is_identity() for l, r in pairs)
        for solve, system in ((invariant_pairings, _pairing_system),
                              (intertwiners, _intertwining_system)):
            got = solve(ls, rs, a, b)
            eqs = [system(l, r) for l, r in pairs]
            assert all(x.shape == (a, b) and x.exact is exact for x in got)
            if exact:
                want = nullspace_exact([row for m in eqs
                                        for row in _kron_rows(m)], a * b)
                assert len(got) == len(want), (solve, ls, rs)
                assert all(x.equals(w.reshape(a, b))
                           for x, w in zip(got, want)), (solve, ls, rs)
                continue
            want = nullspace_float([m.as_complex() for m in eqs], a * b)
            assert len(got) == want.shape[1], (solve, ls, rs)
            for x in got:
                v = x.as_complex().ravel()
                off = v - want @ (want.conj().T @ v)
                assert np.abs(off).max() <= FLOAT_TOL * np.abs(v).max()
    assert (paths, skipped) == ({True: 112, False: 90}, 146)


def test_exact_classes_keep_exact_tiles_next_to_a_float_label():
    """On every multiset of built-in segments up to dim 8 that mixes a
    float label with an exact one and factors (113 of them), every tile
    between two blocks of exact classes (259 tiles) has an exact X, and
    every other tile a float one."""
    pool = [seg(name, k) for name in MODELS for k in range(1, 9)
            if CAT.label(name).dim * k <= 8]
    mixed, exact_tiles = 0, 0
    for segments in _multisets(pool, 8):
        paths = {CAT.model_for(s.cuspidal).exact for s in segments}
        j = find_nondegenerate_skew(realize(WDParameter.of(segments), CAT))
        if paths != {True, False} or j is None:
            continue
        mixed += 1
        exact_blocks = [all(_matrix(f).exact for f in a)
                        for a in j.factors.rho]
        for i, k, _, x, _ in j.tiles:
            exact = exact_blocks[i] and exact_blocks[k]
            assert _matrix(x).exact == exact, segments
            exact_tiles += exact
    assert (mixed, exact_tiles) == (113, 259)


def test_a_second_sweep_adds_no_class_or_factor_id(capsys):
    argv = ["sweep", "--max-dim", "24", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    sizes = matrix_lab.sizes()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert matrix_lab.sizes() == sizes


@settings(max_examples=40, deadline=None)
@given(small_parameters())
def test_skew_form_exists_exactly_when_the_rules_say_it_factors(p):
    gens = realize(p, CAT)
    j = find_nondegenerate_skew(gens)
    assert (j is not None) == factors_through_sp_symbolic(p)
    if j is None:
        return
    j.verify()
    if j.gram.exact:  # J lies in the span of the reference's skew forms
        skews = [f.gram for f in invariant_forms(gens)
                 if f.symmetry is Symmetry.SKEW]
        flat = [sum(m.tolist(), []) for m in skews]
        assert Matrix.from_rows(flat + [sum(j.gram.tolist(), [])]).rank() \
            == len(skews)


def _dense_accepts(form):
    """The dense reference: the placed form is skew and nondegenerate as
    ``classify_form`` reads it, and ``is_in_sp`` holds for every dense
    generator."""
    dense = classify_form(form.gram)
    return (dense.symmetry is Symmetry.SKEW and dense.nondegenerate
            and all(is_in_sp(g, dense) for g in form.factors.dense()))


def _factored_accepts(form):
    try:
        form.verify()
    except FormVerificationError:
        return False
    return True


def _perturbed(form, tile, part, entry, delta):
    """``form`` with ``delta`` added to one entry of X or Y of one tile, or
    to its coefficient c."""
    i, j, c, x, y = form.tiles[tile]
    if part == "c":
        c += delta
    else:
        m = _matrix(x if part == "x" else y)
        bump = np.zeros(m.shape, dtype=object)
        bump.flat[entry % bump.size] = 1
        new = _factor(m + Matrix.gaussian(bump).scale(delta))
        x, y = (new, y) if part == "x" else (x, new)
    tiles = list(form.tiles)
    tiles[tile] = (i, j, c, x, y)
    return replace(form, tiles=tuple(tiles))


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_parameters(), small_parameters(max_dim=4).map(
    lambda p: WDParameter.of(p.segments * 2))), st.data())
def test_factored_check_matches_the_dense_reference(p, data):
    # doubled parameters always factor, with tiles across copies
    gens = realize(p, CAT)
    j = find_nondegenerate_skew(gens)
    if j is None:
        return
    assert _factored_accepts(j) and _dense_accepts(j)
    entry = data.draw(st.integers(0, 63))
    delta = data.draw(st.sampled_from(
        [1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]))
    for tile in range(len(j.tiles)):
        for part in ("x", "y", "c"):
            bad = _perturbed(j, tile, part, entry, delta)
            assert _factored_accepts(bad) == _dense_accepts(bad), (tile,
                                                                   part)


@pytest.mark.parametrize("k", [28, 40])
def test_a_long_dual_pair_on_the_float_path_verifies(k):
    # the dense float check of g^T J g called this form not invariant
    # (k = 28) or degenerate (k = 40); exp(E), exp(F) have entries up to
    # C(k - 1, (k - 1) / 2), and the S(k) factor is checked exactly
    gens = oracle_gens(seg("chi3", k), seg("chi3bar", k))
    assert not gens.exact
    verified = find_nondegenerate_skew(gens).verify()
    assert verified.residue <= FLOAT_TOL


def test_generators_off_the_tensor_structure_get_the_one_block_solve():
    base = oracle_gens(seg("q8", 2))
    # a change of basis inside the one block that is no Kronecker product
    p = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0],
                          [0, 0, 1, 0], [0, 0, 0, 1]])
    p_inv = Matrix.from_rows([[1, -1, 0, 0], [0, 1, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 1]])
    moved = tensor_factors([p @ g @ p_inv for g in base.dense()])
    assert tensor_factors(moved).blocks == ((0, 4, 1),)
    # B is invariant under the g exactly when p^-T B p^-1 is under p g p^-1
    (want,) = [p_inv.T @ f.gram @ p_inv for f in invariant_forms(base)]
    (form,) = invariant_forms(moved)
    assert form.symmetry is Symmetry.SYMMETRIC
    assert Matrix.from_rows([sum(form.gram.tolist(), []),
                             sum(want.tolist(), [])]).rank() == 1
    assert commutant_dimension(moved) == 1
    assert list(moved.classes.values()) == [[0]]


# -- the isotropy oracle --------------------------------------------------------


def test_isotropy_verdicts():
    # multiplicity-free symplectic classes: no isotropic subspace
    for gens in (oracle_gens(seg("q8")),
                 oracle_gens(seg("q8", 3)),
                 oracle_gens(seg("q8"), seg("q8b")),
                 oracle_gens(seg("q8"), seg("trivial", 2))):
        assert not invariant_isotropic_exists(skew_of(gens))


def test_isotropy_found_for_repeated_class():
    gens = oracle_gens(seg("q8"), seg("q8"))
    assert invariant_isotropic_exists(skew_of(gens))


def test_isotropy_found_for_dual_pair():
    gens = oracle_gens(seg("chi3"), seg("chi3bar"))
    assert invariant_isotropic_exists(skew_of(gens))


def test_isotropy_found_for_orthogonal_double():
    # two copies of an orthogonal-type class pair skewly across the copies
    gens = oracle_gens(seg("d4"), seg("d4"))
    assert invariant_isotropic_exists(skew_of(gens))


J2 = Matrix.from_rows([[0, 1], [-1, 0]])


def test_isotropy_rejects_bad_forms():
    gens = oracle_gens(seg("q8"))
    with pytest.raises(FormVerificationError, match="skew-symmetric"):
        form_of(gens, (0, 0, 1, Matrix.identity(2), ONE)).verify()
    for degenerate in (form_of(gens),
                       form_of(gens, (0, 0, 1, Matrix.zeros(2, 2), ONE)),
                       form_of(gens, (0, 0, 1, J2, Matrix.zeros(1, 1)))):
        # skewness is checked first, so each of these is skew
        with pytest.raises(FormVerificationError, match="nondegenerate"):
            degenerate.verify()
    # skew and nondegenerate but pairing across distinct classes: not invariant
    pair = oracle_gens(seg("q8"), seg("q8b"))
    across = form_of(pair, (0, 1, 1, J2, ONE), (1, 0, -1, J2.T, ONE))
    assert classify_form(across.gram).nondegenerate
    with pytest.raises(FormVerificationError, match="invariant"):
        across.verify()


def test_verify_form_catches_a_near_miss():
    # the exact form of d4 (+) d4 pairs the copies by X = I (x) 1; X off by
    # 10^-12 in one entry, in both tiles: still skew and nondegenerate, but
    # no longer invariant
    gens = oracle_gens(seg("d4"), seg("d4"))
    eps = Matrix.from_rows([[0, Fraction(1, 10 ** 12)], [0, 0]])
    near = form_of(gens, (0, 1, 1, Matrix.identity(2) + eps, ONE),
                   (1, 0, -1, Matrix.identity(2) + eps.T, ONE))
    form_of(gens, (0, 1, 1, Matrix.identity(2), ONE),
            (1, 0, -1, Matrix.identity(2), ONE)).verify()
    # invariance is checked last, so the near miss is skew and nondegenerate
    with pytest.raises(FormVerificationError, match="invariant"):
        near.verify()
    check = is_in_sp(gens.dense()[0], near)
    assert not check and check.residue > 0


def test_isotropy_found_for_triple_class():
    gens = oracle_gens(seg("q8"), seg("q8"), seg("q8"))
    assert invariant_isotropic_exists(skew_of(gens))


def test_isotropy_checks_a_tiny_exact_form_exactly():
    # J / 10^12 and J * 10^400 are skew, nondegenerate and invariant; a
    # float rank would call the first zero, and the second overflows floats
    for names, isotropic in [(("q8",), False), (("q8", "q8"), True),
                             (("d4", "d4"), True)]:
        gens = oracle_gens(*(seg(name) for name in names))
        for scale in (Fraction(1, 10 ** 12), 10 ** 400):
            j = scaled(skew_of(gens).form, scale)
            assert j.gram.exact
            verified = j.verify()
            assert verified.residue == 0.0
            assert invariant_isotropic_exists(verified) is isotropic, (
                names, scale)


def _dense_centralizer(verified):
    """The reference dimension of the centralizer of the image in sp(J):
    of {X : Xg = gX for every generator, X^T J + J X = 0}, solved exactly
    on the dense generators and the dense form."""
    n, j = verified.form.factors.n, verified.form.gram
    rows = [row for g in verified.form.factors.dense()
            for row in _kron_rows(_intertwining_system(g, g))]
    re, im = j.re.tolist(), j.im.tolist()
    for a in range(n):
        for b in range(n):
            # (X^T J)[a, b] = sum X[p, a] J[p, b], (J X)[a, b] = J[a, p] X[p, b]
            row = {}
            for p in range(n):
                for col, (r, i) in ((p * n + a, (re[p][b], im[p][b])),
                                    (p * n + b, (re[a][p], im[a][p]))):
                    r0, i0 = row.get(col, (0, 0))
                    row[col] = (r0 + r, i0 + i)
            rows.append(row)
    return len(nullspace_exact(rows, n * n))


def test_the_centralizer_matches_the_dense_solve_to_dim_8():
    """Every multiset of built-in segments up to dim 8 with no cap on
    multiplicity: on each of the 184 exact-path ones that factor, the
    centralizer's closed form equals the dense exact solve, and on every
    factoring one the isotropy verdict is its dimension being positive.
    ``chi3 (+) chi3 (+) chi3bar (+) chi3bar`` has no tile among the copies
    of chi3, and its centralizer is gl(2)."""
    pool = [seg(name, k) for name in MODELS for k in range(1, 9)
            if CAT.label(name).dim * k <= 8]
    paths, values = Counter(), set()
    for segments in _multisets(pool, 8):
        gens = realize(WDParameter.of(segments), CAT)
        j = find_nondegenerate_skew(gens)
        if j is None:
            continue
        verified = j.verify()
        dim = centralizer_dimension(verified)
        assert invariant_isotropic_exists(verified) is (dim > 0), segments
        paths[gens.exact] += 1
        if gens.exact:
            assert dim == _dense_centralizer(verified), segments
            values.add(dim)
    assert paths == {True: 184, False: 124}
    assert min(values) == 0 and max(values) == 36
    gens = oracle_gens(*map(seg, ["chi3", "chi3", "chi3bar", "chi3bar"]))
    verified = skew_of(gens)
    assert not any(i in (0, 1) and j in (0, 1)
                   for i, j, *_ in verified.form.tiles)
    assert centralizer_dimension(verified) == 4


FLOAT_ONE = Matrix.from_rows([[1]], exact=False)


@pytest.mark.parametrize("names, tiles, dim", [
    # q8's skew pairing on each copy, times -3 on the second: so(2)
    (["q8"] * 2, [(0, 0, 1, J2, ONE), (1, 1, -3, J2, ONE)], 1),
    # d4's symmetric pairing across the two copies: sp(2)
    (["d4"] * 2, [(0, 1, 1, Matrix.identity(2), ONE),
                  (1, 0, -1, Matrix.identity(2), ONE)], 3),
    # q8's skew pairing across the two copies: so(2)
    (["q8"] * 2, [(0, 1, 1, J2, ONE), (1, 0, 1, J2, ONE)], 1),
    # q8's skew pairing on each of three copies: so(3)
    (["q8"] * 3, [(i, i, 1, J2, ONE) for i in range(3)], 3),
    # a dual pair on the float path: gl(1)
    (["chi3", "chi3bar"], [(0, 1, 1, ONE, ONE), (1, 0, -1, ONE, ONE)], 1),
])
def test_hand_built_forms_have_their_centralizer(names, tiles, dim):
    gens = oracle_gens(*map(seg, names))
    verified = form_of(gens, *tiles).verify()
    assert centralizer_dimension(verified) == dim
    if gens.exact:
        assert _dense_centralizer(verified) == dim


def test_the_oracle_matches_the_rules_and_the_dense_reference_to_dim_8():
    """Every multiset of built-in segments of multiplicity <= 2 up to dim
    8 (3,904 of them): the oracle's form verdict is the rules' symplectic
    image and its isotropy verdict their ellipticity, and each of the 255
    forms it finds passes the dense reference (``_dense_accepts``)."""
    pool = [seg(name, k) for name in MODELS for k in range(1, 9)
            if CAT.label(name).dim * k <= 8]
    seen, forms = 0, 0
    for segments in _multisets(pool, 8):
        if max(Counter(segments).values()) > 2:
            continue
        seen += 1
        p = WDParameter.of(segments)
        v = oracle_verdicts(p)
        assert v.skew_found == factors_through_sp_symbolic(p), segments
        if not v.skew_found:
            continue
        forms += 1
        assert (v.centralizer_dim == 0) == is_x_elliptic_symbolic(p), segments
        assert _dense_accepts(v.form), segments
    assert (seen, forms) == (3904, 255)


def test_a_pairing_of_neither_symmetry_is_an_internal_error():
    # never verified: two copies of q8 paired across by X = [[1, 1], [0, 1]]
    gens = oracle_gens(seg("q8"), seg("q8"))
    x = Matrix.from_rows([[1, 1], [0, 1]])
    verified = VerifiedForm(
        form_of(gens, (0, 1, 1, x, ONE), (1, 0, -1, x.T, ONE)), 0.0)
    with pytest.raises(PeriodLabError, match="neither symmetric nor skew"):
        centralizer_dimension(verified)


@pytest.mark.parametrize("segments, x, x2, y, y2", [
    # exact: q8's skew pairing on both copies, times -3 on the second, and
    # then times 5 on the first and -1 by Y on the second
    ([("q8",)] * 2, J2, J2.scale(-3), ONE, ONE),
    ([("q8",)] * 2, J2.scale(5), J2, ONE, ONE.scale(-1)),
    # float: chi3 (x) S(2) with X scaled by 2.5i and Y by -1 on the second
    # copy, and then X by -4 on the first and Y by 3 on the second
    ([("chi3", 2)] * 2, FLOAT_ONE, FLOAT_ONE.scale(2.5j), J2, -J2),
    ([("chi3", 2)] * 2, FLOAT_ONE.scale(-4), FLOAT_ONE, J2, J2.scale(3)),
])
def test_two_copy_tiles_are_checked_to_be_multiples_of_one_pairing(
        segments, x, x2, y, y2):
    """Hand-built forms, never verified, with a tile on the diagonal of
    each of two copies, multiples of one skew pairing at unequal scalars:
    the centralizer reads the pairing's symmetry on one tile, so(2), and on
    the exact path it is the dense solve's."""
    gens = oracle_gens(*(seg(*s) for s in segments))
    form = FactoredForm(gens, (
        (0, 0, 1, _factor(x), _factor(y)),
        (1, 1, 1, _factor(x2), _factor(y2))))
    verified = VerifiedForm(form, 0.0)
    assert centralizer_dimension(verified) == 1
    assert invariant_isotropic_exists(verified) is True
    if gens.exact:
        assert _dense_centralizer(verified) == 1


def test_a_tile_that_does_not_fit_its_blocks_is_refused():
    # q8 (+) St(2,trivial): blocks of r = 2, k = 1 and r = 1, k = 2
    tf = oracle_gens(seg("q8"), seg("trivial", 2))
    j2, one = _factor(J2), _factor(ONE)
    FactoredForm(tf, ((0, 0, 1, j2, one),))
    for tile in [(0, 0, 1, j2, j2),                          # Y's shape
                 (1, 1, 1, j2, j2),                          # X's shape
                 (0, 0, 1, _factor(on_path(J2, False)), one),  # X off path
                 (0, 0, 1, j2, _factor(on_path(ONE, False)))]:  # Y not exact
        with pytest.raises(ShapeMismatchError, match="does not fit"):
            FactoredForm(tf, (tile,))


def test_a_float_x_on_exact_classes_is_refused_next_to_a_float_label():
    # chi3 (+) chi3bar (+) q8: the q8 block's class is exact, so its tile
    # takes an exact X only, and the dual pair's tiles a float one
    tf = oracle_gens(seg("chi3"), seg("chi3bar"), seg("q8"))
    assert not tf.exact
    tiles = find_nondegenerate_skew(tf).tiles
    (q8,) = [i for i, (_, r, _) in enumerate(tf.blocks) if r == 2]
    (_, _, c, x, y), = [t for t in tiles if t[0] == q8]
    assert _matrix(x).exact
    assert not any(_matrix(t[3]).exact for t in tiles if t[0] != q8)
    twin = _factor(on_path(_matrix(x), False))
    with pytest.raises(ShapeMismatchError, match="does not fit"):
        FactoredForm(tf, (*(t for t in tiles if t[0] != q8),
                          (q8, q8, c, twin, y)))


@pytest.mark.parametrize("i, j", [(-2, 0), (0, -2), (-2, -2)])
def test_a_tile_at_a_negative_block_index_is_refused(i, j):
    # q8 (+) q8b: index -2 would read block 0, and the form would place
    # the tile there and call it invariant
    tf = oracle_gens(seg("q8"), seg("q8b"))
    j2, one = _factor(J2), _factor(ONE)
    with pytest.raises(ShapeMismatchError, match="lies off the 2 blocks"):
        FactoredForm(tf, ((i, j, 1, j2, one),))


@pytest.mark.parametrize("i, j", [(2, 0), (0, 2), (5, 5)])
def test_a_tile_past_the_last_block_is_refused(i, j):
    tf = oracle_gens(seg("q8"), seg("q8b"))
    j2, one = _factor(J2), _factor(ONE)
    with pytest.raises(ShapeMismatchError, match="lies off the 2 blocks"):
        FactoredForm(tf, ((0, 0, 1, j2, one), (i, j, 1, j2, one)))


def test_a_form_has_at_most_one_tile_in_each_block_row():
    tf = oracle_gens(seg("q8"), seg("q8b"))
    j2, one = _factor(J2), _factor(ONE)
    for second in [(0, 0, 1, j2, one), (0, 1, 1, j2, one)]:
        with pytest.raises(ValueError, match="one tile per block row"):
            FactoredForm(tf, ((0, 0, 1, j2, one), second))


def test_a_cycle_of_tiles_is_not_skew():
    # four copies of trivial paired around a cycle 0 -> 1 -> 2 -> 3 -> 0,
    # with signs that make each tile minus the next one's transpose: one
    # tile in every block row and column, but no tile at any opposite
    # block pair, so the form is not skew
    gens = oracle_gens(*[seg("trivial")] * 4)
    form = form_of(gens, *[(i, (i + 1) % 4, (-1) ** i, ONE, ONE)
                           for i in range(4)])
    assert classify_form(form.gram).symmetry is Symmetry.NEITHER
    with pytest.raises(FormVerificationError, match="skew-symmetric"):
        form.verify()


def test_character_orthogonality_within_groups():
    # distinct irreducibles of one group have orthogonal characters
    chi3, chi3bar = MODELS["chi3"], MODELS["chi3bar"]
    chi, chibar = np.array(chi3.character), np.array(chi3bar.character)
    inner = np.mean(chi * chibar.conj())
    assert abs(inner) < 1e-9
    assert abs(np.mean(np.abs(chi) ** 2) - 1) < 1e-9
