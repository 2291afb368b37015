"""Tests for the exact/float matrix layer, forms, and realizations."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodlab import (
    BilinearForm,
    GeneratorSet,
    Matrix,
    PermutationMap,
    QQi,
    Segment,
    Symmetry,
    WDParameter,
    antidiag_J,
    builtin_catalog,
    classify_form,
    conjugator_for_partition,
    find_nondegenerate_skew,
    invariant_form_sl2,
    invariant_forms,
    is_in_sp,
    kron_form,
    partition_J,
    realize,
    sl2_exp_e,
    sl2_exp_f,
    sl2_sym_power_action,
    sym_power,
    symplectic_J,
    w_plus,
)
from periodlab.cli import _even_partitions
from periodlab.errors import (
    ConjugatorNotFoundError,
    OddPartError,
    PeriodLabError,
    OddSizeError,
    ShapeMismatchError,
    TwistedSegmentError,
)
from periodlab.group_models import _element_key
from periodlab.matrix_lab import (
    FLOAT_TOL,
    TensorFactors,
    _Rref,
    blockdiag,
    check_conjugator,
    nullspace_exact,
    nullspace_float,
    tensor_factors,
)

CAT = builtin_catalog()


def seg(name, k=1, twist=0):
    return Segment(CAT.label(name), k, Fraction(twist))


# -- dense matrices ---------------------------------------------------------


def test_from_rows_exact_entries():
    m = Matrix.from_rows([[1, Fraction(1, 2)], [QQi(0, 1), 0]])
    assert m.exact
    assert m.tolist()[0][1] == QQi(Fraction(1, 2))
    assert m.tolist()[1][0] == QQi(0, 1)
    with pytest.raises(ShapeMismatchError):
        Matrix.from_rows([[1, 2], [3]])


def test_matmul_and_kron_exactness():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    b = Matrix.from_rows([[1, 0], [1, 1]])
    assert (a @ b).exact
    assert (a @ b.to_float()).exact is False
    assert (a @ b).equals(Matrix.from_rows([[2, 1], [1, 1]]))
    k = a.kron(b)
    assert k.shape == (4, 4)
    assert k.tolist()[1][0] == QQi(1)
    assert k.tolist()[2][2] == QQi(1)
    with pytest.raises(ShapeMismatchError):
        a @ Matrix.zeros(3, 3)


def test_rank_and_invertibility():
    singular = Matrix.from_rows([[1, 2], [2, 4]])
    assert singular.rank() == 1
    assert not singular.is_invertible()
    assert Matrix.identity(3).rank() == 3
    assert singular.to_float().rank() == 1
    i = QQi(0, 1)
    assert not Matrix.from_rows([[1, i], [i, -1]]).is_invertible()
    assert Matrix.from_rows([[Fraction(1, 3), 1], [0, i / 2]]).is_invertible()


def test_sl2_exponentials_are_invertible():
    # unipotent, but the binomial entries make the condition number so
    # large that a float SVD calls them singular from k = 18 on
    for k in range(1, 25):
        assert sl2_exp_e(k).is_invertible()
        assert sl2_exp_f(k).is_invertible()


gaussian_rationals = st.builds(
    QQi, st.fractions(-3, 3, max_denominator=4),
    st.fractions(-3, 3, max_denominator=4))


def _square_gaussian(n):
    return st.lists(
        st.lists(gaussian_rationals | st.just(QQi(0)), min_size=n,
                 max_size=n), min_size=n, max_size=n)


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    _square_gaussian(n), _square_gaussian(n), st.integers(0, n))))
def test_exact_invertibility_matches_exact_rank(drawn):
    """Products through a rank-r projection, so singular matrices with
    dense Gaussian entries come up as often as invertible ones."""
    a, b, r = drawn
    n = len(a)
    keep = Matrix.from_rows(
        [[int(i == j < r) for j in range(n)] for i in range(n)])
    m = Matrix.from_rows(a) @ keep @ Matrix.from_rows(b)
    assert m.is_invertible() == (m.rank() == n)


def _reference_product(a, b):
    """The exact product as the entrywise QQi sum of products."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), QQi(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _gaussian_rows(rows, cols):
    return st.lists(st.lists(gaussian_rationals | st.just(QQi(0)),
                             min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=60)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
       .flatmap(lambda s: st.tuples(_gaussian_rows(s[0], s[1]),
                                    _gaussian_rows(s[1], s[2]))))
def test_exact_product_matches_entrywise_sums(drawn):
    a, b = drawn
    product = Matrix.from_rows(a) @ Matrix.from_rows(b)
    assert product.exact
    assert product.shape == (len(a), len(b[0]))
    assert product.tolist() == _reference_product(a, b)
    assert _is_reduced(product)


def _is_reduced(m):
    """Whether the stored image (re, im, den) of an exact matrix is reduced:
    a positive den, and gcd(re, im, den) = 1."""
    return m.den > 0 and gcd(m.den, *m.re.flat, *m.im.flat) == 1


@settings(max_examples=60)
@given(st.data())
def test_exact_operations_match_entrywise_references(data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a = data.draw(_gaussian_rows(rows, cols))
    b = data.draw(st.just(a) | _gaussian_rows(rows, cols))
    c = data.draw(_gaussian_rows(cols, rows))
    s = data.draw(gaussian_rationals | st.integers(-3, 3))
    ma, mb, mc = Matrix.from_rows(a), Matrix.from_rows(b), Matrix.from_rows(c)
    kron = [[a[i][j] * c[k][l] for j in range(cols) for l in range(rows)]
            for i in range(rows) for k in range(cols)]
    for got, want in [
            (ma + mb, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
            (-ma, [[-x for x in row] for row in a]),
            (ma.T, _transpose(a)),
            (ma.kron(mc), kron),
            (ma.scale(s), [[x * s for x in row] for row in a]),
            (ma.conj(), [[x.conjugate() for x in row] for row in a])]:
        assert got.exact and _is_reduced(got)
        assert got.tolist() == want
    assert ma.equals(mb) == (a == b)
    assert (_element_key(ma, True) == _element_key(mb, True)) == (a == b)
    # the same matrix reached through another scaling
    back = ma.scale(Fraction(1, 6)).scale(6)
    assert back.equals(ma)
    assert _element_key(back, True) == _element_key(ma, True)


finite_complex = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                    allow_infinity=False)


@settings(max_examples=40)
@given(st.data())
def test_kron_matches_numpy_kron(data):
    shape = st.tuples(st.integers(1, 4), st.integers(1, 4))
    (r, c), (r2, c2) = data.draw(shape), data.draw(shape)
    a, b = data.draw(_gaussian_rows(r, c)), data.draw(_gaussian_rows(r2, c2))
    exact = Matrix.from_rows(a).kron(Matrix.from_rows(b))
    assert exact.exact and _is_reduced(exact)
    assert exact.tolist() == np.kron(np.array(a, dtype=object),
                                     np.array(b, dtype=object)).tolist()
    fa = np.array(data.draw(st.lists(finite_complex, min_size=r * c,
                                     max_size=r * c))).reshape(r, c)
    fb = np.array(data.draw(st.lists(finite_complex, min_size=r2 * c2,
                                     max_size=r2 * c2))).reshape(r2, c2)
    floats = Matrix.from_array(fa).kron(Matrix.from_array(fb))
    assert not floats.exact
    assert np.array_equal(floats.data, np.kron(fa, fb))


def test_blockdiag_mixed_exactness():
    a = Matrix.identity(2)
    b = Matrix.identity(1).to_float()
    m = blockdiag([a, b])
    assert m.shape == (3, 3)
    assert not m.exact
    assert m.is_identity()


def test_trace_and_transpose():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.trace() == QQi(5)
    assert m.T.tolist()[0][1] == QQi(3)
    assert m.conj().equals(m)


# -- null spaces -------------------------------------------------------------


def test_nullspace_exact_simple_kernel():
    # x0 - x1 = 0, x1 - x2 = 0  ->  kernel spanned by (1, 1, 1)
    rows = [{0: (1, 0), 1: (-1, 0)}, {1: (1, 0), 2: (-1, 0)}]
    basis = nullspace_exact(rows, 3)
    assert len(basis) == 1
    (v,) = basis[0].tolist()
    assert v[0] == v[1] == v[2]
    assert v[0] != QQi(0)


def test_nullspace_float_matches_rank():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    basis = nullspace_float(a, 3)
    assert basis.shape == (3, 2)
    assert np.abs(a @ basis).max() < 1e-9


@pytest.mark.parametrize("top, low, rank", [
    (3.0, 3.03e-9, 2), (3.0, 2.97e-9, 1),    # cutoff tol * s_max
    (0.5, 1.01e-9, 2), (0.5, 0.99e-9, 1),    # cutoff tol * 1
])
def test_float_rank_rule_is_shared(top, low, rank):
    m = Matrix.from_array(np.diag([top, low]).astype(complex))
    assert m.rank() == rank
    assert m.is_invertible() == (rank == 2)
    assert nullspace_float(m.data, 2).shape == (2, 2 - rank)


@pytest.mark.parametrize("top, error, equal", [
    (3.0, 2.9e-9, True), (3.0, 3.1e-9, False),    # tol * max entry
    (0.5, 0.9e-9, True), (0.5, 1.1e-9, False),    # tol * 1
])
def test_float_comparison_rule_is_shared(top, error, equal):
    """``equals`` and ``is_in_sp`` accept a difference up to the scale the
    rank rule uses, and ``is_in_sp`` reports the unscaled residue."""
    j = Matrix.from_array(np.array([[0, top], [-top, 0]], dtype=complex))
    moved = Matrix.from_array(j.data + np.array([[0, error], [0, 0]]))
    assert moved.equals(j) == equal
    g = Matrix.from_array(np.array([[1, 0], [0, 1 + error / top]]))
    check = is_in_sp(g, j)
    assert bool(check) == equal
    assert check.residue == pytest.approx(error, rel=1e-6)


small_exact = st.integers(-5, 5)


@given(st.lists(st.lists(small_exact, min_size=4, max_size=4),
                min_size=2, max_size=4))
def test_nullspace_exact_annihilates(rows):
    sparse = [{j: (v, 0) for j, v in enumerate(row) if v} for row in rows]
    sparse = [r for r in sparse if r]
    basis = [v.tolist()[0] for v in nullspace_exact(sparse, 4)]
    assert len(basis) == 4 - Matrix.from_rows(rows).rank()
    for vec in basis:
        for row in sparse:
            assert sum((QQi(0), *(c[0] * vec[j] for j, c in row.items())),
                       QQi(0)) == QQi(0)


gaussian_ints = st.just((0, 0)) | st.tuples(st.integers(-3, 3),
                                            st.integers(-3, 3))


@st.composite
def _sparse_systems(draw):
    """Sparse Gaussian-integer rows on up to 6 columns, among them rows with
    one entry, repeats of them, and explicit (0, 0) entries."""
    ncols = draw(st.integers(1, 6))
    col = st.integers(0, ncols - 1)
    row = (st.dictionaries(col, gaussian_ints, max_size=4)
           | st.builds(lambda c, v: {c: v}, col, gaussian_ints))
    rows = draw(st.lists(row, max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows)), ncols


@settings(max_examples=150)
@given(_sparse_systems())
def test_nullspace_exact_matches_the_plain_reduction(system):
    """Eliminating single-entry rows first gives the basis of reducing every
    row in the order given."""
    rows, ncols = system
    got = nullspace_exact(rows, ncols)
    want = _Rref(ncols, rows).nullspace()
    assert len(got) == len(want)
    assert all(g.equals(w) for g, w in zip(got, want))


# -- forms -------------------------------------------------------------------


def test_classify_form_symmetries():
    sym = classify_form(Matrix.from_rows([[0, 1], [1, 0]]))
    skew = classify_form(Matrix.from_rows([[0, 1], [-1, 0]]))
    neither = classify_form(Matrix.from_rows([[0, 1], [2, 0]]))
    degenerate = classify_form(Matrix.zeros(2, 2))
    assert sym.symmetry is Symmetry.SYMMETRIC and sym.nondegenerate
    assert skew.symmetry is Symmetry.SKEW and skew.nondegenerate
    assert neither.symmetry is Symmetry.NEITHER
    assert degenerate.symmetry is Symmetry.SYMMETRIC
    assert not degenerate.nondegenerate


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


@st.composite
def _forms_of_every_kind(draw):
    """A^T P C P A for a symmetric, skew or unconstrained C and a rank-r
    projection P: the symmetry of C is kept and the rank is at most r."""
    n = draw(st.integers(1, 5))
    dense = st.lists(st.lists(gaussian_rationals, min_size=n, max_size=n),
                     min_size=n, max_size=n)
    x, a = draw(dense), draw(dense)
    sign = draw(st.sampled_from([1, -1, None]))
    core = x if sign is None else [
        [x[r][s] + sign * x[s][r] for s in range(n)] for r in range(n)]
    rank = draw(st.just(n) | st.integers(0, n))
    keep = [[QQi(int(i == j < rank)) for j in range(n)] for i in range(n)]
    m = _transpose(a)
    for right in (keep, core, keep, a):
        m = _reference_product(m, right)
    return m


@settings(max_examples=80)
@given(_forms_of_every_kind())
def test_exact_classify_form_matches_the_definitions(rows):
    n = len(rows)
    gram, transposed = Matrix.from_rows(rows), _transpose(rows)
    if transposed == rows:
        expected = Symmetry.SYMMETRIC
    elif transposed == [[-v for v in row] for row in rows]:
        expected = Symmetry.SKEW
    else:
        expected = Symmetry.NEITHER
    form = classify_form(gram)
    assert form.symmetry is expected
    assert form.nondegenerate == (gram.rank() == n)


def test_standard_forms():
    j = symplectic_J(4)
    assert j.symmetry is Symmetry.SKEW and j.nondegenerate
    assert j.gram.tolist()[0][3] == QQi(1)
    assert j.gram.tolist()[3][0] == QQi(-1)
    assert j.gram.tolist()[1][2] == QQi(1)
    assert antidiag_J(3).tolist()[0][2] == QQi(1)
    with pytest.raises(OddSizeError):
        symplectic_J(3)
    with pytest.raises(OddPartError):
        partition_J([2, 3])


def test_partition_J_is_blockwise():
    f = partition_J([2, 4])
    assert f.symmetry is Symmetry.SKEW and f.nondegenerate
    assert f.gram.tolist()[0][1] == QQi(1)   # first 2x2 block
    assert f.gram.tolist()[2][5] == QQi(1)   # second block starts at index 2
    assert f.gram.tolist()[5][2] == QQi(-1)


def test_kron_form_sign_rule():
    sym = classify_form(Matrix.from_rows([[1]]))
    skew = symplectic_J(2)
    assert kron_form(sym, skew).symmetry is Symmetry.SKEW
    assert kron_form(skew, skew).symmetry is Symmetry.SYMMETRIC
    assert kron_form(skew, skew).nondegenerate


# -- permutations and conjugators ---------------------------------------------


def test_permutation_map_basics():
    p = PermutationMap((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert p.inverse()(2) == 1
    m = p.matrix()
    assert m.tolist()[1][0] == QQi(1)  # column j holds e_{sigma(j)}
    with pytest.raises(ValueError):
        PermutationMap((1, 1, 2))


def test_w_plus_images():
    p = w_plus(2)
    assert p.images == (1, 4, 2, 3)
    q = w_plus(3)
    assert [q(j) for j in range(1, 7)] == [1, 6, 2, 5, 3, 4]


@pytest.mark.parametrize("partition", [(2,), (4,), (2, 2), (6, 2), (4, 4, 2)])
def test_conjugator_postcondition_exact(partition):
    m = sum(partition)
    p = conjugator_for_partition(partition).matrix()
    moved = p.T @ symplectic_J(m).gram @ p
    assert moved.equals(partition_J(partition).gram)


def test_conjugator_matches_w_plus_on_all_two_partitions():
    for n in range(1, 5):
        assert conjugator_for_partition((2,) * n) == w_plus(n)


def test_reindexed_conjugator_check_agrees_with_the_dense_product():
    """Every conjugator found up to 2n = 24 is checked by reindexing J'; its
    P^T J' P, multiplied out, is the partition form too."""
    count = 0
    for m in range(2, 25, 2):
        j_prime = symplectic_J(m).gram
        for part in _even_partitions(m):
            p = conjugator_for_partition(part).matrix()
            assert (p.T @ j_prime @ p).equals(partition_J(part).gram), part
            count += 1
    assert count == 271


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.permutations(range(1, 2 * n + 1)),
    st.sampled_from(list(_even_partitions(2 * n))))))
def test_check_conjugator_decides_the_dense_identity(drawn):
    images, partition = drawn
    perm = PermutationMap(tuple(images))
    target = partition_J(partition).gram
    p = perm.matrix()
    if (p.T @ symplectic_J(perm.n).gram @ p).equals(target):
        assert check_conjugator(perm, target) is perm
    else:
        with pytest.raises(ConjugatorNotFoundError):
            check_conjugator(perm, target)


@pytest.mark.parametrize("partition", [(2,), (4,), (2, 2), (6, 2), (4, 4, 2)])
def test_conjugator_with_two_images_swapped_is_refused(partition):
    target = partition_J(partition).gram
    images = conjugator_for_partition(partition).images
    for a, b in combinations(range(len(images)), 2):
        swapped = list(images)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        with pytest.raises(ConjugatorNotFoundError):
            check_conjugator(PermutationMap(tuple(swapped)), target)


# -- sl2 symmetric powers ------------------------------------------------------


def test_sl2_action_bracket():
    for k in (1, 2, 3, 5):
        act = sl2_sym_power_action(k)
        bracket = act.e @ act.f - act.f @ act.e
        assert bracket.equals(act.h)


def test_sl2_exponentials_match_sym_power():
    upper = Matrix.from_rows([[1, 1], [0, 1]])
    lower = Matrix.from_rows([[1, 0], [1, 1]])
    for k in range(1, 7):
        assert sl2_exp_e(k).equals(sym_power(upper, k))
        assert sl2_exp_f(k).equals(sym_power(lower, k))


def test_invariant_form_sl2_parity_and_uniqueness():
    for k in range(1, 6):
        f = invariant_form_sl2(k)
        want = Symmetry.SYMMETRIC if k % 2 else Symmetry.SKEW
        assert f.symmetry is want
        assert f.nondegenerate
        assert f.gram.exact
        # the group-level solution space agrees and is one-dimensional
        forms = invariant_forms([sl2_exp_e(k), sl2_exp_f(k)])
        assert len(forms) == 1
        assert forms[0].gram.equals(f.gram)


@settings(max_examples=25)
@given(st.lists(st.lists(small_exact, min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(st.lists(small_exact, min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.integers(2, 4))
def test_sym_power_is_multiplicative(a_rows, b_rows, k):
    a = Matrix.from_rows(a_rows)
    b = Matrix.from_rows(b_rows)
    assert sym_power(a @ b, k).equals(sym_power(a, k) @ sym_power(b, k))


# -- membership and invariant forms ---------------------------------------------


def test_is_in_sp_exact_and_float():
    j = symplectic_J(2)
    rot = Matrix.from_rows([[0, 1], [-1, 0]])
    assert is_in_sp(rot, j)
    assert is_in_sp(rot.to_float(), j.gram)
    stretch = Matrix.from_rows([[2, 0], [0, 1]])
    assert not is_in_sp(stretch, j)
    with pytest.raises(ShapeMismatchError):
        is_in_sp(Matrix.identity(3), j)


def _transvection(v, c, j):
    """I + c v v^T J, which preserves every skew J since v^T J v = 0."""
    n = len(v)
    vj = [sum((v[t] * j[t][s] for t in range(n)), QQi(0)) for s in range(n)]
    return [[QQi(int(r == s)) + c * v[r] * vj[s] for s in range(n)]
            for r in range(n)]


@st.composite
def _generator_and_form(draw):
    """J standard, skew or unconstrained, scaled by a rational; g a
    product of transvections for J, perturbed in one entry or not."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["standard", "skew", "any"]))
    x = draw(_square_gaussian(n))
    if kind == "standard" and n % 2 == 0:
        j = symplectic_J(n).gram.tolist()
    elif kind == "any":
        j = x
    else:
        j = [[x[r][s] - x[s][r] for s in range(n)] for r in range(n)]
    scale = draw(st.fractions(1, 9, max_denominator=7))
    j = [[v * scale for v in row] for row in j]
    g = [[QQi(int(r == s)) for s in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.lists(gaussian_rationals, min_size=n, max_size=n))
        g = _reference_product(g, _transvection(v, draw(gaussian_rationals),
                                                j))
    if draw(st.booleans()):
        r, s = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        g[r][s] = g[r][s] + draw(gaussian_rationals.filter(bool))
    return g, j


@settings(max_examples=80)
@given(_generator_and_form())
def test_exact_is_in_sp_matches_entrywise_reference(drawn):
    g, j = drawn
    moved = _reference_product(_reference_product(_transpose(g), j), g)
    holds = moved == j
    gram = Matrix.from_rows(j)
    for form in (gram, classify_form(gram)):
        check = is_in_sp(Matrix.from_rows(g), form)
        assert bool(check) == holds
        assert (check.residue == 0.0) == holds
        if not holds:  # max |g^T J g - J| over the entries, in floats
            assert check.residue == np.abs(
                np.array(moved, dtype=complex) - np.array(j, dtype=complex)
            ).max()


def test_invariant_forms_symplectic_irreducible():
    gens = realize(WDParameter.of([seg("q8")]), CAT)
    forms = invariant_forms(gens)
    assert len(forms) == 1
    assert forms[0].symmetry is Symmetry.SKEW
    assert forms[0].nondegenerate


def test_invariant_forms_orthogonal_irreducible():
    gens = realize(WDParameter.of([seg("d4")]), CAT)
    forms = invariant_forms(gens)
    assert len(forms) == 1
    assert forms[0].symmetry is Symmetry.SYMMETRIC
    assert find_nondegenerate_skew(gens) is None


def test_invariant_forms_double_block():
    gens = realize(WDParameter.of([seg("q8"), seg("q8")]), CAT)
    forms = invariant_forms(gens)
    assert len(forms) == 4  # Hom space of two identical copies is 2x2
    skew = find_nondegenerate_skew(gens)
    assert skew is not None
    for g in gens.generators:
        assert is_in_sp(g, skew)


def test_invariant_forms_float_path():
    gens = realize(WDParameter.of([seg("chi3"), seg("chi3bar")]), CAT)
    assert not gens.exact
    forms = invariant_forms(gens)
    assert sorted(f.symmetry.value for f in forms) == ["skew", "symmetric"]
    skew = find_nondegenerate_skew(gens)
    assert skew is not None
    for g in gens.generators:
        assert is_in_sp(g, skew)


# -- the skew form, class by class ------------------------------------------


def _gens(*segments):
    return realize(WDParameter.of(segments), CAT)


def _rows(gens, name):
    """The rows of the blocks labelled ``name`` in a realization."""
    return [i for s, (lo, hi) in zip(gens.recipe.segments, gens.recipe.spans)
            if s.cuspidal.name == name for i in range(lo, hi)]


def _vanishes(form, rows, cols):
    """Whether every entry of the form at (rows, cols) is zero, within
    FLOAT_TOL on the float path; the reference forms have leading entry 1."""
    return bool(np.all(np.abs(form.gram.as_complex()[np.ix_(rows, cols)])
                       <= FLOAT_TOL))


@pytest.mark.parametrize("segments, lonely", [
    (["chi3"], "chi3"), (["chi3", "q8"], "chi3"),
    (["chi3bar", "trivial", "trivial"], "chi3bar")])
def test_no_pairing_certificate(segments, lonely):
    # a class that pairs with no class: every invariant form vanishes on
    # its rows
    gens = _gens(*map(seg, segments))
    assert find_nondegenerate_skew(gens) is None
    rows, every = _rows(gens, lonely), list(range(gens.dim))
    assert all(_vanishes(f, rows, every) for f in invariant_forms(gens))


@pytest.mark.parametrize("segments, larger, smaller", [
    (["chi3", "chi3", "chi3bar"], "chi3", "chi3bar"),
    (["q8", "chi3bar", "chi3", "chi3bar"], "chi3bar", "chi3"),
])
def test_unequal_multiplicity_certificate(segments, larger, smaller):
    # every invariant form maps the rows of the larger class into the
    # columns of the smaller, so every form in the span has rank below n
    gens = _gens(*map(seg, segments))
    assert find_nondegenerate_skew(gens) is None
    rows = _rows(gens, larger)
    outside = sorted(set(range(gens.dim)) - set(_rows(gens, smaller)))
    assert len(rows) > len(_rows(gens, smaller))
    assert all(_vanishes(f, rows, outside) for f in invariant_forms(gens))


def _kron_quotient(b: Matrix, p: Matrix) -> Matrix:
    """The M with b = M (x) p, read off at p's first nonzero entry;
    asserts that b is that product."""
    d = p.rows
    a, c = next((a, c) for a in range(d) for c in range(d)
                if p.re[a, c] or p.im[a, c])
    m = b.apply(lambda x: x[a::d, c::d]).scale(1 / p.tolist()[a][c])
    assert m.kron(p).equals(b)
    return m


@pytest.mark.parametrize("name, k, copies", [
    ("trivial", 1, 3), ("q8", 2, 1), ("q8", 2, 3)])
def test_symmetric_pairing_at_odd_multiplicity_certificate(name, k, copies):
    # every invariant skew form is M (x) P with M skew of odd size, so every
    # form in their span is degenerate
    (p,) = invariant_forms(_gens(seg(name, k)))
    assert p.symmetry is Symmetry.SYMMETRIC
    gens = _gens(*[seg(name, k)] * copies)
    assert find_nondegenerate_skew(gens) is None
    skews = [f for f in invariant_forms(gens) if f.symmetry is Symmetry.SKEW]
    assert len(skews) == copies * (copies - 1) // 2
    for f in skews:
        m = _kron_quotient(f.gram, p.gram)
        assert m.rows % 2 and (-m.T).equals(m)


@pytest.mark.parametrize("segments, exact", [
    (["q8"], True),                  # skew P on every copy
    (["q8", "q8", "q8"], True),
    (["trivial", "trivial"], True),  # symmetric P on pairs of copies
    (["chi3", "chi3bar"], False),    # P and -P^T on a dual pair
    (["chi3bar", "q8", "chi3"], False),
])
def test_skew_form_constructions(segments, exact):
    gens = _gens(*map(seg, segments))
    j = find_nondegenerate_skew(gens)
    dense = classify_form(j.gram)
    assert dense.symmetry is Symmetry.SKEW and dense.nondegenerate
    assert j.is_skew() and j.is_nondegenerate()
    assert j.gram.exact is exact
    assert all(is_in_sp(g, j) for g in gens.generators)


def test_symmetric_pairs_are_placed_off_the_diagonal():
    j = find_nondegenerate_skew(_gens(*[seg("trivial")] * 4))
    assert j.gram.equals(partition_J((2, 2)).gram)


def test_a_reducible_block_is_an_internal_error():
    # one block holding two copies of a rotation pairs with itself too often
    gens = [Matrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, -1, 0]])]
    with pytest.raises(PeriodLabError, match="independent invariant pairings"):
        find_nondegenerate_skew(gens)


def test_a_class_pairing_with_two_classes_is_an_internal_error():
    # q8 and a conjugate of it: isomorphic blocks with unequal factors
    q8 = _gens(seg("q8")).generators
    s, s_inv = Matrix.from_rows([[1, 1], [0, 1]]), Matrix.from_rows(
        [[1, -1], [0, 1]])
    rho = tuple(tuple((tuple(m.re.flat), tuple(m.im.flat), m.den)
                      for m in mats)
                for mats in (q8, [s @ g @ s_inv for g in q8]))
    tf = TensorFactors(4, ((0, 2, 1), (2, 2, 1)), rho, ((), ()), True)
    gens = GeneratorSet(tf, ("a",) * len(q8))
    with pytest.raises(PeriodLabError, match="pairs with 2 classes"):
        find_nondegenerate_skew(gens)


# -- realizations -----------------------------------------------------------


def test_realize_structure():
    gens = realize(WDParameter.of([seg("q8", 2)]), CAT)
    assert gens.dim == 4
    assert gens.exact
    assert set(gens.provenance) == {
        "group:q8:0", "group:q8:1", "sl2:exp_e", "sl2:exp_f"}
    for g in gens.generators:
        assert g.is_square and g.rows == 4


def test_realize_trivial_block_falls_back_to_identity():
    gens = realize(WDParameter.of([seg("trivial")]), CAT)
    assert gens.provenance == ("identity",)
    assert gens.generators[0].is_identity()


def test_realize_shares_group_action_across_blocks():
    gens = realize(WDParameter.of([seg("q8"), seg("q8", 3)]), CAT)
    assert gens.dim == 8
    # one q8 generator acts simultaneously in both blocks
    g = gens.generators[0]
    assert not g.tolist()[0][0] or g.tolist()[0][0] != QQi(1)


def _dense_reference(p):
    """The generators of ``realize(p)`` assembled densely, in provenance
    order: per group generator the blockdiag of kron(A, I_k) on the blocks
    of its group and the identity elsewhere (skipped when it is the
    identity), then the blockdiag of kron(I_r, exp) for exp(E) and exp(F)
    when some k > 1, else the identity."""
    segs = p.segments
    models = [CAT.model_for(s.cuspidal) for s in segs]
    exact = all(m.exact for m in models)
    groups = []
    for m in models:
        if not any(g is m.group for g in groups):
            groups.append(m.group)
    out = []
    for group in groups:
        for idx in group.generator_idxs:
            g = blockdiag([
                m.matrices[idx].kron(Matrix.identity(s.k, m.exact))
                if m.group is group else Matrix.identity(s.dim, exact)
                for s, m in zip(segs, models)])
            if not g.is_identity():
                out.append(g if g.exact == exact else g.to_float())
    if any(s.k > 1 for s in segs):
        for exp in (sl2_exp_e, sl2_exp_f):
            out.append(blockdiag([Matrix.identity(s.cuspidal.dim).kron(
                exp(s.k)) for s in segs]))
    return out or [Matrix.identity(p.dim, exact)]


@pytest.mark.parametrize("segments", [
    (("q8", 2), ("s3", 1)),  # exact
    (("chi3", 1), ("chi3bar", 2)),  # float
    (("chi3", 2), ("q8", 1)),  # an exact label next to a float one
    (("q8", 1), ("q8", 3)),  # one group shared across blocks
    (("q8", 1), ("q8b", 1), ("d4", 2), ("trivial", 3)),  # mixed groups
    (("q8", 1), ("s3", 1), ("trivial", 1)),  # only k = 1
    (("trivial", 1), ("trivial", 1)),  # the identity fallback
])
def test_realize_matches_the_dense_kronecker_assembly(segments):
    p = WDParameter.of([seg(name, k) for name, k in segments])
    gens = realize(p, CAT)
    want = _dense_reference(p)
    assert len(gens.provenance) == len(gens.generators) == len(want)
    assert gens.dim == p.dim
    assert gens.exact == all(CAT.model_for(s.cuspidal).exact
                             for s in p.segments)
    for got, ref in zip(gens.generators, want):
        assert got.exact == ref.exact
        assert got.tolist() == ref.tolist()


def test_generator_set_rejects_singular_factors():
    singular = Matrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="invertible"):
        GeneratorSet(tensor_factors([singular]), ("one",))
    with pytest.raises(ValueError, match="invertible"):
        GeneratorSet(tensor_factors([singular.to_float()]), ("one",))
    ident = ((1, 0, 0, 1), (0, 0, 0, 0), 1)
    bad = ((1, 1, 0, 0), (0, 0, 0, 0), 1)
    for rho, sl2 in [(bad, ident), (ident, bad)]:
        # A (x) I_2 or I_2 (x) U is singular exactly when its factor is
        factors = TensorFactors(4, ((0, 2, 2),), ((rho,),), ((sl2,),), True)
        with pytest.raises(ValueError, match="invertible"):
            GeneratorSet(factors, ("rho", "sl2"))
    with pytest.raises(ValueError, match="provenance"):
        GeneratorSet(tensor_factors([Matrix.identity(2)]), ("a", "b"))


def test_realize_rejects_twists_and_empty():
    with pytest.raises(TwistedSegmentError):
        realize(WDParameter.of([seg("q8", 1, Fraction(1, 2))]), CAT)
    with pytest.raises(ValueError):
        realize(WDParameter.of([]), CAT)
