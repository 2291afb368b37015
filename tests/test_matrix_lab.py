"""Tests for the exact/float matrix layer, forms, and realizations."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodlab import (
    BilinearForm,
    Matrix,
    PermutationMap,
    QQi,
    Segment,
    Symmetry,
    WDParameter,
    builtin_catalog,
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
from periodlab.cli import VERIFY_MAX_K, _even_partitions, main
from periodlab.errors import (
    ConjugatorNotFoundError,
    OddPartError,
    PeriodLabError,
    OddSizeError,
    ShapeMismatchError,
    TwistedSegmentError,
)
from periodlab import linalg, matrix_lab
from periodlab.group_models import _element_key
from periodlab.linalg import (
    FLOAT_TOL,
    _normalized,
    _sparse_row,
    nullspace_exact,
    nullspace_float,
)
from periodlab.matrix_lab import (
    TensorFactors,
    _factor,
    blockdiag,
    check_conjugator,
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
    assert (a @ Matrix.from_array(b.as_complex())).exact is False
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
    assert Matrix.from_array(singular.as_complex()).rank() == 1
    i = QQi(0, 1)
    assert not Matrix.from_rows([[1, i], [i, -1]]).is_invertible()
    assert Matrix.from_rows([[Fraction(1, 3), 1], [0, i / 2]]).is_invertible()
    assert not Matrix.from_rows([[1, 0, 0], [0, 1, 0]]).is_invertible()
    assert Matrix.identity(0).is_invertible()
    assert Matrix.identity(0, exact=False).is_invertible()


def test_sl2_exponentials_are_invertible():
    # unipotent, but the binomial entries make the condition number so
    # large that a float SVD calls them singular from k = 18 on
    for k in range(1, 25):
        assert sl2_exp_e(k).is_invertible()
        assert sl2_exp_f(k).is_invertible()


gaussian_rationals = st.builds(
    QQi, st.fractions(-3, 3, max_denominator=4),
    st.fractions(-3, 3, max_denominator=4))


# the values of gaussian_rationals as integers, a numerator and a
# denominator per part: the tests that form products from them form the
# entries (_entries) and the products in their bodies, so that drawing
# stays cheap
_fraction_ints = st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.integers(-3 * d, 3 * d), st.just(d)))
gaussian_rational_ints = st.tuples(_fraction_ints, _fraction_ints)
ZERO_INTS = ((0, 1), (0, 1))


def _entries(rows):
    """The QQi entries of rows of draws of ``gaussian_rational_ints``."""
    return [[QQi(Fraction(*re), Fraction(*im)) for re, im in row]
            for row in rows]


def _square_gaussian(n, entries=gaussian_rational_ints
                     | st.just(ZERO_INTS)):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n,
                    max_size=n)


# The values of gaussian_rationals drawn as one flat list of ints, four per
# value: per part a numerator draw a and a denominator draw b, read as
# (a * d // 4) / d with d = b % 4 + 1, which reaches every fraction in
# [-3, 3] of denominator at most 4.  One list draw per matrix, with no
# flatmap per entry, keeps input generation fast under load; the values are
# built in the test bodies (_gaussian_values).
_PART_INTS = st.integers(-12, 12)


def _flat_ints(count):
    """The ints of ``count`` Gaussian rationals, as one flat list."""
    return st.lists(_PART_INTS, min_size=4 * count, max_size=4 * count)


def _gaussian_values(ints):
    """The QQi values of a draw of :func:`_flat_ints`."""
    parts = [Fraction(a * (b % 4 + 1) // 4, b % 4 + 1)
             for a, b in zip(ints[::2], ints[1::2])]
    return [QQi(re, im) for re, im in zip(parts[::2], parts[1::2])]


def _square_rows(values, n):
    return [values[r * n:(r + 1) * n] for r in range(n)]


def _minor_rank(entries, ncols):
    """The rank of a matrix of Gaussian-integer entries ``(re, im)``: the
    size of its largest nonzero minor.  Each minor is a cofactor expansion
    along its first row, memoized on its row and column subsets, so the
    determinant of an n x n matrix costs O(n 2^n).  It is a reference that
    shares no code with the row reduction of ``matrix_lab``."""
    @lru_cache(maxsize=None)
    def minor(rows, cols):
        if not rows:
            return 1, 0
        re = im = 0
        for t, c in enumerate(cols):
            mr, mi = minor(rows[1:], cols[:t] + cols[t + 1:])
            ar, ai = entries[rows[0]][c]
            sign = -1 if t % 2 else 1
            re += sign * (ar * mr - ai * mi)
            im += sign * (ar * mi + ai * mr)
        return re, im

    for size in range(min(len(entries), ncols), 0, -1):
        if any(minor(rows, cols) != (0, 0)
               for rows in combinations(range(len(entries)), size)
               for cols in combinations(range(ncols), size)):
            return size
    return 0


def _gaussian_entries(m):
    """The entries (re, im) of the Gaussian-integer image of an exact
    matrix, whose rank is the matrix's."""
    return [list(zip(r, i)) for r, i in zip(m.re.tolist(), m.im.tolist())]


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    _square_gaussian(n), _square_gaussian(n), st.integers(0, n))))
def test_exact_invertibility_matches_the_determinant(drawn):
    """Products through a rank-r projection, so singular matrices with
    dense Gaussian entries come up as often as invertible ones: the exact
    rank is the size of the largest nonzero minor, and the matrix is
    invertible exactly when its determinant is nonzero."""
    a, b, r = drawn
    a, b = _entries(a), _entries(b)
    n = len(a)
    keep = Matrix.from_rows(
        [[int(i == j < r) for j in range(n)] for i in range(n)])
    m = Matrix.from_rows(a) @ keep @ Matrix.from_rows(b)
    rank = _minor_rank(_gaussian_entries(m), n)
    assert m.rank() == rank
    assert m.is_invertible() == (rank == n)


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
    assert (_element_key(ma) == _element_key(mb)) == (a == b)
    # the same matrix reached through another scaling
    back = ma.scale(Fraction(1, 6)).scale(6)
    assert back.equals(ma)
    assert _element_key(back) == _element_key(ma)


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
    b = Matrix.identity(1, exact=False)
    m = blockdiag([a, b])
    assert m.shape == (3, 3)
    assert not m.exact
    assert m.is_identity()


def test_trace_and_transpose():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.trace() == QQi(5)
    assert m.T.tolist()[0][1] == QQi(3)
    assert m.conj().equals(m)


def test_normalized_divides_by_the_first_nonzero_entry():
    # a negative real leading entry, and a Gaussian one: (1 + i) / 2i is
    # (1 - i)/2 and 3 / 2i is -3i/2
    half = Fraction(1, 2)
    real = Matrix.from_rows([[0, -2], [4, 1]]).normalized()
    assert real.equals(Matrix.from_rows([[0, 1], [-2, -half]]))
    gaussian = Matrix.from_rows([[0, QQi(0, 2)], [QQi(1, 1), 3]]).normalized()
    assert gaussian.equals(Matrix.from_rows(
        [[0, 1], [QQi(half, -half), QQi(0, -3 * half)]]))


# -- null spaces -------------------------------------------------------------


def test_nullspace_exact_simple_kernel():
    # x0 - x1 = 0, x1 - x2 = 0  ->  kernel spanned by (1, 1, 1)
    rows = [{0: (1, 0), 1: (-1, 0)}, {1: (1, 0), 2: (-1, 0)}]
    basis = nullspace_exact(rows, 3)
    assert len(basis) == 1
    (v,) = basis[0].tolist()
    assert v[0] == v[1] == v[2]
    assert v[0] != QQi(0)


_PATTERNS = {
    "upper": lambda r, c, cols: c >= r,
    "lower": lambda r, c, cols: c <= r,
    "monomial": lambda r, c, cols: c == cols[r],  # columns may repeat
    "general": lambda r, c, cols: True,
}


@settings(max_examples=150)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.sampled_from(sorted(_PATTERNS)),
    st.lists(st.integers(-3, 3), min_size=2 * n * n, max_size=2 * n * n),
    st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
def test_invertibility_of_patterned_matrices_matches_the_determinant(drawn):
    """Upper and lower triangular, monomial and general Gaussian-integer
    matrices, with about a quarter of their entries zeroed: the exact rank
    is the size of the largest nonzero minor, and the matrix is invertible
    exactly when its determinant is nonzero."""
    kind, ints, keep, cols = drawn
    n = len(cols)
    parts = np.array(ints, dtype=object).reshape(2, n, n)
    for r in range(n):
        for c in range(n):
            if not (keep[r * n + c] and _PATTERNS[kind](r, c, cols)):
                parts[:, r, c] = 0
    m = Matrix.gaussian(parts[0], parts[1])
    rank = _minor_rank(_gaussian_entries(m), n)
    assert m.rank() == rank
    assert m.is_invertible() == (rank == n)


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
def test_nullspace_exact_annihilates(system):
    """The basis solves every row, is independent, and has one vector for
    each column past the rank of the rows."""
    rows, ncols = system
    basis = nullspace_exact(rows, ncols)
    dense = [[row.get(c, (0, 0)) for c in range(ncols)] for row in rows]
    assert len(basis) == ncols - _minor_rank(dense, ncols)
    assert _minor_rank([_gaussian_entries(v)[0] for v in basis],
                       ncols) == len(basis)
    for (vec,) in (v.tolist() for v in basis):
        for row in rows:
            assert sum((QQi(*x) * vec[c] for c, x in row.items()),
                       QQi(0)) == QQi(0)


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
    """The integer draws of :func:`_form_of_every_kind`: the size, X and A
    as flat lists, the sign and the rank."""
    n = draw(st.integers(1, 5))
    return (n, draw(_flat_ints(n * n)), draw(_flat_ints(n * n)),
            draw(st.sampled_from([1, -1, None])),
            draw(st.just(n) | st.integers(0, n)))


def _form_of_every_kind(n, x, a, sign, rank):
    """A^T P C P A for a symmetric, skew or unconstrained C built from X
    and a rank-r projection P: the symmetry of C is kept and the rank is at
    most r."""
    x, a = (_square_rows(_gaussian_values(m), n) for m in (x, a))
    core = x if sign is None else [
        [x[r][s] + sign * x[s][r] for s in range(n)] for r in range(n)]
    keep = [[QQi(int(i == j < rank)) for j in range(n)] for i in range(n)]
    m = _transpose(a)
    for right in (keep, core, keep, a):
        m = _reference_product(m, right)
    return m


@st.composite
def _monomial_forms(draw):
    """A form with one nonzero entry in every row and column, placed on a
    drawn involution with each pair's two entries drawn equal, opposite or
    free; sometimes one entry is zeroed or one entry is added, so that the
    form is not monomial."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    cols = list(range(n))
    for t in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * t], order[2 * t + 1]
        cols[a], cols[b] = b, a
    sign = draw(st.sampled_from([1, -1, None]))
    nonzero = gaussian_rationals.filter(bool)
    rows = [[QQi(0)] * n for _ in range(n)]
    for a in range(n):
        b = cols[a]
        if sign is not None and b < a:
            rows[a][b] = rows[b][a] * sign
        else:
            rows[a][b] = draw(nonzero)
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[r][c] = draw(st.sampled_from([rows[r][c], QQi(0), QQi(1)]))
    return rows


@settings(max_examples=160)
@given(st.one_of(_forms_of_every_kind(), _monomial_forms()))
def test_exact_classify_form_matches_the_definitions(drawn):
    """The forms of :func:`_form_of_every_kind` and, drawn as rows, those
    of :func:`_monomial_forms`, against the entrywise definitions."""
    rows = drawn if isinstance(drawn, list) else _form_of_every_kind(*drawn)
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
    assert form.nondegenerate == (_minor_rank(_gaussian_entries(gram), n)
                                  == n)


def _float_rule(gram):
    """classify_form's float rule, uncached: the symmetry by Matrix.equals
    against the transpose, nondegeneracy by the SVD rank rule."""
    gt = gram.T
    if gt.equals(gram):
        sym = Symmetry.SYMMETRIC
    elif gt.equals(-gram):
        sym = Symmetry.SKEW
    else:
        sym = Symmetry.NEITHER
    return sym, gram.is_invertible()


@settings(max_examples=80)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-9, 9), min_size=4 * n * n,
                         max_size=4 * n * n),
    st.sampled_from([1, -1, None]), st.integers(0, n))))
def test_float_classify_form_matches_the_uncached_rule(drawn):
    """Float grams of sizes 1-4, symmetric, skew or neither and of any
    rank (A^T P C P A with P a rank-r projection): classify_form reads
    them, and the same gram with one entry moved, as the uncached rule
    does, first with the cache the earlier examples left, then with a
    cleared oracle."""
    n, ints, sign, rank = drawn
    parts = np.array(ints, dtype=float).reshape(2, 2, n, n) / 7
    x, a = parts[:, 0] + 1j * parts[:, 1]
    core = x if sign is None else x + sign * x.T
    keep = np.diag([1.0 if i < rank else 0.0 for i in range(n)])
    dense = a.T @ keep @ core @ keep @ a
    bumped = dense.copy()
    bumped[-1, 0] += 1  # one entry apart: a cache key must see all of them
    for clear in (False, True):
        if clear:
            matrix_lab.clear()
        for gram in map(Matrix.from_array, (dense, bumped)):
            form = classify_form(gram)
            assert form.gram is gram
            assert (form.symmetry, form.nondegenerate) == _float_rule(gram)


def test_the_J_forms_are_skew_nondegenerate_and_one_entry_edits_are_not_skew():
    for m in range(2, 25, 2):
        form = classify_form(symplectic_J(m).gram)
        assert form.symmetry is Symmetry.SKEW and form.nondegenerate
    g = symplectic_J(6).gram
    flipped, zeroed = g.re.copy(), g.re.copy()
    flipped[1, 4], zeroed[1, 4] = -1, 0
    flipped = classify_form(Matrix.gaussian(flipped))
    assert flipped.symmetry is Symmetry.NEITHER and flipped.nondegenerate
    zeroed = classify_form(Matrix.gaussian(zeroed))
    assert zeroed.symmetry is Symmetry.NEITHER and not zeroed.nondegenerate


def test_standard_forms():
    j = symplectic_J(4)
    assert j.symmetry is Symmetry.SKEW and j.nondegenerate
    assert j.gram.tolist()[0][3] == QQi(1)
    assert j.gram.tolist()[3][0] == QQi(-1)
    assert j.gram.tolist()[1][2] == QQi(1)
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


# -- permutations and conjugators ---------------------------------------------


def test_permutation_map_basics():
    p = PermutationMap((2, 3, 1))
    m = p.matrix()
    assert m.tolist()[1][0] == QQi(1)  # column j holds e_{sigma(j)}
    with pytest.raises(ValueError):
        PermutationMap((1, 1, 2))


def test_w_plus_images():
    p = w_plus(2)
    assert p.images == (1, 4, 2, 3)
    q = w_plus(3)
    assert q.images == (1, 6, 2, 5, 3, 4)


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
    """Every conjugator found up to 2n = 24 is checked on signed pairings;
    its P^T J' P, multiplied out, is the partition form too."""
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
        assert check_conjugator(perm, partition) is perm
    else:
        with pytest.raises(ConjugatorNotFoundError):
            check_conjugator(perm, partition)


@pytest.mark.parametrize("partition", [(2,), (4,), (2, 2), (6, 2), (4, 4, 2)])
def test_conjugator_with_two_images_swapped_is_refused(partition):
    target = partition_J(partition).gram
    j_prime = symplectic_J(sum(partition)).gram
    images = conjugator_for_partition(partition).images
    for a, b in combinations(range(len(images)), 2):
        swapped = list(images)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        perm = PermutationMap(tuple(swapped))
        p = perm.matrix()
        assert not (p.T @ j_prime @ p).equals(target)
        with pytest.raises(ConjugatorNotFoundError):
            check_conjugator(perm, partition)


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


def test_sl2_exponentials_are_the_exponentials_of_the_triple():
    """A "no" of the weight solve is a certificate because exp E and exp F
    are the exponentials of the E and F of _sl2_triple, whose bracket is
    its diagonal H: the finite series sum_t X^t / t! of the nilpotent X
    equals them exactly, for every k <= 24."""
    for k in range(1, 25):
        act = sl2_sym_power_action(k)
        assert (act.e @ act.f - act.f @ act.e).equals(act.h)
        for x, exp in ((act.e, sl2_exp_e(k)), (act.f, sl2_exp_f(k))):
            term = total = Matrix.identity(k)
            for t in range(1, k + 1):
                term = (term @ x).scale(Fraction(1, t))
                total = total + term
            assert term.equals(Matrix.zeros(k, k)), k  # X^k = 0
            assert total.equals(exp), k


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


def _kron_rows(m):
    """The rows of an exact system matrix, as sparse Gaussian-integer rows
    (its denominator dropped)."""
    return [_sparse_row(re, im) for re, im in zip(m.re.tolist(),
                                                  m.im.tolist())]


def _pairing_system(l, r):
    """L^T X R - X = 0 on the row-major vec of X: L^T (x) R^T - I, as
    vec(A X B) = (A (x) B^T) vec(X)."""
    return l.T.kron(r.T) - Matrix.identity(l.rows * r.rows)


def _intertwining_system(l, r):
    """L X - X R = 0 on the row-major vec of X: L (x) I - I (x) R^T."""
    return (l.kron(Matrix.identity(r.rows))
            - Matrix.identity(l.rows).kron(r.T))


def test_invariant_form_sl2_matches_the_dense_solve():
    """Up to k = 24 the form equals the one vector the whole system of 3k^2
    E, F and H rows leaves, normalized, and its symmetry and nondegeneracy
    are what classify_form reads off it.  The rows of X^T Y + Y X = 0 are
    those of -X^T Y - Y X = 0, the intertwiners of -X^T and X."""
    for k in range(1, 25):
        act = sl2_sym_power_action(k)
        rows = []
        for x in (act.e, act.f, act.h):
            rows += _kron_rows(_intertwining_system(-x.T, x))
        assert len(rows) == 3 * k * k
        basis = nullspace_exact(rows, k * k)
        assert len(basis) == 1
        vec = _sparse_row(basis[0].re[0], basis[0].im[0])
        form = invariant_form_sl2(k)
        assert form.gram.equals(_normalized(vec, min(vec), k)), k
        dense = classify_form(form.gram)
        assert form.symmetry is dense.symmetry, k
        assert form.nondegenerate == dense.nondegenerate, k
        assert form.symmetry is (Symmetry.SYMMETRIC if k % 2
                                 else Symmetry.SKEW)


def test_invariant_form_sl2_has_the_closed_form(monkeypatch):
    """The antidiagonal c_j = b_{j, k-1-j} of the form is
    c_0 (-1)^j / C(k-1, j), for every k the verify-matrices cap allows, and
    the weight solve behind it (``sl2_pairings(k, k)``, run past its cache)
    takes no row reduction."""
    def no_reduction(*args):
        raise AssertionError("row reduction in the sl2 weight solve")

    solved, solve = [], matrix_lab.sl2_pairings.__wrapped__

    def weight_solve(k, k2):
        solved.append((k, k2))
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "nullspace_exact", no_reduction)
            patch.setattr(linalg, "_Rref", no_reduction)
            return solve(k, k2)

    monkeypatch.setattr(matrix_lab, "sl2_pairings", weight_solve)
    for k in range(1, VERIFY_MAX_K + 1):
        gram = invariant_form_sl2(k).gram
        assert not gram.im.any()
        for j in range(k):
            c = Fraction(gram.re[j, k - 1 - j], gram.den)
            assert c == Fraction((-1) ** j, comb(k - 1, j)), (k, j)
    assert solved == [(k, k) for k in range(1, VERIFY_MAX_K + 1)]


def _broken_triple(monkeypatch, which, entry, value, one_side=False):
    """Replace one (row, col, value) entry of E (which=0) or F (which=1);
    with ``one_side``, in every second read of the triple only, so that of
    the two reads of S(k) x S(k) in a solve or a check, one is changed."""
    real, reads = matrix_lab._sl2_triple, count()

    def triple(k):
        mats = [list(m) for m in real(k)]
        if not one_side or next(reads) % 2:
            r, c, _ = mats[which][entry]
            mats[which][entry] = (r, c, value)
        return tuple(mats)

    monkeypatch.setattr(matrix_lab, "_sl2_triple", triple)


@pytest.mark.parametrize("k, entry", [(2, 0), (5, 0), (5, 2), (8, 6)])
def test_invariant_form_sl2_refuses_a_broken_e_chain(monkeypatch, k, entry):
    """A zero E entry removes a link of the chain: no form is returned, even
    at k = 2, where the F row alone would still fix one."""
    _broken_triple(monkeypatch, 0, entry, 0)
    with pytest.raises(PeriodLabError, match=f"k={k}"):
        invariant_form_sl2(k)


@pytest.mark.parametrize("k, entry", [(3, 0), (5, 0), (5, 3), (8, 4)])
def test_invariant_form_sl2_checks_every_f_row(monkeypatch, k, entry):
    """The E chain alone fixes the candidate; a changed F entry makes an F
    row fail on it."""
    _broken_triple(monkeypatch, 1, entry, k + 1)
    with pytest.raises(PeriodLabError, match=f"k={k}"):
        invariant_form_sl2(k)


@pytest.mark.parametrize("k, entry", [(2, 0), (5, 0), (5, 2), (8, 6)])
def test_sl2_intertwiners_refuse_a_broken_e_chain(monkeypatch, k, entry):
    """A zero E entry removes a link of the intertwiners' chain too."""
    _broken_triple(monkeypatch, 0, entry, 0)
    with pytest.raises(PeriodLabError, match=f"k={k}"):
        matrix_lab.sl2_intertwiners(k, k)


@pytest.mark.parametrize("k, entry", [(3, 0), (5, 0), (5, 3), (8, 4)])
def test_sl2_intertwiners_check_every_f_row(monkeypatch, k, entry):
    """The E chain alone fixes the candidate, the identity.  It intertwines
    any F with itself, so an F entry changed on both sides keeps it, and
    one changed on one side only makes an F row fail on it."""
    with monkeypatch.context() as patched:
        _broken_triple(patched, 1, entry, k + 1)
        (y,) = matrix_lab.sl2_intertwiners(k, k)
        assert y.is_identity()
    matrix_lab.clear()
    _broken_triple(monkeypatch, 1, entry, k + 1, one_side=True)
    assert matrix_lab.sl2_intertwiners(k, k) == ()


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
    assert is_in_sp(Matrix.from_array(rot.as_complex()), j.gram)
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
def _generator_and_form_ints(draw):
    """The integer draws of :func:`_generator_and_form`: the size, the kind
    of J, X as a flat list and the mask of its zero entries (each entry zero
    with probability about 1/2), the scale (numerator, denominator), the
    transvections (v, c) as one flat list, and the perturbation (row,
    column, nonzero value) or None."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["standard", "skew", "any"]))
    x, zeros = draw(_flat_ints(n * n)), draw(st.integers(0, 2 ** (n * n) - 1))
    den = draw(st.integers(1, 7))
    scale = draw(st.integers(den, 9 * den)), den
    moves = draw(_flat_ints((n + 1) * draw(st.integers(0, 3))))
    bump = None
    if draw(st.booleans()):
        bump = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
                draw(_flat_ints(1).filter(lambda v: any(_gaussian_values(v)))))
    return n, kind, x, zeros, scale, moves, bump


def _generator_and_form(n, kind, x, zeros, scale, moves, bump):
    """J standard, skew or unconstrained, scaled by a rational; g a
    product of transvections for J, perturbed in one entry or not."""
    x = _square_rows([QQi(0) if zeros >> e & 1 else v
                      for e, v in enumerate(_gaussian_values(x))], n)
    if kind == "standard" and n % 2 == 0:
        j = symplectic_J(n).gram.tolist()
    elif kind == "any":
        j = x
    else:
        j = [[x[r][s] - x[s][r] for s in range(n)] for r in range(n)]
    j = [[v * Fraction(*scale) for v in row] for row in j]
    g = [[QQi(int(r == s)) for s in range(n)] for r in range(n)]
    moves = _gaussian_values(moves)
    for t in range(0, len(moves), n + 1):
        g = _reference_product(g, _transvection(moves[t:t + n],
                                                moves[t + n], j))
    if bump is not None:
        r, s, value = bump
        g[r][s] = g[r][s] + _gaussian_values(value)[0]
    return g, j


@settings(max_examples=80)
@given(_generator_and_form_ints())
def test_exact_is_in_sp_matches_entrywise_reference(drawn):
    g, j = _generator_and_form(*drawn)
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
    for g in gens.dense():
        assert is_in_sp(g, skew)


def test_invariant_forms_float_path():
    gens = realize(WDParameter.of([seg("chi3"), seg("chi3bar")]), CAT)
    assert not gens.exact
    forms = invariant_forms(gens)
    assert sorted(f.symmetry.value for f in forms) == ["skew", "symmetric"]
    # the forms place X (x) Y with X paired across chi3 and chi3bar: float
    assert not any(f.gram.exact for f in forms)
    skew = find_nondegenerate_skew(gens)
    assert skew is not None
    for g in gens.dense():
        assert is_in_sp(g, skew)


def test_invariant_forms_run_exact_when_every_placed_factor_is():
    """chi3 (+) q8 has a float generator, but its one invariant form lives
    on the q8 block, where X is q8's exact skew pairing: the form is exact,
    skew and degenerate (it vanishes on the chi3 row)."""
    gens = realize(WDParameter.of([seg("chi3"), seg("q8")]), CAT)
    assert not gens.exact
    (form,) = invariant_forms(gens)
    assert form.gram.exact
    assert form.symmetry is Symmetry.SKEW and not form.nondegenerate
    assert not form.gram.re[0].any() and not form.gram.im[0].any()
    assert form.gram.T.equals(-form.gram)
    for g in gens.dense():
        assert is_in_sp(g, form)


def test_the_sl2_weight_solve_matches_the_dense_reference(monkeypatch):
    """For every k, k' <= 12 the S(k) x S(k') pairings and intertwiners are,
    up to scale, the null space of the dense exp E and exp F rows: one
    matrix when k = k', none otherwise.  The weight solve finds them with no
    row reduction, on at most min(k, k') unknowns, and they vanish off
    those."""
    def no_reduction(*args):
        raise AssertionError("row reduction in an S(k) solve")

    sizes = [(k, k2) for k in range(1, 13) for k2 in range(1, 13)]
    kinds = [(matrix_lab.sl2_pairings, _pairing_system, True),
             (matrix_lab.sl2_intertwiners, _intertwining_system, False)]
    solved = {}
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "nullspace_exact", no_reduction)
        patched.setattr(linalg, "_Rref", no_reduction)
        for solve, _, pairing in kinds:
            for k, k2 in sizes:
                cells, _ = matrix_lab._weight_solve(k, k2, pairing)
                solved[pairing, k, k2] = cells, solve(k, k2)
    for _, system, pairing in kinds:
        for k, k2 in sizes:
            cells, basis = solved[pairing, k, k2]
            assert len(cells) <= min(k, k2)
            rows = [row for exp in (sl2_exp_e, sl2_exp_f)
                    for row in _kron_rows(system(exp(k), exp(k2)))]
            # the reduced form is unique: inserting the sparsest rows first
            # changes only its cost
            want = nullspace_exact(sorted(rows, key=len), k * k2)
            assert len(basis) == len(want) == (k == k2), (pairing, k, k2)
            for y, w in zip(basis, want):
                assert y.shape == (k, k2)
                got = [v for row in y.tolist() for v in row]
                ref = w.tolist()[0]
                p = next(p for p, v in enumerate(ref) if v != 0)
                assert got[p] != 0
                assert all(a * ref[p] == b * got[p]
                           for a, b in zip(got, ref)), (pairing, k, k2)
                assert {divmod(p, k2) for p, v in enumerate(got)
                        if v != 0} <= set(cells.items())


def test_the_sl2_tile_check_matches_the_dense_products():
    """For every k, k' <= 12, the one E/F check (``_sl2_fixed``) reads the
    entries of E and F and of Y, with the sign of pairings or of
    intertwiners: it agrees with the four dense products U^T Y U' = Y, or
    U Y = Y U', U = exp E, exp F, on each solved pairing or intertwiner and
    on each one-entry perturbation of it, real or imaginary, and on each
    one-entry Y where none exists."""
    def dense(k, k2, y, pairing):
        return all((u(k).T @ y @ u(k2)).equals(y) if pairing
                   else (u(k) @ y).equals(y @ u(k2))
                   for u in (sl2_exp_e, sl2_exp_f))

    def check(k, k2, y, pairing):
        return all(matrix_lab._sl2_fixed(k, k2, [
            (divmod(p, k2), v) for p, v in enumerate(part.flat) if v],
            pairing) for part in (y.re, y.im))

    fixed = Counter()
    for solve, pairing in ((matrix_lab.sl2_pairings, True),
                           (matrix_lab.sl2_intertwiners, False)):
        for k in range(1, 13):
            for k2 in range(1, 13):
                basis = solve(k, k2)
                base = basis[0] if basis else Matrix.zeros(k, k2)
                for p in range(k * k2):
                    bump = np.zeros((k, k2), dtype=object)
                    bump.flat[p] = 1
                    for one in (Matrix.gaussian(bump), Matrix.gaussian(
                            0 * bump, bump))[:1 + len(basis)]:
                        y = base + one
                        got = check(k, k2, y, pairing)
                        assert got is dense(k, k2, y, pairing), (k, k2, p)
                        fixed[pairing, "perturbed"] += got
                for y in basis:
                    assert check(k, k2, y, pairing)
                    assert dense(k, k2, y, pairing)
                    fixed[pairing, "solved"] += 1
    # on S(1) x S(1) every Y is fixed: exp E = exp F = 1
    assert fixed == {(pairing, kind): n for pairing in (True, False)
                     for kind, n in (("solved", 12), ("perturbed", 2))}


# -- the skew form, class by class ------------------------------------------


def _gens(*segments):
    return realize(WDParameter.of(segments), CAT)


def _rows(gens, segments, name):
    """The rows of the blocks labelled ``name`` in the realization ``gens``
    of ``segments``: its blocks follow the parameter's segments."""
    return [i for s, (lo, r, k) in zip(WDParameter.of(segments).segments,
                                       gens.blocks)
            if s.cuspidal.name == name for i in range(lo, lo + r * k)]


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
    segments = list(map(seg, segments))
    gens = _gens(*segments)
    assert find_nondegenerate_skew(gens) is None
    rows, every = _rows(gens, segments, lonely), list(range(gens.n))
    assert all(_vanishes(f, rows, every) for f in invariant_forms(gens))


@pytest.mark.parametrize("segments, larger, smaller", [
    (["chi3", "chi3", "chi3bar"], "chi3", "chi3bar"),
    (["q8", "chi3bar", "chi3", "chi3bar"], "chi3bar", "chi3"),
])
def test_unequal_multiplicity_certificate(segments, larger, smaller):
    # every invariant form maps the rows of the larger class into the
    # columns of the smaller, so every form in the span has rank below n
    segments = list(map(seg, segments))
    gens = _gens(*segments)
    assert find_nondegenerate_skew(gens) is None
    rows, paired = (_rows(gens, segments, name) for name in (larger, smaller))
    outside = sorted(set(range(gens.n)) - set(paired))
    assert len(rows) > len(paired)
    assert all(_vanishes(f, rows, outside) for f in invariant_forms(gens))


def _kron_quotient(b: Matrix, p: Matrix) -> Matrix:
    """The M with b = M (x) p, read off at p's first nonzero entry;
    asserts that b is that product."""
    d = p.rows
    a, c = next((a, c) for a in range(d) for c in range(d)
                if p.re[a, c] or p.im[a, c])
    m = Matrix.from_rows([row[c::d] for row in b.tolist()[a::d]],
                         b.exact).scale(1 / p.tolist()[a][c])
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
    j.verify()  # skew, nondegenerate and invariant on its tiles
    assert j.gram.exact is exact
    assert all(is_in_sp(g, j) for g in gens.dense())


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
    q8 = _gens(seg("q8")).dense()
    s, s_inv = Matrix.from_rows([[1, 1], [0, 1]]), Matrix.from_rows(
        [[1, -1], [0, 1]])
    rho = tuple(tuple(map(_factor, mats))
                for mats in (q8, [s @ g @ s_inv for g in q8]))
    assert rho[0] != rho[1]
    tf = TensorFactors(4, ((0, 2, 1), (2, 2, 1)), rho)
    with pytest.raises(PeriodLabError, match="pairs with 2 classes"):
        find_nondegenerate_skew(tf)


# -- realizations -----------------------------------------------------------


def test_realize_structure():
    gens = realize(WDParameter.of([seg("q8", 2)]), CAT)
    assert gens.n == 4
    assert gens.exact
    for g in gens.dense():
        assert g.is_square and g.rows == 4


def test_realize_trivial_block_has_no_generators():
    gens = realize(WDParameter.of([seg("trivial")]), CAT)
    assert gens.rho == ((),)
    assert gens.dense() == []


def test_realize_shares_group_action_across_blocks():
    gens = realize(WDParameter.of([seg("q8"), seg("q8", 3)]), CAT)
    assert gens.n == 8
    # one q8 generator acts simultaneously in both blocks
    g = gens.dense()[0]
    assert not g.tolist()[0][0] or g.tolist()[0][0] != QQi(1)


def _dense_reference(p):
    """The generators of ``realize(p)`` assembled densely, in generator
    order: per group generator the blockdiag of kron(A, I_k) on the blocks
    of its group and the exact identity elsewhere (skipped when it is the
    identity), then the blockdiag of kron(I_r, exp) for exp(E) and exp(F)
    when some k > 1; none when neither is there.  Each is exact exactly
    when every block of it is."""
    segs = p.segments
    models = [CAT.model_for(s.cuspidal) for s in segs]
    groups = []
    for m in models:
        if not any(g is m.group for g in groups):
            groups.append(m.group)
    out = []
    for group in groups:
        for idx in group.generator_idxs:
            g = blockdiag([
                m.matrices[idx].kron(Matrix.identity(s.k, m.exact))
                if m.group is group else Matrix.identity(s.dim)
                for s, m in zip(segs, models)])
            if not g.is_identity():
                out.append(g)
    if any(s.k > 1 for s in segs):
        for exp in (sl2_exp_e, sl2_exp_f):
            out.append(blockdiag([Matrix.identity(s.cuspidal.dim).kron(
                exp(s.k)) for s in segs]))
    return out


@pytest.mark.parametrize("segments", [
    (("q8", 2), ("s3", 1)),  # exact
    (("chi3", 1), ("chi3bar", 2)),  # float
    (("chi3", 2), ("q8", 1)),  # an exact label next to a float one
    (("q8", 1), ("q8", 3)),  # one group shared across blocks
    (("q8", 1), ("q8b", 1), ("d4", 2), ("trivial", 3)),  # mixed groups
    (("q8", 1), ("s3", 1), ("trivial", 1)),  # only k = 1
    (("trivial", 1), ("trivial", 1)),  # no generator
])
def test_realize_matches_the_dense_kronecker_assembly(segments):
    p = WDParameter.of([seg(name, k) for name, k in segments])
    gens = realize(p, CAT)
    want = _dense_reference(p)
    assert len(gens.dense()) == len(want)
    assert gens.n == p.dim
    assert gens.exact == all(CAT.model_for(s.cuspidal).exact
                             for s in p.segments)
    for got, ref in zip(gens.dense(), want):
        assert got.exact == ref.exact
        assert got.tolist() == ref.tolist()


_EXACT_LABELS = sorted(n for n in CAT.entries
                       if CAT.model_for(CAT.label(n)).exact)
_FLOAT_LABELS = sorted(set(CAT.entries) - set(_EXACT_LABELS))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_realize_is_the_same_with_a_cold_or_warm_model_set_cache(exact,
                                                                 data):
    """Multisets of built-in segments, realized one after another, so that
    later ones may reuse the model sets of earlier ones, give the blocks,
    classes and dense generators that each gives in a cleared oracle.  On
    the float path each multiset holds one or two float segments, shuffled
    in among the others."""
    def segments(labels, least, most):
        return st.lists(st.tuples(st.sampled_from(labels), st.integers(1, 4)),
                        min_size=least, max_size=most)

    multiset = (segments(_EXACT_LABELS, 1, 5) if exact else st.tuples(
        segments(sorted(CAT.entries), 0, 3), segments(_FLOAT_LABELS, 1, 2))
        .map(lambda t: t[0] + t[1]).flatmap(st.permutations))
    params = [WDParameter.of([seg(name, k) for name, k in segs])
              for segs in data.draw(st.lists(multiset, min_size=1,
                                             max_size=4))]
    warm = [_realized(realize(p, CAT)) for p in params]
    for p, gens in zip(params, warm):
        matrix_lab.clear()
        cold = realize(p, CAT)
        assert cold.exact == exact
        assert _realized(cold) == gens


def _realized(tf):
    """A realization's blocks, classes and dense generators, with no factor
    or class id, so that it compares across ``matrix_lab.clear()``."""
    return (tf.n, tf.blocks, list(tf.classes.values()),
            [(g.exact, g.key) for g in tf.dense()])


def test_tensor_factors_reject_singular_factors():
    """A class with a singular factor is refused before it enters the class
    table, on both paths, so building it again is refused again."""
    ident = _factor(Matrix.identity(2))
    TensorFactors(2, ((0, 2, 1),), ((ident,),))
    classes = matrix_lab.sizes()["classes"]
    singular = Matrix.from_rows([[1, 1], [1, 1]])
    for _ in range(2):
        for m in (singular, Matrix.from_array(singular.as_complex())):
            with pytest.raises(ValueError, match="generators must be "
                                                 "invertible"):
                tensor_factors([m])
    bad = _factor(Matrix.from_rows([[1, 1], [0, 0]]))
    # two classes, the second singular: each class is checked, and the
    # first is in the table already
    with pytest.raises(ValueError, match="generators must be invertible"):
        TensorFactors(4, ((0, 2, 1), (2, 2, 1)), ((ident,), (bad,)))
    assert matrix_lab.sizes()["classes"] == classes


def test_tensor_factors_have_their_classes_as_soon_as_they_are_built():
    ident = _factor(Matrix.identity(2))
    model = CAT.model_for(CAT.label("q8"))
    q8 = matrix_lab._model_set((model,))[model]
    tf = TensorFactors(6, ((0, 2, 1), (2, 2, 1), (4, 2, 1)),
                       (q8, (ident,) * len(q8), q8))
    assert {"class_ids", "classes"} <= vars(tf).keys()
    c, d = tf.class_ids[0], tf.class_ids[1]
    assert tf.class_ids == (c, d, c) and c != d
    assert tf.classes == {c: [0, 2], d: [1]}


def test_a_block_class_is_read_off_its_own_k():
    """The S(k) side of a class is its k: the k = 1 block next to a longer
    one is in the class of the k = 1 blocks of a realization with no
    longer block."""
    short = realize(WDParameter.of([seg("trivial"), seg("trivial")]), CAT)
    mixed = realize(WDParameter.of([seg("trivial"), seg("trivial", 2)]), CAT)
    (c,) = short.classes
    assert {k: d == c for (*_, k), d in zip(mixed.blocks, mixed.class_ids)
            } == {1: True, 2: False}


def test_realize_rejects_twists_and_empty():
    with pytest.raises(TwistedSegmentError):
        realize(WDParameter.of([seg("q8", 1, Fraction(1, 2))]), CAT)
    with pytest.raises(ValueError):
        realize(WDParameter.of([]), CAT)


# -- factor ids -------------------------------------------------------------


def _value(m):
    """A factor's shape, path and entries, as a hashable key."""
    return m.shape, m.exact, tuple(map(tuple, m.tolist()))


def _matrix(f):
    """The matrix of factor id ``f``, as its reading holds it."""
    return matrix_lab._reading(f).gram


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
def test_the_factor_table_keeps_each_matrix_with_its_shape_and_path(
        rows, cols, exact, data):
    """Exact and float matrices of drawn shapes: the table gives back each
    matrix with its own shape, path and entries, equal (shape, value)
    pairs get equal ids, and reading the matrices again does not grow the
    table.  A non-square matrix and its transpose get different ids, and
    so do I_2 and the row (1, 0, 0, 1)."""
    ints = data.draw(st.lists(st.integers(-2, 2), min_size=2 * rows * cols,
                              max_size=2 * rows * cols))
    re, im = np.array(ints, dtype=object).reshape(2, rows, cols)
    m = Matrix.gaussian(re, im, data.draw(st.integers(1, 3)))
    if not exact:
        m = Matrix.from_array(m.as_complex())
    mats = [m, m.T, Matrix.identity(2, exact),
            Matrix.from_rows([[1, 0, 0, 1]], exact)]
    ids = [_factor(x) for x in mats]
    size = matrix_lab.sizes()["factors"]
    again = [_factor(Matrix.from_rows(x.tolist(), exact)) for x in mats]
    assert again == ids and matrix_lab.sizes()["factors"] == size
    for f, x in zip(ids, mats):
        assert _value(_matrix(f)) == _value(x)
    assert (ids[0] == ids[1]) == (m.T.tolist() == m.tolist())
    assert ids[2] != ids[3]
    if exact:  # the same entries on the float path are another factor
        f = _factor(Matrix.from_array(m.as_complex()))
        assert f != ids[0] and not _matrix(f).exact


def test_the_factor_tables_grow_together(capsys):
    """Each factor has one key, one matrix and one identity entry."""
    assert main(["sweep", "--max-dim", "16", "--json"]) == 0
    capsys.readouterr()
    sizes = matrix_lab.sizes()
    assert sizes["factor_ids"] == sizes["factors"] == sizes["tabled"] > 0


_BUILTIN_SEGMENTS = st.tuples(st.sampled_from(sorted(CAT.entries)),
                              st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_BUILTIN_SEGMENTS, min_size=1, max_size=5),
                min_size=1, max_size=3))
def test_factor_ids_follow_the_factor_values(drawn):
    """Multisets of built-in segments, exact and float labels alike: the
    classes are the blocks grouped by the rho factor values behind the ids
    and by (r, k), the blocks of one class have the same rho factor ids,
    a realization is exact when its rho factors are, and realizing and
    searching again gives the same ids and adds nothing to any table or
    cache."""
    params = [WDParameter.of([seg(name, k) for name, k in segments])
              for segments in drawn]

    def passes():
        out = []
        for p in params:
            gens = realize(p, CAT)
            find_nondegenerate_skew(gens)
            out.append(gens)
        return out

    first = passes()
    sizes = matrix_lab.sizes()
    again = passes()
    assert matrix_lab.sizes() == sizes
    for tf, tf2 in zip(first, again):
        assert (tf.rho, tf.class_ids) == (tf2.rho, tf2.class_ids)
        reference: dict[tuple, list[int]] = {}
        for i, (a, (_, r, k)) in enumerate(zip(tf.rho, tf.blocks)):
            values = tuple(_value(_matrix(f)) for f in a)
            reference.setdefault((values, r, k), []).append(i)
        assert list(tf.classes.values()) == list(reference.values())
        assert all(len({tf.rho[i] for i in blocks}) == 1
                   for blocks in tf.classes.values())
        assert tf.exact == all(_matrix(f).exact for a in tf.rho for f in a)


def test_every_table_and_cache_of_the_oracle_is_registered():
    """Each module-level table and ``functools`` cache of ``matrix_lab``
    is in ``sizes()``, by its name without the underscore, and so emptied
    by ``clear()``: one added later cannot escape it."""
    cache = type(lru_cache()(abs))
    held = {name.lstrip("_").lower()
            for name, value in vars(matrix_lab).items()
            if not name.startswith("__") and name != "_STATE"
            and (isinstance(value, cache) or type(value) in (dict, list))}
    assert held == set(matrix_lab.sizes())
    assert len(held) == 18
