"""The matrix oracle and the identities of ``verify-matrices``, on the
matrices of :mod:`periodlab.linalg`.

A realization (:func:`realize`) is one :class:`TensorFactors`: blocks
rho_i (x) S(k_i), on which a generator acts as A_i (x) I or I (x) U_i,
with one small int id per distinct factor (:func:`_factor`) and per block
class (rho factor ids, r, k).  A block pair's forms are X (x) Y: X solved
on the rho factors by vec(A X B) = (A (x) B^T) vec(X) on the row-major
vec, ``linalg`` picking the elimination by the path; Y read off the sl2
weights and walked along the E chain in integers (:func:`_weight_solve`).
The skew form is built class by class (:func:`find_nondegenerate_skew`)
and checked on its tiles (:meth:`FactoredForm.verify`), with the weight
solve's one E/F check (:func:`_sl2_fixed`).  Per process the oracle caches
a factor's :class:`BilinearForm` (:func:`_reading`), the pairing of two
classes, dim Hom(D, C), and each tile's invariance and skewness.  The J
forms have one entry +-1 in every row, so the conjugator identities are
decided on these signed pairings, with no matrix placed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, gcd
from typing import TYPE_CHECKING, Callable, Sequence, Union

from .errors import (
    ConjugatorNotFoundError,
    FormVerificationError,
    OddPartError,
    OddSizeError,
    PeriodLabError,
    ShapeMismatchError,
    TwistedSegmentError,
)
from .linalg import Matrix, nullspace, row_basis, tensor_equal
from .param_core import WDParameter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .group_models import Catalog


# ---------------------------------------------------------------------------
# bilinear forms


class Symmetry(Enum):
    SYMMETRIC = "symmetric"
    SKEW = "skew"
    NEITHER = "neither"


@dataclass(frozen=True)
class BilinearForm:
    """A square gram matrix with its symmetry classification."""

    gram: Matrix
    symmetry: Symmetry
    nondegenerate: bool


def classify_form(gram: Matrix) -> BilinearForm:
    """Symmetry and nondegeneracy of ``gram``: the :func:`_reading` of its
    factor id, computed once per matrix, on either path; a matrix the
    factor table holds gets that form itself."""
    if not gram.is_square:
        raise ShapeMismatchError("bilinear forms need square gram matrices")
    form = _reading(_factor(gram))
    return form if form.gram is gram else BilinearForm(
        gram, form.symmetry, form.nondegenerate)


# ---------------------------------------------------------------------------
# the J matrices and the pairing permutation


def symplectic_J(m: int) -> BilinearForm:
    """The standard skew form [[0, J], [-J, 0]] in even size m."""
    if m < 2 or m % 2:
        raise OddSizeError(f"symplectic form needs even size >= 2, got {m}")
    g = Matrix.from_entries((m, m), [((i, m - 1 - i), 1 if 2 * i < m else -1)
                                     for i in range(m)])
    return BilinearForm(g, Symmetry.SKEW, True)


def blockdiag(blocks: Sequence[Matrix]) -> Matrix:
    """Direct sum of square blocks; exact iff every block is."""
    ends = list(accumulate(b.rows for b in blocks))
    at = [slice(hi - b.rows, hi) for hi, b in zip(ends, blocks)]
    return Matrix.placed(ends[-1] if ends else 0, list(zip(at, at, blocks)))


def partition_J(partition: Sequence[int]) -> BilinearForm:
    """Direct sum of standard skew forms, one block per even part."""
    for part in partition:
        if part % 2 or part < 2:
            raise OddPartError(f"all parts must be even and >= 2, got {part}")
    g = blockdiag([symplectic_J(p).gram for p in partition])
    return BilinearForm(g, Symmetry.SKEW, True)


@dataclass(frozen=True)
class PermutationMap:
    """A bijection of {1..n}; ``images[j-1]`` is the image of j."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def matrix(self) -> Matrix:
        """Exact permutation matrix under the convention P[sigma(j), j] = 1."""
        return Matrix.from_entries((self.n, self.n), (
            ((img - 1, j), 1) for j, img in enumerate(self.images)))


def w_plus(n: int) -> PermutationMap:
    """The pairing permutation on {1..2n}: 2i-1 -> i and 2i -> 2n+1-i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    images = [0] * (2 * n)
    for i in range(1, n + 1):
        images[2 * i - 2] = i
        images[2 * i - 1] = 2 * n + 1 - i
    return PermutationMap(tuple(images))


def _signed_pairs(partition: Sequence[int]) -> list[tuple[int, int]]:
    """Per row a of the partition form, the column b and the sign of its one
    nonzero entry: a block of size p at offset o pairs o+i with o+p-1-i, with
    +1 in the first p/2 rows of the block and -1 in the rest."""
    pairs, o = [], 0
    for p in partition:
        if p % 2 or p < 2:
            raise OddPartError(f"all parts must be even and >= 2, got {p}")
        pairs += [(o + p - 1 - i, 1 if 2 * i < p else -1) for i in range(p)]
        o += p
    return pairs


def conjugator_for_partition(partition: Sequence[int]) -> PermutationMap:
    """A permutation P with P^-1 * J'_{2n} * P equal to the partition form.

    The pairing algorithm walks the positive entries (u, v), u < v, of the
    block form in order of u and sends the t-th pair to (t, 2n+1-t), the t-th
    symplectic pair of the single-block form.  The pairs are read off the
    partition, and the identity, under the fixed convention
    P[sigma(j), j] = 1 the identity P^T J' P = J'', is checked exactly as in
    :func:`check_conjugator` before returning.
    """
    pairs = _signed_pairs(partition)
    m = len(pairs)
    images = [0] * m
    t = 0
    for u, (v, sign) in enumerate(pairs):
        if sign == 1:
            t += 1
            images[u], images[v] = t, m + 1 - t
    return _check_pairs(PermutationMap(tuple(images)), pairs)


def check_conjugator(perm: PermutationMap,
                     partition: Sequence[int]) -> PermutationMap:
    """``perm`` when its matrix P satisfies P^T J' P = J'' exactly, J' the
    standard form of its size and J'' the form of ``partition``; else
    ConjugatorNotFoundError.

    With P[sigma(j), j] = 1, (P^T J' P)[a, b] = J'[sigma(a), sigma(b)].  J'
    and J'' have one entry +-1 in every row, so the identity holds iff, for
    every a, sigma sends the J''-partner of a to the J'-partner of sigma(a),
    with the same sign; no matrix is placed.
    """
    return _check_pairs(perm, _signed_pairs(partition))


def _check_pairs(perm: PermutationMap,
                 target: list[tuple[int, int]]) -> PermutationMap:
    """:func:`check_conjugator` against the :func:`_signed_pairs` ``target``
    of J''.  J' of size m pairs row r with m-1-r, with sign +1 iff 2r < m."""
    m = perm.n
    s = [img - 1 for img in perm.images]
    if len(target) == m and all(
            s[b] == m - 1 - s[a] and (sign == 1) == (2 * s[a] < m)
            for a, (b, sign) in enumerate(target)):
        return perm
    raise ConjugatorNotFoundError(
        f"the permutation {perm.images} does not conjugate J'_{m} "
        f"onto the target form")


# ---------------------------------------------------------------------------
# sl2 symmetric powers


@dataclass(frozen=True)
class Sl2Action:
    """The standard sl2 triple acting on the degree-(k-1) binary-form basis."""

    k: int
    e: Matrix
    f: Matrix
    h: Matrix


@lru_cache(maxsize=512)
def _sl2_triple(k: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The entries (row, col, value) of E, F and H on the basis
    x^{k-1}, x^{k-2}y, ..., y^{k-1}, zeros left out of E and F.

    With v_j = x^{k-1-j} y^j: E v_j = j v_{j-1}, F v_j = (k-1-j) v_{j+1},
    H v_j = (k-1-2j) v_j.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return (tuple((j - 1, j, j) for j in range(1, k)),
            tuple((j + 1, j, k - 1 - j) for j in range(k - 1)),
            tuple((j, j, k - 1 - 2 * j) for j in range(k)))


def sl2_sym_power_action(k: int) -> Sl2Action:
    """E, F, H of :func:`_sl2_triple` as matrices; [E, F] = H holds
    exactly."""
    return Sl2Action(k, *(Matrix.from_entries((k, k), (
        ((r, c), v) for r, c, v in entries)) for entries in _sl2_triple(k)))


def sl2_exp_e(k: int) -> Matrix:
    """exp(E) on the k-dimensional symmetric power; integer entries."""
    return Matrix.from_entries((k, k), (
        ((j - t, j), comb(j, t)) for j in range(k) for t in range(j + 1)))


def sl2_exp_f(k: int) -> Matrix:
    """exp(F) on the k-dimensional symmetric power; integer entries."""
    return Matrix.from_entries((k, k), (((j + t, j), comb(k - 1 - j, t))
                                        for j in range(k)
                                        for t in range(k - j)))


def _weight_solve(k: int, k2: int,
                  pairing: bool) -> tuple[dict[int, int], tuple[Matrix, ...]]:
    """The pairings {Y (k x k') : U^T Y U' = Y} or the intertwiners
    {Y : U Y = Y U'} of S(k) and S(k'), for (U, U') = (exp E, exp E') and
    (exp F, exp F'), read off :func:`_sl2_triple` by the weights of sl2
    (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
    section 7), with no row reduction.

    Y satisfies exp E and exp F exactly when it satisfies E and F
    (:func:`_sl2_fixed`), and so H = [E, F], which is diagonal: its rows
    pin y_ij unless h_i + h'_j = 0 (pairings) or h_i = h'_j
    (intertwiners).  That leaves at most min(k, k') unknowns, the cells
    (i, j), on consecutive rows i.  With E v_c = up[c] v_(c-1), the E rows
    chain them: for a cell (i, j), up[i+1] y_i + up'[j] y_(i+1) = 0 at
    (i+1, j) for pairings, up[i+1] y_(i+1) - up'[j+1] y_i = 0 at (i, j+1)
    for intertwiners.  The one candidate, walked along the chain from 1 at
    the first cell in integers, is certified by :func:`_sl2_fixed`.
    Returns the cells as a dict i -> j and the basis: the candidate scaled
    so that the last cell is 1, as :func:`nullspace_exact` scales one
    solution, or none when there is no cell or the check fails.  A missing
    or zero link is a PeriodLabError.
    """
    (e, _, h), (e2, _, h2) = _sl2_triple(k), _sl2_triple(k2)
    sign = -1 if pairing else 1
    column = {w: j for j, _, w in h2}
    cell = {i: column[sign * w] for i, _, w in h if sign * w in column}
    up, up2 = ({c: v for _, c, v in x} for x in (e, e2))
    vec = [1]
    for i, j in list(cell.items())[:-1]:
        # a y_i + b y_(i+1) = 0 on the link of rows i and i + 1
        a, b = ((up.get(i + 1, 0), up2.get(j, 0)) if pairing
                else (-up2.get(j + 1, 0), up.get(i + 1, 0)))
        if not a or not b:
            raise PeriodLabError(
                f"internal: the E chain of S(k) x S(k') has no link at row "
                f"{i} (k={k}, k'={k2})")
        # scale the known entries by the divisor's cofactor so y_(i+1) is
        # an integer, keeping y_first > 0
        num = -a * vec[-1]
        g = gcd(num, b) if b > 0 else -gcd(num, b)
        if b != g:
            vec = [x * (b // g) for x in vec]
        vec.append(num // g)
    entries = list(zip(cell.items(), vec))
    if not cell or not _sl2_fixed(k, k2, entries, pairing):
        return cell, ()
    y = Matrix.from_entries((k, k2), entries)
    return cell, (y.scale(Fraction(1, vec[-1])),)


def invariant_form_sl2(k: int) -> BilinearForm:
    """The invariant form of the k-dimensional sl2 module, exactly: the
    pairing of S(k) with itself that :func:`_weight_solve` walks, read from
    :func:`sl2_pairings` with no row reduction.  Its cells are the
    antidiagonal c_i = b_{i, k-1-i}; no pairing is a PeriodLabError here.
    The form, normalized to c_0 = 1, is classified by
    :func:`classify_form`: its symmetry against its transpose (symmetric
    for k odd, skew for k even) and its nondegeneracy by one exact rank.
    """
    basis = sl2_pairings(k, k)
    if not basis:
        raise PeriodLabError(
            f"internal: no certified one-dimensional sl2 invariant-form "
            f"space (k={k})")
    form = classify_form(basis[0].normalized())
    if not form.nondegenerate or form.symmetry is Symmetry.NEITHER:
        raise PeriodLabError("internal: sl2 invariant form is not as expected")
    return form


# ---------------------------------------------------------------------------
# form algebra and membership


@dataclass(frozen=True)
class SpCheck:
    """What :func:`is_in_sp` decided, and on which residue.

    Truthy exactly when g^T J g = J holds.  ``residue`` is the largest entry
    of |g^T J g - J|: exactly 0.0 when an exact check holds, the float value
    the tolerance was applied to otherwise.
    """

    holds: bool
    residue: float

    def __bool__(self) -> bool:
        return self.holds


def is_in_sp(g: Matrix,
             j: Union[BilinearForm, "FactoredForm", Matrix]) -> SpCheck:
    """Whether g preserves the form: g^T J g = J, on the dense matrices.

    When g and J are exact, g^T J g is formed by integer matmuls and
    compared with J by :meth:`Matrix.equals`, on reduced integers.  Otherwise
    it is decided by :meth:`Matrix.equals`, within
    ``FLOAT_TOL * max(1, max|g^T J g|, max|J|)``.  The oracle checks its
    form on the factors instead (:meth:`FactoredForm.verify`);
    this is the reference.
    """
    gram = j if isinstance(j, Matrix) else j.gram
    if not g.is_square or g.shape != gram.shape:
        raise ShapeMismatchError(
            f"generator {g.shape} does not match form {gram.shape}")
    moved = g.T @ gram @ g
    holds = moved.equals(gram)
    return SpCheck(holds, 0.0 if holds and moved.exact
                   else moved.max_abs_diff(gram))


# ---------------------------------------------------------------------------
# invariant forms and intertwiners, one tensor factor at a time


def _factor_solve(ls: tuple, rs: tuple, a: int, b: int,
                  system: Callable) -> tuple[Matrix, ...]:
    """Basis of the a x b matrices X with ``system(L, R)`` vec(X) = 0, on
    the row-major vec, for every (L, R) in ``zip(ls, rs)``, by
    :func:`~periodlab.linalg.nullspace`.  A repeated pair adds no
    equation, and every X satisfies the pair of identities, so neither is
    built."""
    pairs = dict.fromkeys(zip(ls, rs))
    pairs.pop((_identity(a), _identity(b)), None)
    eqs = [system(_FACTORS[l], _FACTORS[r]) for l, r in pairs]
    return tuple(v.reshape(a, b) for v in nullspace(eqs, a * b))


@lru_cache(maxsize=512)
def invariant_pairings(ls: tuple, rs: tuple, a: int,
                       b: int) -> tuple[Matrix, ...]:
    """Basis of {X (a x b) : L^T X R = X for every (L, R) in
    ``zip(ls, rs)``}: the rho side of a block pair, or a bare list of
    generators.

    Each L (a x a) and R (b x b) is given as a factor id of
    :class:`TensorFactors`, so solves are cached on the ids, and a miss
    reads the matrices behind them.  The equations are
    (L^T (x) R^T - I) vec(X) = 0, as vec(A X B) = (A (x) B^T) vec(X) on
    the row-major vec (Horn and Johnson, *Topics in Matrix Analysis*,
    section 4.3), solved by :func:`_factor_solve`: exactly when every
    factor is exact, else by the float rank rule; each basis element an
    a x b :class:`Matrix`.  The S(k) side is solved by its weights instead
    (:func:`sl2_pairings`).
    """
    i = _FACTORS[_identity(a * b)]
    return _factor_solve(ls, rs, a, b, lambda l, r: l.T.kron(r.T) - i)


@lru_cache(maxsize=512)
def intertwiners(ls: tuple, rs: tuple, a: int,
                 b: int) -> tuple[Matrix, ...]:
    """Basis of {X (a x b) : L X = X R for every (L, R) in ``zip(ls, rs)``},
    with arguments and result as for :func:`invariant_pairings`, on the
    equations (L (x) I_b - I_a (x) R^T) vec(X) = 0.  The S(k) side is
    solved by its weights instead (:func:`sl2_intertwiners`)."""
    ia, ib = _FACTORS[_identity(a)], _FACTORS[_identity(b)]
    return _factor_solve(ls, rs, a, b,
                         lambda l, r: l.kron(ib) - ia.kron(r.T))


@lru_cache(maxsize=512)
def sl2_pairings(k: int, k2: int) -> tuple[Matrix, ...]:
    """Basis of {Y (k x k') : U^T Y U' = Y} for (U, U') = (exp E, exp E')
    and (exp F, exp F') of S(k) and S(k'): the S(k) side of a block pair,
    solved by its weights (:func:`_weight_solve`) and cached on (k, k')."""
    return _weight_solve(k, k2, True)[1]


@lru_cache(maxsize=512)
def sl2_intertwiners(k: int, k2: int) -> tuple[Matrix, ...]:
    """Basis of {Y (k x k') : U Y = Y U'}, as for :func:`sl2_pairings`."""
    return _weight_solve(k, k2, False)[1]


@dataclass(frozen=True)
class TensorFactors:
    """The generators of a realization, or of a bare list, given block by
    block as g = (+)_i A_i (x) I_(k_i) (a rho generator) or
    g = (+)_i I_(r_i) (x) U_i (an S(k) generator).

    ``blocks`` holds (lo, r, k) per block and ``rho[i]`` the A_i of every
    rho generator, in generator order, each as its :func:`_factor` id.
    The S(k) generators, exp(E) and exp(F) of every block when some k > 1
    and none otherwise, are exact next to any label and solved from k
    alone.  Built with them, ``class_ids`` holds each block's class id, of
    (rho ids, r, k) in the class table, which also records whether its rho
    factors are exact, and ``classes`` the blocks of each id.  A class
    enters the table once its factors are shown invertible (as A (x) I is
    exactly when A is), else ``ValueError``; :meth:`dense` places them.
    """

    n: int
    blocks: tuple[tuple[int, int, int], ...]
    rho: tuple[tuple[int, ...], ...]
    class_ids: tuple[int, ...] = field(init=False, compare=False)
    classes: dict[int, list[int]] = field(init=False, compare=False)

    def __post_init__(self):
        ids, classes = [], {}
        for i, (a, (_, r, k)) in enumerate(zip(self.rho, self.blocks)):
            key = a, r, k
            c = _CLASS_IDS.get(key)
            if c is None:
                if not all(_reading(f).nondegenerate for f in a):
                    raise ValueError("generators must be invertible")
                c = _CLASS_IDS[key] = len(_CLASSES)
                _CLASSES.append((*key, all(_SHAPES[f][1] for f in a)))
            ids.append(c)
            classes.setdefault(c, []).append(i)
        object.__setattr__(self, "class_ids", tuple(ids))
        object.__setattr__(self, "classes", classes)

    @property
    def exact(self) -> bool:
        """Whether every generator is exact: every class's rho factors."""
        return all(_CLASSES[c][3] for c in self.classes)

    def dense(self) -> list[Matrix]:
        """The generators as n x n matrices, in generator order.  On a block
        (lo, r, k), A is placed on the diagonal of every k x k tile and U on
        every diagonal tile, so nothing is multiplied."""
        ks = [k for *_, k in self.blocks]
        sl2 = [_exp_factors(k) for k in ks] if max(ks) > 1 else [()] * len(ks)
        return [Matrix.placed(self.n, [
            (at, at, _FACTORS[f[g]])
            for (lo, r, k), f in zip(self.blocks, side)
            for c in range(k if is_rho else r)
            for at in [slice(lo + c, lo + r * k, k) if is_rho
                       else slice(lo + c * k, lo + c * k + k)]])
            for side, is_rho in ((self.rho, True), (sl2, False))
            for g in range(len(side[0]))]


# The factor table: the id of every distinct factor, keyed on its shape and
# value, and in order of the ids each matrix and its (shape, exact).  It
# grows only with new factors, and keeps every matrix it holds alive, so the
# ``id`` of one names it for the life of the process (``_TABLED``).
_FACTOR_IDS: dict[tuple, int] = {}
_FACTORS: list[Matrix] = []
_SHAPES: list[tuple[tuple[int, int], bool]] = []
_TABLED: dict[int, int] = {}


def _factor(m: Matrix) -> int:
    """The id of ``m`` as a factor of :class:`TensorFactors` or
    :class:`FactoredForm`, by :attr:`Matrix.key`: a new key gets the next
    id, under which ``_FACTORS`` keeps ``m``, found again by identity."""
    fid = _TABLED.get(id(m))
    if fid is not None:
        return fid
    fid = _FACTOR_IDS.setdefault(m.key, len(_FACTORS))
    if fid == len(_FACTORS):
        _FACTORS.append(m)
        _SHAPES.append((m.shape, m.exact))
        _TABLED[id(m)] = fid
    return fid


# The class table (:attr:`TensorFactors.class_ids`): the id of every
# distinct block class, and the classes' keys in order of their ids.  It
# grows only with new classes.
_CLASS_IDS: dict[tuple, int] = {}
_CLASSES: list[tuple] = []


def _class_pair(c: int, d: int, pairing: bool = True) -> tuple[tuple, tuple]:
    """The invariant pairings (or, not ``pairing``, the intertwiners) X of
    the rho factors and Y of S(k), S(k') of block classes c and d, each a
    basis; Y is solved only when there is an X."""
    (ls, r, k, _), (rs, r2, k2, _) = _CLASSES[c], _CLASSES[d]
    xs = (invariant_pairings if pairing else intertwiners)(ls, rs, r, r2)
    return xs, (sl2_pairings if pairing else sl2_intertwiners)(
        k, k2) if xs else ()


@lru_cache(maxsize=None)
def _reading(factor: int) -> BilinearForm:
    """A factor as a form, once per id: the symmetry by
    :meth:`Matrix.equals` against its transpose, invertibility by
    :meth:`Matrix.is_invertible`, on the factor's own path (a non-square
    factor reads as neither, and degenerate)."""
    m = _FACTORS[factor]
    mt = m.T
    if mt.equals(m):
        sym = Symmetry.SYMMETRIC
    elif mt.equals(-m):
        sym = Symmetry.SKEW
    else:
        sym = Symmetry.NEITHER
    return BilinearForm(m, sym, m.is_invertible())


@lru_cache(maxsize=None)
def _identity(size: int) -> int:
    """The factor of the exact size x size identity, built once."""
    return _factor(Matrix.identity(size))


@lru_cache(maxsize=512)
def _exp_factors(k: int) -> tuple[int, int]:
    """The factors of ``sl2_exp_e(k)`` and ``sl2_exp_f(k)``, built once."""
    return _factor(sl2_exp_e(k)), _factor(sl2_exp_f(k))


def tensor_factors(gens) -> TensorFactors:
    """``gens`` itself when it is a :class:`TensorFactors`; a bare list of
    generators is one block with r = n and k = 1, on which every generator
    is its own A.  So :func:`invariant_forms` and ``commutant_dimension``
    row-reduce a bare ``[sl2_exp_e(k), sl2_exp_f(k)]`` densely (0.2-0.4 s at
    k = 12, 1-2 s at k = 16, 2-vCPU Xeon), where :func:`realize` hands S(k)
    to its weight solve and takes milliseconds."""
    if isinstance(gens, TensorFactors):
        return gens
    mats = list(gens)
    if not mats:
        raise ValueError("at least one generator is needed")
    n = mats[0].rows
    for m in mats:
        if not m.is_square or m.rows != n:
            raise ShapeMismatchError("generators must be square of equal size")
    return TensorFactors(n, ((0, n, 1),), (tuple(map(_factor, mats)),))


def invariant_forms(gens) -> list[BilinearForm]:
    """Basis of the space of forms B with g^T B g = B for all generators.

    Returns symmetric basis elements first, then skew ones, each normalized
    so its first nonzero entry in row-major order is 1.  The solution space
    is closed under transposition, so it always splits into symmetric and
    skew parts; each form is labelled by the part it came from.

    The space is solved per block pair (i, j) of :func:`tensor_factors`
    (the realization's blocks, or one block for a bare list of generators):
    its forms there are X (x) Y placed on the rows of block i and the
    columns of block j, with X in :func:`invariant_pairings` of the A_i,
    A_j and Y in :func:`sl2_pairings` of k_i, k_j (:func:`_class_pair` of
    their classes).  Each part, F + F^T or F - F^T of every such form F, is
    spanned by :func:`~periodlab.linalg.row_basis`: exactly when every X
    placed is exact, as every Y is.
    """
    tf = tensor_factors(gens)
    n, ids = tf.n, tf.class_ids
    at = [slice(lo, lo + r * k) for lo, r, k in tf.blocks]
    grams = [Matrix.placed(n, [(at[i], at[j], x.kron(y))])
             for i, c in enumerate(ids) for j, d in enumerate(ids)
             for xs, ys in [_class_pair(c, d)] for x in xs for y in ys]
    parts = [g + g.T for g in grams], [g - g.T for g in grams]
    return [BilinearForm(gram, symmetry, gram.is_invertible())
            for symmetry, part in zip((Symmetry.SYMMETRIC, Symmetry.SKEW),
                                      parts)
            for gram in row_basis(part, n)]


@lru_cache(maxsize=None)
def _class_pairing(c: int, d: int) -> tuple | None:
    """The invariant pairing X (x) Y of a block of class c and one of d,
    from the solves of :func:`_class_pair`, as the factors (X, Y, X^T, Y^T)
    of a :class:`FactoredForm`, or None when there is none."""
    xs, ys = _class_pair(c, d)
    if len(xs) * len(ys) > 1:  # Schur's lemma fails: a block is reducible
        raise PeriodLabError(f"internal: a block pair has {len(xs) * len(ys)}"
                             f" independent invariant pairings, not 0 or 1")
    if not ys:
        return None
    (x,), (y,) = xs, ys
    return _factor(x), _factor(y), _factor(x.T), _factor(y.T)


@dataclass(frozen=True)
class FactoredForm:
    """A bilinear form on the blocks of ``factors``, given by its tiles:
    (i, j, c, X, Y) is c * X (x) Y on the rows of block i and the columns
    of block j, at most one per block row, and zero elsewhere.  X (r_i x
    r_j) and Y (k_i x k_j) are factor ids, X exact when both blocks'
    classes are, Y exact; :meth:`Matrix.scale` takes c.  The one pass that
    fills ``rows`` (each block row's tile, or None) refuses a tile off the
    blocks or not fitting them.  ``gram`` is placed on demand.
    """

    factors: TensorFactors
    tiles: tuple[tuple, ...]
    rows: list[tuple | None] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        blocks, ids = self.factors.blocks, self.factors.class_ids
        size = len(blocks)
        rows = [None] * size
        for tile in self.tiles:
            i, j, _, x, y = tile
            if not (0 <= i < size and 0 <= j < size):
                raise ShapeMismatchError(
                    f"tile ({i}, {j}) lies off the {size} blocks")
            (_, r, k), (_, r2, k2) = blocks[i], blocks[j]
            exact = _CLASSES[ids[i]][3] and _CLASSES[ids[j]][3]
            if _SHAPES[x] != ((r, r2), exact) or _SHAPES[y] != ((k, k2), True):
                raise ShapeMismatchError(
                    f"tile ({i}, {j}) does not fit its blocks")
            if rows[i]:
                raise ValueError("a form has one tile per block row at most")
            rows[i] = tile
        object.__setattr__(self, "rows", rows)

    @cached_property
    def gram(self) -> Matrix:
        """The dense n x n form."""
        tf = self.factors
        at = [slice(lo, lo + r * k) for lo, r, k in tf.blocks]
        return Matrix.placed(tf.n, [
            (at[i], at[j], _FACTORS[x].kron(_FACTORS[y]).scale(c))
            for i, j, c, x, y in self.tiles])

    def verify(self) -> VerifiedForm:
        """The :class:`VerifiedForm` of this form and its largest
        |g^T J g - J| entry, once one pass over the tiles, on facts cached
        per process, shows it skew,
        nondegenerate and invariant under the generators of ``factors``;
        else :class:`FormVerificationError` for the first that fails.
        Skew: each tile is minus the transpose of the one at the opposite
        block pair (:func:`_opposite_tiles`).  Nondegenerate: a tile in
        every block row with c != 0 and X, Y invertible; being skew, the
        tiles pair the blocks one to one.  Invariant: A_i^T X A_j = X and
        U_i^T Y U_j = Y on each tile, on the classes of i and j
        (:func:`_tile_residue`); a tile's residue is |c| times that
        check's, 0.0 between classes whose rho factors are exact.  No
        dense generator or dense form is built.
        """
        rows, ids, residue = self.rows, self.factors.class_ids, 0.0
        nondegenerate = len(self.tiles) == len(rows)
        for i, j, c, x, y in self.tiles:
            _, back, c2, x2, y2 = rows[j] or (None,) * 5
            if not _opposite_tiles(c, x, y, c2 if back == i else 0, x2, y2):
                raise FormVerificationError("the form must be skew-symmetric")
            nondegenerate = nondegenerate and c != 0 and _reading(
                x).nondegenerate and _reading(y).nondegenerate
            worst = _tile_residue(ids[i], ids[j], x, y)
            if worst is None:
                residue = None
            elif worst and residue is not None:
                residue = max(residue, abs(complex(c)) * worst)
        if not nondegenerate:
            raise FormVerificationError(
                "the form must be nondegenerate: its tiles must pair the "
                "blocks one to one by invertible factors")
        if residue is None:
            raise FormVerificationError(
                "the form must be invariant under the generators")
        return VerifiedForm(self, residue)

    def pairing_sign(self, i: int) -> int:
        """The sign s of P^T = s P for the pairing P = X (x) Y of block row
        i's tile: 1 when :func:`_pairing_symmetry` reads P symmetric, -1
        when skew; a P of neither symmetry is an internal error."""
        sym = _pairing_symmetry(*self.rows[i][3:])
        if sym is Symmetry.NEITHER:
            raise PeriodLabError(
                "internal: the pairing of a self-paired class is neither "
                "symmetric nor skew")
        return 1 if sym is Symmetry.SYMMETRIC else -1


@dataclass(frozen=True)
class VerifiedForm:
    """A skew, nondegenerate form preserved by every generator of
    ``form.factors``, as :meth:`FactoredForm.verify` checked it on its
    tiles; ``residue`` is the largest |g^T J g - J| entry those checks
    computed."""

    form: FactoredForm
    residue: float


@lru_cache(maxsize=None)
def _tile_residue(c: int, d: int, x: int, y: int) -> float | None:
    """Whether L^T X R = X for the rho generators (L, R) of block classes c
    and d (by :meth:`Matrix.equals`) and U^T Y U' = Y for exp E and exp F
    of k and k' (:func:`_sl2_fixed`), X and Y factor ids: None when not,
    else the residue max|L^T X R - X| max|Y|, 0.0 when exact."""
    (ls, _, k, _), (rs, _, k2, _) = _CLASSES[c], _CLASSES[d]
    xm, worst = _FACTORS[x], 0.0
    for l, r in zip(ls, rs):
        moved = _FACTORS[l].T @ xm @ _FACTORS[r]
        if not moved.equals(xm):
            return None
        if not moved.exact:
            worst = max(worst, moved.max_abs_diff(xm))
    ym = _FACTORS[y]
    if not all(_sl2_fixed(k, k2, part) for part in ym.numerator_entries()):
        return None
    return worst * ym.max_abs()


def _sl2_fixed(k: int, k2: int, entries: Sequence[tuple[tuple[int, int], int]],
               pairing: bool = True) -> bool:
    """The one E/F check, of the weight solve and :meth:`FactoredForm.verify`:
    whether U^T Y U' = Y (``pairing``) or U Y = Y U' for U = exp E, exp F
    of S(k) and S(k'), Y a k x k' integer matrix given by its nonzero
    ``entries`` ((a, b), y_ab); E and F are real, so an exact Y is checked
    one part at a time.  As exp E and exp F are unipotent, this is
    X^T Y + Y X' = 0, or X Y - Y X' = 0, for X = E, F, which have at most
    one entry per row and per column (:func:`_sl2_triple`): the sums run
    over Y's nonzero entries, in integers."""
    for x, x2 in zip(_sl2_triple(k)[:2], _sl2_triple(k2)[:2]):
        # X^T Y at (c, b) holds v y_rb, X Y at (r, b) holds v y_cb, and
        # Y X' at (a, c) holds v y_ar
        left = {r: (c, v) for r, c, v in x} if pairing else {
            c: (r, v) for r, c, v in x}
        right = {r: (c, v if pairing else -v) for r, c, v in x2}
        total: Counter = Counter()
        for (a, b), v in entries:
            if a in left:
                total[left[a][0], b] += left[a][1] * v
            if b in right:
                total[a, right[b][0]] += right[b][1] * v
        if any(total.values()):
            return False
    return True


@lru_cache(maxsize=None)
def _opposite_tiles(c, x: int, y: int, c2, x2: int, y2: int) -> bool:
    """Whether the tile c' X' (x) Y' = (c2, x2, y2) at block pair (j, i) is
    minus the transpose of c X (x) Y at (i, j), X and Y given as factors.
    c' = 0 stands for no tile (X', Y' unread): c X (x) Y must vanish."""
    lhs = _FACTORS[x].T.scale(-c), _FACTORS[y].T
    if c2 == 0:
        return any(m.is_zero() for m in lhs)
    return tensor_equal(*lhs, _FACTORS[x2].scale(c2), _FACTORS[y2])


def _pairing_symmetry(x: int, y: int) -> Symmetry:
    """The symmetry of a pairing X (x) Y, X and Y factor ids read by
    :func:`classify_form`: symmetric when X and Y are alike, skew when they
    differ, neither when one of them is."""
    sx = classify_form(_FACTORS[x]).symmetry
    sy = classify_form(_FACTORS[y]).symmetry
    if Symmetry.NEITHER in (sx, sy):
        return Symmetry.NEITHER
    return Symmetry.SYMMETRIC if sx is sy else Symmetry.SKEW


def find_nondegenerate_skew(gens) -> FactoredForm | None:
    """A nondegenerate skew invariant form J of a realization or a bare
    list of generators, built class by class as tiles, or None when a
    certificate shows that there is none.

    Blocks of :func:`tensor_factors` with equal factors form a class C of
    multiplicity m_C (:attr:`TensorFactors.classes`).  By Schur's lemma C
    pairs with exactly one class C', through one pairing P = X (x) Y solved
    once per pair of class ids (:func:`_class_pairing`); a second such
    class is an internal error.  J pairs copy i of C with copy i of C' by P
    and -P^T.  When C = C', P^T pairs C with itself too, so P is symmetric or
    skew, as :func:`_pairing_symmetry` reads the solved X and Y: a symmetric P
    pairs copy 2i with copy 2i + 1, and a skew P each copy with itself.
    Each None has a certificate that every invariant (skew) form is
    degenerate:

    * C pairs with no class: the form vanishes on the rows of C;
    * m_C != m_C': it maps the rows of one class into fewer columns;
    * P symmetric, m_C odd: on C it is M (x) P, M skew of odd size.

    J itself is not classified; :meth:`FactoredForm.verify` checks it on
    its tiles.
    """
    tf = tensor_factors(gens)
    classes, tiles = tf.classes, []
    for c, copies in classes.items():
        pairings = [(duals, p) for d, duals in classes.items()
                    if (p := _class_pairing(c, d))]
        if not pairings:
            return None
        if len(pairings) > 1:
            raise PeriodLabError("internal: a class of blocks pairs with "
                                 f"{len(pairings)} classes, not 1")
        ((duals, (x, y, xt, yt)),) = pairings
        if duals[0] < copies[0]:
            continue  # placed with its dual class
        if duals is copies and _pairing_symmetry(x, y) is Symmetry.SYMMETRIC:
            copies, duals = copies[::2], copies[1::2]
        if len(copies) != len(duals):
            return None
        # a copy paired with itself gets P alone, which is skew unless P is
        # neither symmetric nor skew, and then fails FactoredForm.verify
        for i, j in zip(copies, duals):
            tiles.append((i, j, 1, x, y))
            if i != j:
                tiles.append((j, i, -1, xt, yt))
    return FactoredForm(tf, tuple(tiles))


# ---------------------------------------------------------------------------
# realizations of parameters


@lru_cache(maxsize=1024)
def _model_set(distinct: tuple) -> dict:
    """The rho factors of each model of a realization whose label models
    are ``distinct``, in order of first appearance: the :func:`_factor`
    ids of its generators' matrices.  Models hash by identity, so this is
    built once per model set of a catalog."""
    groups: dict = {}
    for m in distinct:
        groups.setdefault(m.group, []).append(m)
    # only the models of a generator's group can move
    moving = [(g, [pos for pos in range(len(g.generator_idxs))
                   if not all(m.is_identity[pos] for m in members)])
              for g, members in groups.items()]
    return {m: tuple(f for g, ps in moving for f in (
        [_factor(m.matrices[g.generator_idxs[pos]]) for pos in ps]
        if m.group is g
        else [_identity(m.dim)] * len(ps))) for m in distinct}


def realize(p: WDParameter, catalog: "Catalog") -> TensorFactors:
    """The generators of the image of an untwisted parameter, as their
    tensor factors.

    Each segment St(k, rho) contributes a block rho (x) S(k); a group
    generator gamma acts as gamma (x) I_k in every block whose label is
    modeled on gamma's group and as the identity elsewhere (skipped when
    that is the identity everywhere; factors and identity flags are read
    off the models), and the unipotent pair exp(E), exp(F) acts as
    I_r (x) exp on every block at once, exactly whatever the labels'
    path.  A realization with no such generator, such as
    ``trivial (+) trivial``, has none, and every form is invariant.  The
    grouping of the models is built once per model set (:func:`_model_set`).
    """
    segs = p.segments
    if not segs:
        raise ValueError("cannot realize the empty parameter")
    models, blocks, lo = [], [], 0
    for s in segs:
        label, k = s.cuspidal, s.k
        if s.twist:
            raise TwistedSegmentError(
                f"segment {label.name} has twist {s.twist}; "
                f"realizations are defined for twist zero")
        models.append(catalog.model_for(label))
        blocks.append((lo, label.dim, k))
        lo += s.dim
    rho_of = _model_set(tuple(dict.fromkeys(models)))
    return TensorFactors(lo, tuple(blocks),
                         tuple(map(rho_of.__getitem__, models)))
