"""Explicit linear algebra for the matrix oracles.

Two arithmetic paths coexist:

* an exact path over the Gaussian rationals, used for everything built from
  integers and fourth roots of unity — the J matrices, permutations, sl2
  symmetric-power data, and integer-entry group models.  Identities on this
  path hold with zero tolerance.
* a float path over ``complex128`` with the one tolerance
  ``FLOAT_TOL = 1e-9``, used as soon as a construction needs other roots of
  unity or quaternion entries.

A :class:`Matrix` records which path produced it; mixing paths silently
downgrades to floats.  Each path has one comparison rule,
:meth:`Matrix.equals`.  An exact matrix is stored only as its
Gaussian-integer image ``(re, im, den)``: the matrix is ``(re + i*im)/den``
with ``re`` and ``im`` object arrays of Python ints and ``den`` a positive
int, reduced so that gcd(re, im, den) = 1.  The reduced image is unique, so
equality compares integers, and products are integer matmuls.
:class:`~periodlab.exactnum.QQi` scalars appear only at the edges: as input
to :meth:`Matrix.from_rows` and as output of :meth:`Matrix.tolist`.
Null spaces are computed on the exact path by a sparse reduced row echelon
form kept fraction-free in Gaussian integers, and by SVD on the float path.
An exact row with one nonzero entry pins its unknown to 0; such unknowns
are dropped from the other rows before those are reduced, so a system like
the sl2 form's, whose weight rows pin all but k of its k^2 unknowns,
reduces only what is left.  Identities of permutation matrices are decided
by reindexing, with no product formed.
Invertibility, and so nondegeneracy of forms, is decided on the exact path
by fraction-free elimination over the Gaussian integers (Bareiss 1968), and
on the float path by the SVD rank rule.

A realization is a direct sum of blocks rho_i (x) S(k_i), and each of its
generators acts on every block as A_i (x) I or as I (x) U_i.
:func:`realize` stores the generators as these factors
(:class:`TensorFactors`); the dense matrices are assembled from them on
demand and never split again.  :func:`invariant_forms` solves the forms of
each block pair as products X (x) Y of a rho factor (at most 4 unknowns)
and an S(k) factor (k k' unknowns), each solve cached on its factor's
integers; :func:`find_nondegenerate_skew` builds its form from the same
solves, one per pair of block classes, and keeps it as tiles c X (x) Y
(:class:`FactoredForm`), which are checked factor by factor, and
``group_models`` solves the commutant the same way.  A bare list of
generators is solved as one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, gcd, lcm
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, Union

import numpy as np

from .errors import (
    ConjugatorNotFoundError,
    OddPartError,
    OddSizeError,
    PeriodLabError,
    ShapeMismatchError,
    TwistedSegmentError,
)
from .exactnum import ZERO, QQi, qqi
from .param_core import Segment, WDParameter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .group_models import Catalog

FLOAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# dense matrices


class Matrix:
    """A dense matrix on either the exact or the float path.

    On the exact path ``data`` is None and the matrix is
    ``(re + i*im) / den``, reduced (see the module docstring); on the float
    path ``data`` is the ``complex128`` array and the other slots are unset.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("data", "re", "im", "den")

    def __init__(self, data: np.ndarray | None, re: np.ndarray | None = None,
                 im: np.ndarray | None = None, den: int = 1):
        """Stores the slots as given; :meth:`gaussian` and
        :meth:`from_array` are the checked ways in."""
        self.data, self.re, self.im, self.den = data, re, im, den

    # -- construction ---------------------------------------------------
    @staticmethod
    def gaussian(re: np.ndarray, im: np.ndarray | None = None,
                 den: int = 1) -> "Matrix":
        """The exact matrix ``(re + i*im) / den`` of Python-int object arrays
        and a positive ``den``, reduced."""
        if im is None:
            im = np.zeros_like(re)
        if den != 1:
            g = gcd(den, *re.flat, *im.flat)
            if g > 1:
                re, im, den = re // g, im // g, den // g
        return Matrix(None, re, im, den)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], exact: bool = True) -> "Matrix":
        """A matrix from rows of ints, Fractions or QQi (or complex numbers
        when not ``exact``)."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatchError("ragged rows")
        if not exact:
            return Matrix.from_array(
                np.array(rows, dtype=complex).reshape(nrows, ncols))
        vals = [qqi(v) for row in rows for v in row]
        parts = [x for v in vals for x in (v.re, v.im)]
        den = lcm(*(x.denominator for x in parts))
        ints = np.array([x.numerator * (den // x.denominator) for x in parts],
                        dtype=object).reshape(nrows, ncols, 2)
        return Matrix.gaussian(ints[..., 0], ints[..., 1], den)

    @staticmethod
    def from_array(arr: np.ndarray) -> "Matrix":
        return Matrix(np.asarray(arr, dtype=complex))

    @staticmethod
    def zeros(rows: int, cols: int, exact: bool = True) -> "Matrix":
        if exact:
            return Matrix.gaussian(np.zeros((rows, cols), dtype=object))
        return Matrix(np.zeros((rows, cols), dtype=complex))

    @staticmethod
    def identity(n: int, exact: bool = True) -> "Matrix":
        if exact:
            return Matrix.gaussian(np.eye(n, dtype=object))
        return Matrix(np.eye(n, dtype=complex))

    # -- basic shape ------------------------------------------------------
    @property
    def exact(self) -> bool:
        return self.data is None

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.re.shape if self.data is None else self.data.shape

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- conversions ------------------------------------------------------
    def to_float(self) -> "Matrix":
        if not self.exact:
            return self
        return Matrix(self.as_complex())

    def as_complex(self) -> np.ndarray:
        """The entries as ``complex128``, each part correctly rounded."""
        if not self.exact:
            return self.data
        out = np.empty(self.shape, dtype=complex)
        out.real = self.re / self.den
        out.imag = self.im / self.den
        return out

    def tolist(self) -> list[list]:
        """The entries as nested lists: QQi on the exact path, complex on the
        float path."""
        if not self.exact:
            return self.data.tolist()
        d = self.den
        return [[QQi(Fraction(a, d), Fraction(b, d)) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.re.tolist(), self.im.tolist())]

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Matrix":
        """The matrix ``fn(self)`` for an ``fn`` that moves, stacks or adds
        entries without scaling them (a slice, a transpose, a sum of
        slices): on the exact path it is applied to ``re`` and ``im``."""
        if self.exact:
            return Matrix.gaussian(fn(self.re), fn(self.im), self.den)
        return Matrix.from_array(fn(self.data))

    # -- arithmetic -------------------------------------------------------
    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}")
        if self.exact and other.exact:
            ar, ai, br, bi = self.re, self.im, other.re, other.im
            return Matrix.gaussian(ar @ br - ai @ bi, ar @ bi + ai @ br,
                                   self.den * other.den)
        return Matrix(self.as_complex() @ other.as_complex())

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeMismatchError(f"{self.shape} + {other.shape}")
        if self.exact and other.exact:
            den = lcm(self.den, other.den)
            a, b = den // self.den, den // other.den
            return Matrix.gaussian(self.re * a + other.re * b,
                                   self.im * a + other.im * b, den)
        return Matrix(self.as_complex() + other.as_complex())

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        if self.exact:
            return Matrix(None, -self.re, -self.im, self.den)
        return Matrix(-self.data)

    def scale(self, s) -> "Matrix":
        """``s`` times the matrix; exact when the matrix is and ``s`` is an
        int, Fraction or QQi."""
        if self.exact and isinstance(s, int):
            return Matrix.gaussian(self.re * s, self.im * s, self.den)
        if self.exact:
            try:
                s = qqi(s)
            except TypeError:
                pass
            else:
                d = lcm(s.re.denominator, s.im.denominator)
                p, q = int(s.re * d), int(s.im * d)
                return Matrix.gaussian(self.re * p - self.im * q,
                                       self.re * q + self.im * p,
                                       self.den * d)
        return Matrix(self.as_complex() * complex(s))

    @property
    def T(self) -> "Matrix":
        if self.exact:
            return Matrix(None, self.re.T, self.im.T, self.den)
        return Matrix(self.data.T.copy())

    def conj(self) -> "Matrix":
        if self.exact:
            return Matrix(None, self.re, -self.im, self.den)
        return Matrix(self.data.conj())

    def trace(self):
        """The trace: a QQi on the exact path, complex on the float path."""
        if self.exact:
            return QQi(Fraction(sum(self.re.diagonal()), self.den),
                       Fraction(sum(self.im.diagonal()), self.den))
        return sum(self.data.diagonal())

    def kron(self, other: "Matrix") -> "Matrix":
        if self.exact and other.exact:
            ar, ai, br, bi = self.re, self.im, other.re, other.im
            return Matrix.gaussian(_kron(ar, br) - _kron(ai, bi),
                                   _kron(ar, bi) + _kron(ai, br),
                                   self.den * other.den)
        return Matrix(_kron(self.as_complex(), other.as_complex()))

    # -- predicates --------------------------------------------------------
    def equals(self, other: "Matrix") -> bool:
        """Exact equality when both matrices are exact, else
        max|a - b| <= FLOAT_TOL * max(1, max|a|, max|b|), the rank rule's
        scale."""
        if self.shape != other.shape:
            return False
        if self.exact and other.exact:
            return (self.den == other.den
                    and np.array_equal(self.re, other.re)
                    and np.array_equal(self.im, other.im))
        a, b = self.as_complex(), other.as_complex()
        scale = max(np.abs(a).max(initial=1.0), np.abs(b).max(initial=1.0))
        return bool(np.abs(a - b).max(initial=0.0) <= FLOAT_TOL * scale)

    def max_abs_diff(self, other: "Matrix") -> float:
        d = self.as_complex() - other.as_complex()
        return float(np.abs(d).max()) if d.size else 0.0

    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        return self.equals(Matrix.identity(self.rows, self.exact))

    def is_invertible(self) -> bool:
        """Decided exactly on the exact path, by the SVD rank rule on the
        float path."""
        if not self.is_square:
            return False
        if self.rows == 0:
            return True
        if self.exact:
            return _gaussian_nonsingular(self.re, self.im)
        s = np.linalg.svd(self.data, compute_uv=False)
        return bool((s > _rank_cutoff(s)).all())

    def rank(self) -> int:
        if self.exact:
            return _Rref(self.cols, map(_sparse_row, self.re.tolist(),
                                        self.im.tolist())).rank
        if self.data.size == 0:
            return 0
        s = np.linalg.svd(self.data, compute_uv=False)
        return int((s > _rank_cutoff(s)).sum())

    def __repr__(self) -> str:
        tag = "exact" if self.exact else "float"
        return f"Matrix({self.rows}x{self.cols}, {tag})"


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2-d arrays as one broadcast product, without its
    shape handling (which dominates on small object arrays)."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def blockdiag(blocks: Sequence[Matrix]) -> Matrix:
    """Direct sum of square blocks; exact iff every block is."""
    ends = list(accumulate(b.rows for b in blocks))
    at = [slice(hi - b.rows, hi) for hi, b in zip(ends, blocks)]
    return _placed(ends[-1] if ends else 0, list(zip(at, at, blocks)))


def _placed(n: int, tiles: Sequence[tuple[slice, slice, Matrix]]) -> Matrix:
    """The n x n matrix with each ``m`` of ``tiles`` (rows, cols, m) written
    at ``[rows, cols]`` and zeros elsewhere; exact iff every tile is."""
    exact = all(m.exact for *_, m in tiles)
    den = lcm(*(m.den for *_, m in tiles)) if exact else 1
    parts = ([np.zeros((n, n), dtype=object) for _ in range(2)] if exact
             else [np.zeros((n, n), dtype=complex)])
    for rows, cols, m in tiles:
        values = ((m.re * (den // m.den), m.im * (den // m.den)) if exact
                  else (m.as_complex(),))
        for part, v in zip(parts, values):
            part[rows, cols] = v
    return Matrix.gaussian(*parts, den) if exact else Matrix(parts[0])


# ---------------------------------------------------------------------------
# null spaces


def _sparse_row(re: Sequence[int], im: Sequence[int]) -> dict:
    """The nonzero entries ``col -> (re, im)`` of one Gaussian-integer row."""
    return {j: (a, b) for j, (a, b) in enumerate(zip(re, im)) if a or b}


class _Rref:
    """Incremental reduced row echelon form over the Gaussian rationals with
    sparse rows.

    Rows are Gaussian-integer dicts ``col -> (re, im)``, meaningful only up
    to a nonzero scale: a row is inserted at any scale and divided by the
    integer gcd of its parts after each update.  ``rows`` maps each pivot
    column to its row, which stands for itself divided by its entry there.
    The reduced row echelon form is unique, so it does not depend on how
    the rows are scaled or ordered.
    """

    def __init__(self, ncols: int, rows: Iterable[dict] = ()):
        self.ncols = ncols
        self.rows: dict[int, dict[int, tuple[int, int]]] = {}
        for row in rows:
            self.insert(row)

    def insert(self, row: dict[int, tuple[int, int]]) -> None:
        row = {c: v for c, v in row.items() if v[0] or v[1]}
        # pivot rows vanish on every other pivot column, so one pass over
        # the pivot columns of the row reduces it
        for c in [c for c in row if c in self.rows]:
            piv = self.rows[c]
            row = _combine(piv[c], row, row[c], piv)
        if not row:
            return
        lead = min(row)
        for c, piv in self.rows.items():
            if lead in piv:
                self.rows[c] = _combine(row[lead], piv, piv[lead], row)
        self.rows[lead] = row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def nullspace(self, pinned: Iterable[int] = ()) -> list[Matrix]:
        """Basis of the solution space as exact 1 x ncols rows, one per free
        column f: 1 at f and -x_f / x_c at the pivot column c of each pivot
        row x.  A ``pinned`` column, one that the rows do not touch, counts
        as a pivot column whose row is its unit row."""
        basis = []
        bound = self.rows.keys() | set(pinned)
        for f in range(self.ncols):
            if f in bound:
                continue
            hits = [(c, row[c], row[f]) for c, row in self.rows.items()
                    if f in row]
            den = lcm(*(gr * gr + gi * gi for _, (gr, gi), _ in hits))
            re = np.zeros((1, self.ncols), dtype=object)
            im = np.zeros((1, self.ncols), dtype=object)
            re[0, f] = den
            for c, (gr, gi), (xr, xi) in hits:
                # -x / g = -x * conj(g) / |g|^2
                s = den // (gr * gr + gi * gi)
                re[0, c] = -(xr * gr + xi * gi) * s
                im[0, c] = (xr * gi - xi * gr) * s
            basis.append(Matrix.gaussian(re, im, den))
        return basis


def _combine(a, x, b, y) -> dict[int, tuple[int, int]]:
    """The Gaussian-integer row a*x - b*y, divided by the gcd of its parts."""
    (ar, ai), (br, bi) = a, b
    out = {}
    for c in x.keys() | y.keys():
        xr, xi = x.get(c, (0, 0))
        yr, yi = y.get(c, (0, 0))
        re = ar * xr - ai * xi - br * yr + bi * yi
        im = ar * xi + ai * xr - br * yi - bi * yr
        if re or im:
            out[c] = (re, im)
    g = gcd(*(t for v in out.values() for t in v))
    if g > 1:
        out = {c: (re // g, im // g) for c, (re, im) in out.items()}
    return out


def nullspace_exact(rows: Sequence[dict], ncols: int) -> list[Matrix]:
    """:meth:`_Rref.nullspace` of Gaussian-integer rows ``col -> (re, im)``.

    A row with one nonzero entry pins its column to 0.  Those columns are
    dropped from the other rows before they are reduced, and their unit rows
    join the reduced form as they are: it stays reduced, and it is unique,
    so the basis is the one of all rows reduced in the order given.
    """
    rows = [{c: v for c, v in row.items() if v[0] or v[1]} for row in rows]
    pinned = {c for row in rows if len(row) == 1 for c in row}
    rest = [{c: v for c, v in row.items() if c not in pinned}
            for row in rows if len(row) > 1]
    return _Rref(ncols, filter(None, rest)).nullspace(pinned)


def _normalized(row: dict[int, tuple[int, int]], lead: int,
                n: int) -> Matrix:
    """The n x n matrix whose row-major entries are the sparse
    Gaussian-integer ``row`` divided by its entry at ``lead``."""
    gr, gi = row[lead]
    re, im = np.zeros(n * n, dtype=object), np.zeros(n * n, dtype=object)
    for c, (xr, xi) in row.items():
        # x / g = x * conj(g) / |g|^2
        re[c], im[c] = xr * gr + xi * gi, xi * gr - xr * gi
    return Matrix.gaussian(re.reshape(n, n), im.reshape(n, n),
                           gr * gr + gi * gi)


def _rank_cutoff(s: np.ndarray) -> float:
    """The float rank rule: singular values ``s`` above
    ``FLOAT_TOL * max(1, largest)`` count."""
    return FLOAT_TOL * s.max(initial=1.0)


def _gaussian_nonsingular(re: np.ndarray, im: np.ndarray) -> bool:
    """Whether the square Gaussian-integer matrix ``re + i*im`` is
    invertible.

    Fraction-free elimination (Bareiss 1968): after step k each entry of the
    trailing block is a minor of the input, so dividing by the previous
    pivot is exact in Z[i].  The matrix is singular exactly when a column
    has no pivot left.
    """
    re, im = re.tolist(), im.tolist()
    n = len(re)
    pr, pi = 1, 0  # the previous pivot
    for k in range(n):
        p = next((r for r in range(k, n) if re[r][k] or im[r][k]), None)
        if p is None:
            return False
        re[k], re[p], im[k], im[p] = re[p], re[k], im[p], im[k]
        ar, ai, rk, ik = re[k][k], im[k][k], re[k], im[k]
        norm = pr * pr + pi * pi
        for i in range(k + 1, n):
            ri, ii = re[i], im[i]
            br, bi = ri[k], ii[k]
            if not (br or bi) and ar == pr and ai == pi:
                continue  # the update would leave this row unchanged
            for j in range(k + 1, n):
                # (a * m_ij - b * m_kj) / previous pivot
                xr = ar * ri[j] - ai * ii[j] - br * rk[j] + bi * ik[j]
                xi = ar * ii[j] + ai * ri[j] - br * ik[j] - bi * rk[j]
                ri[j] = (xr * pr + xi * pi) // norm
                ii[j] = (xi * pr - xr * pi) // norm
        pr, pi = ar, ai
    return True


def nullspace_float(a: np.ndarray, ncols: int) -> np.ndarray:
    """Columns spanning the null space of ``a``: an array of shape
    ``(*, ncols)``, or a list of equally shaped such blocks, stacked."""
    m = np.asarray(a, dtype=complex).reshape(-1, ncols)
    if m.shape[0] == 0 or not np.any(np.abs(m) > 0):
        return np.eye(ncols, dtype=complex)
    _, s, vh = np.linalg.svd(m)
    rank = int((s > _rank_cutoff(s)).sum())
    return vh[rank:].conj().T


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
    """Symmetry and nondegeneracy of ``gram``.

    On the exact path both are read off the stored integers: the symmetry
    from ``re`` and ``im`` against their transposes, nondegeneracy by
    fraction-free elimination.  On the float path they follow
    :meth:`Matrix.equals` and the SVD rank rule.
    """
    if not gram.is_square:
        raise ShapeMismatchError("bilinear forms need square gram matrices")
    if not gram.exact:
        gt = gram.T
        if gt.equals(gram):
            sym = Symmetry.SYMMETRIC
        elif gt.equals(-gram):
            sym = Symmetry.SKEW
        else:
            sym = Symmetry.NEITHER
        return BilinearForm(gram, sym, gram.is_invertible())
    re, im = gram.re, gram.im
    if np.array_equal(re.T, re) and np.array_equal(im.T, im):
        sym = Symmetry.SYMMETRIC
    elif np.array_equal(re.T, -re) and np.array_equal(im.T, -im):
        sym = Symmetry.SKEW
    else:
        sym = Symmetry.NEITHER
    return BilinearForm(gram, sym, _gaussian_nonsingular(re, im))


# ---------------------------------------------------------------------------
# the J matrices and the pairing permutation


def antidiag_J(k: int) -> Matrix:
    """The k-by-k matrix with ones on the antidiagonal."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Matrix.gaussian(np.fliplr(np.eye(k, dtype=object)))


def symplectic_J(m: int) -> BilinearForm:
    """The standard skew form [[0, J], [-J, 0]] in even size m."""
    if m < 2 or m % 2:
        raise OddSizeError(f"symplectic form needs even size >= 2, got {m}")
    h = m // 2
    g = np.zeros((m, m), dtype=object)
    for i in range(h):
        g[i, m - 1 - i], g[m - 1 - i, i] = 1, -1
    return BilinearForm(Matrix.gaussian(g), Symmetry.SKEW, True)


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

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def inverse(self) -> "PermutationMap":
        inv = [0] * self.n
        for j, img in enumerate(self.images, start=1):
            inv[img - 1] = j
        return PermutationMap(tuple(inv))

    def matrix(self) -> Matrix:
        """Exact permutation matrix under the convention P[sigma(j), j] = 1."""
        m = np.zeros((self.n, self.n), dtype=object)
        for j, img in enumerate(self.images, start=1):
            m[img - 1, j - 1] = 1
        return Matrix.gaussian(m)


def w_plus(n: int) -> PermutationMap:
    """The pairing permutation on {1..2n}: 2i-1 -> i and 2i -> 2n+1-i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    images = [0] * (2 * n)
    for i in range(1, n + 1):
        images[2 * i - 2] = i
        images[2 * i - 1] = 2 * n + 1 - i
    return PermutationMap(tuple(images))


def conjugator_for_partition(partition: Sequence[int]) -> PermutationMap:
    """A permutation P with P^-1 * J'_{2n} * P equal to the partition form.

    The pairing algorithm walks the positive entries (u, v), u < v, of the
    block form in order of u and sends the t-th pair to (t, 2n+1-t), the t-th
    symplectic pair of the single-block form.  The identity, under the fixed
    convention P[sigma(j), j] = 1 the identity P^T J' P = J'', is checked
    exactly by :func:`check_conjugator` before returning.
    """
    target = partition_J(partition).gram
    m = target.rows
    pairs = []
    for u in range(m):
        for v in range(u + 1, m):
            if target.re[u, v] == 1:
                pairs.append((u + 1, v + 1))
    pairs.sort()
    n = m // 2
    images = [0] * m
    for t, (u, v) in enumerate(pairs, start=1):
        images[u - 1] = t
        images[v - 1] = m + 1 - t
    return check_conjugator(PermutationMap(tuple(images)), target)


def check_conjugator(perm: PermutationMap, target: Matrix) -> PermutationMap:
    """``perm`` when its matrix P satisfies P^T J' P = ``target`` exactly,
    J' the standard form of its size; else ConjugatorNotFoundError.

    With P[sigma(j), j] = 1, (P^T J' P)[a, b] = J'[sigma(a), sigma(b)], so
    the product is J' reindexed, and no matrix is multiplied.
    """
    s = [img - 1 for img in perm.images]
    conjugated = symplectic_J(perm.n).gram.apply(lambda a: a[np.ix_(s, s)])
    if not conjugated.equals(target):
        raise ConjugatorNotFoundError(
            f"the permutation {perm.images} does not conjugate J'_{perm.n} "
            f"onto the target form")
    return perm


# ---------------------------------------------------------------------------
# sl2 symmetric powers


@dataclass(frozen=True)
class Sl2Action:
    """The standard sl2 triple acting on the degree-(k-1) binary-form basis."""

    k: int
    e: Matrix
    f: Matrix
    h: Matrix


def sl2_sym_power_action(k: int) -> Sl2Action:
    """E, F, H on the basis x^{k-1}, x^{k-2}y, ..., y^{k-1}.

    With v_j = x^{k-1-j} y^j: E v_j = j v_{j-1}, F v_j = (k-1-j) v_{j+1},
    H v_j = (k-1-2j) v_j; [E, F] = H holds exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    e, f, h = (np.zeros((k, k), dtype=object) for _ in range(3))
    for j in range(k):
        if j > 0:
            e[j - 1, j] = j
        if j < k - 1:
            f[j + 1, j] = k - 1 - j
        h[j, j] = k - 1 - 2 * j
    return Sl2Action(k, *map(Matrix.gaussian, (e, f, h)))


def sl2_exp_e(k: int) -> Matrix:
    """exp(E) on the k-dimensional symmetric power; integer entries."""
    m = np.eye(k, dtype=object)
    for j in range(k):
        for t in range(1, j + 1):
            m[j - t, j] = comb(j, t)
    return Matrix.gaussian(m)


def sl2_exp_f(k: int) -> Matrix:
    """exp(F) on the k-dimensional symmetric power; integer entries."""
    m = np.eye(k, dtype=object)
    for j in range(k):
        for t in range(1, k - j):
            m[j + t, j] = comb(k - 1 - j, t)
    return Matrix.gaussian(m)


def invariant_form_sl2(k: int) -> BilinearForm:
    """The invariant form of the k-dimensional sl2 module, exactly.

    Solves X^T B + B X = 0 for X in {E, F, H}; the solution space is one
    dimensional, and the result is normalized so its first nonzero entry in
    row-major order is 1.  Symmetric for k odd, skew for k even.
    """
    action = sl2_sym_power_action(k)
    rows = []
    for x in (action.e, action.f, action.h):
        # X^T B + B X = 0 is (-X^T) B = B X
        rows.extend(_intertwining_rows(-x.T, x))
    basis = nullspace_exact(rows, k * k)
    if len(basis) != 1:
        raise PeriodLabError(
            f"internal: sl2 invariant-form space has dimension {len(basis)}, "
            f"expected 1 (k={k})")
    vec = _sparse_row(basis[0].re[0], basis[0].im[0])
    form = classify_form(_normalized(vec, min(vec), k))
    if not form.nondegenerate or form.symmetry is Symmetry.NEITHER:
        raise PeriodLabError("internal: sl2 invariant form is not as expected")
    return form


# ---------------------------------------------------------------------------
# form algebra and membership


_SIGN_OF_SYMMETRY = {Symmetry.SYMMETRIC: 1, Symmetry.SKEW: -1}


def kron_form(b1: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Kronecker product of forms; the symmetry sign multiplies."""
    gram = b1.gram.kron(b2.gram)
    s1 = _SIGN_OF_SYMMETRY.get(b1.symmetry)
    s2 = _SIGN_OF_SYMMETRY.get(b2.symmetry)
    if s1 is None or s2 is None:
        return classify_form(gram)
    sym = Symmetry.SYMMETRIC if s1 * s2 == 1 else Symmetry.SKEW
    return BilinearForm(gram, sym, b1.nondegenerate and b2.nondegenerate)


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
    form on the factors instead (:meth:`FactoredForm.invariance_residue`);
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


def _sparse_columns(m: Matrix) -> list[list[tuple[int, tuple[int, int]]]]:
    """Per column of an exact ``m``, its nonzero entries (row, (re, im))."""
    return [list(_sparse_row(re, im).items())
            for re, im in zip(m.re.T.tolist(), m.im.T.tolist())]


def _pairing_rows(l: Matrix, r: Matrix) -> list[dict]:
    """Gaussian-integer rows of L^T X R - X = 0 on the row-major vec of X,
    multiplied by the denominators of L and R."""
    a, b = l.rows, r.rows
    l_cols, r_cols = _sparse_columns(l), _sparse_columns(r)
    rows = []
    for i in range(a):
        for j in range(b):
            row = {i * b + j: (-l.den * r.den, 0)}
            for p, (lr, li) in l_cols[i]:
                for q, (rr, ri) in r_cols[j]:
                    xr, xi = row.get(p * b + q, (0, 0))
                    row[p * b + q] = (xr + lr * rr - li * ri,
                                      xi + lr * ri + li * rr)
            rows.append(row)
    return rows


def _intertwining_rows(l: Matrix, r: Matrix) -> list[dict]:
    """Gaussian-integer rows of L X - X R = 0 on the row-major vec of X,
    multiplied by the denominators of L and R; every coefficient is an
    entry of L or R, or one difference of two."""
    a, b = l.rows, r.rows
    l_rows, r_cols = _sparse_columns(l.T), _sparse_columns(r)
    rows = []
    for i in range(a):
        for j in range(b):
            row = {p * b + j: (lr * r.den, li * r.den)
                   for p, (lr, li) in l_rows[i]}
            for q, (rr, ri) in r_cols[j]:
                xr, xi = row.get(i * b + q, (0, 0))
                row[i * b + q] = (xr - rr * l.den, xi - ri * l.den)
            rows.append(row)
    return rows


def _unipotent_log(m: Matrix) -> Matrix | None:
    """log m, exactly, when m - I is strictly triangular (m is unipotent):
    the finite series sum_t (-1)^(t+1) (m - I)^t / t, summed in Gaussian
    integers over one denominator.  None for any other m."""
    s, d = m.rows, m.den
    # m - I = (br + i*bi) / d
    br, bi = m.re - d * np.eye(s, dtype=object), m.im
    nonzero = (br != 0) | (bi != 0)
    if np.tril(nonzero).any() and np.triu(nonzero).any():
        return None
    den = lcm(*range(1, s)) * d ** max(s - 1, 1)
    pr, pi = br, bi
    lr, li = br * (den // d), bi * (den // d)
    for t in range(2, s):
        pr, pi = pr @ br - pi @ bi, pr @ bi + pi @ br
        c = (-1) ** (t + 1) * (den // (t * d ** t))
        lr, li = lr + c * pr, li + c * pi
    return Matrix.gaussian(lr, li, den)


def _factor_pairs(pairs, a, b, exact):
    """The (L, R) matrices of ``pairs`` and, on the exact path, their
    logarithms when both are unipotent, else None."""
    for l, r in pairs:
        l, r = (_factor_matrix(l, a, a, exact),
                _factor_matrix(r, b, b, exact))
        log_l = _unipotent_log(l) if exact else None
        log_r = None if log_l is None else _unipotent_log(r)
        yield l, r, (None if log_r is None else (log_l, log_r))


@lru_cache(maxsize=512)
def invariant_pairings(pairs: tuple, a: int, b: int, exact: bool) -> tuple:
    """Basis of {X (a x b) : L^T X R = X for every (L, R) in ``pairs``}.

    Each L (a x a) and R (b x b) is given as a factor of
    :class:`TensorFactors`, so solves are cached on the factors' integers
    (or complex entries).  Exact row reduction when ``exact``, each basis
    vector an exact 1 x ab :class:`Matrix`; else the float rank rule, each
    a tuple of complex entries.  The vectors are row-major.  A
    unipotent pair gives the equivalent rows (log L)^T X + X log R = 0, a
    few entries each.
    """
    factors = _factor_pairs(pairs, a, b, exact)
    if not exact:
        return tuple(map(tuple, nullspace_float(
            [np.kron(l.data.T, r.data.T) - np.eye(a * b)
             for l, r, _ in factors], a * b).T))
    rows = []
    for l, r, logs in factors:
        rows += (_pairing_rows(l, r) if logs is None
                 else _intertwining_rows(-logs[0].T, logs[1]))
    return tuple(nullspace_exact(rows, a * b))


@lru_cache(maxsize=512)
def intertwiners(pairs: tuple, a: int, b: int, exact: bool) -> tuple:
    """Basis of {X (a x b) : L X = X R for every (L, R) in ``pairs``}, with
    arguments and result as for :func:`invariant_pairings`.  The rows hold
    entries of L and R, never their products; a unipotent pair gives
    (log L) X = X log R instead."""
    factors = _factor_pairs(pairs, a, b, exact)
    if not exact:
        return tuple(map(tuple, nullspace_float(
            [np.kron(l.data, np.eye(b)) - np.kron(np.eye(a), r.data.T)
             for l, r, _ in factors], a * b).T))
    rows = []
    for l, r, logs in factors:
        rows += _intertwining_rows(*(logs or (l, r)))
    return tuple(nullspace_exact(rows, a * b))


@dataclass(frozen=True)
class TensorFactors:
    """Generators given block by block as g = (+)_i A_i (x) I_(k_i) (a rho
    generator) or g = (+)_i I_(r_i) (x) U_i (an S(k) generator).

    ``blocks`` holds (lo, r, k) per block; ``rho[i]`` the A_i of every rho
    generator and ``sl2[i]`` the U_i of every S(k) generator, in generator
    order (rho generators first).  An exact factor is the reduced triple
    ``(re, im, den)`` of its row-major entries, ``re`` and ``im`` tuples of
    ints; a float factor is the tuple of its complex entries.  The rho side
    is exact or float as a whole; the S(k) side, the integer exp(E) and
    exp(F), is always exact, also next to a float label.  A
    :class:`GeneratorSet` is stored as its factors.
    """

    n: int
    blocks: tuple[tuple[int, int, int], ...]
    rho: tuple[tuple[tuple, ...], ...]
    sl2: tuple[tuple[tuple, ...], ...]
    rho_exact: bool

    def pair(self, i: int, j: int) -> tuple[tuple, tuple]:
        """The rho and S(k) factor solve arguments of block pair (i, j)."""
        (_, r, k), (_, r2, k2) = self.blocks[i], self.blocks[j]
        return ((tuple(zip(self.rho[i], self.rho[j])), r, r2, self.rho_exact),
                (tuple(zip(self.sl2[i], self.sl2[j])), k, k2, True))

    def block_pairs(self):
        """Per block pair (i, j): where i and j start, and :meth:`pair`."""
        for i, (lo, _, _) in enumerate(self.blocks):
            for j, (lo2, _, _) in enumerate(self.blocks):
                yield (lo, lo2, *self.pair(i, j))

    def sides(self):
        """(per block factors, exact, is_rho) of the rho and S(k) sides."""
        return ((self.rho, self.rho_exact, True), (self.sl2, True, False))

    def dense(self) -> list[Matrix]:
        """The generators as n x n matrices, in generator order.  On a block
        (lo, r, k), A is placed on the diagonal of every k x k tile and U on
        every diagonal tile, so nothing is multiplied."""
        return [_placed(self.n, [
            (at, at, _factor_matrix(f[g], size, size, exact))
            for (lo, r, k), f in zip(self.blocks, side)
            for size in [r if is_rho else k]
            for c in range(k if is_rho else r)
            for at in [slice(lo + c, lo + r * k, k) if is_rho
                       else slice(lo + c * k, lo + c * k + k)]])
            for side, exact, is_rho in self.sides()
            for g in range(len(side[0]))]


def _factor_matrix(factor: tuple, rows: int, cols: int,
                   exact: bool) -> Matrix:
    """The rows x cols matrix of a factor of :class:`TensorFactors` or
    :class:`FactoredForm`."""
    if not exact:
        return Matrix.from_array(
            np.array(factor, dtype=complex).reshape(rows, cols))
    re, im, den = factor
    return Matrix(None, np.array(re, dtype=object).reshape(rows, cols),
                  np.array(im, dtype=object).reshape(rows, cols), den)


def _factor(m: Matrix, exact: bool) -> tuple:
    """``m`` as a factor of :class:`TensorFactors`, on the exact path when
    ``exact``."""
    if exact:
        return tuple(m.re.flat), tuple(m.im.flat), m.den
    return tuple(map(complex, m.as_complex().flat))


@lru_cache(maxsize=None)
def _identity(size: int, exact: bool) -> tuple[Matrix, tuple]:
    """The size x size identity and its factor, built once."""
    m = Matrix.identity(size, exact)
    return m, _factor(m, exact)


@lru_cache(maxsize=512)
def _exp_factor(exp: Callable[[int], Matrix], k: int) -> tuple:
    """The factor of ``sl2_exp_e(k)`` or ``sl2_exp_f(k)``, built once."""
    return _factor(exp(k), True)


@lru_cache(maxsize=512)
def _invertible(factor: tuple, size: int, exact: bool) -> bool:
    """Whether a factor is invertible, cached on the factor."""
    return _factor_matrix(factor, size, size, exact).is_invertible()


def tensor_factors(gens) -> TensorFactors:
    """The factors of a :class:`GeneratorSet`; a bare list of generators is
    one block with r = n and k = 1, on which every generator is its own A."""
    if isinstance(gens, GeneratorSet):
        return gens.factors
    mats = list(gens)
    if not mats:
        raise ValueError("at least one generator is needed")
    n = mats[0].rows
    for m in mats:
        if not m.is_square or m.rows != n:
            raise ShapeMismatchError("generators must be square of equal size")
    exact = all(m.exact for m in mats)
    rho = tuple(_factor(m, exact) for m in mats)
    return TensorFactors(n, ((0, n, 1),), (rho,), ((),), exact)


def invariant_forms(gens) -> list[BilinearForm]:
    """Basis of the space of forms B with g^T B g = B for all generators.

    Returns symmetric basis elements first, then skew ones, each normalized
    so its first nonzero entry in row-major order is 1.  The solution space
    is closed under transposition, so it always splits into symmetric and
    skew parts; each form is labelled by the part it came from.

    The space is solved per block pair (i, j) of :func:`tensor_factors`
    (the realization's blocks, or one block for a bare list of generators):
    its forms there are X (x) Y, with X in :func:`invariant_pairings` of the
    A_i, A_j and Y in that of the U_i, U_j; each factor is solved on its
    side's path, and X (x) Y is complex unless both are exact.  On the exact
    path X (x) Y is formed in Gaussian integers, up to scale, and the
    symmetric and skew parts are reduced row echelon forms, unique whatever
    the spanning vectors, so they do not depend on the factorization.
    """
    tf = tensor_factors(gens)
    n, exact = tf.n, tf.rho_exact
    vecs: list[dict[int, object]] = []  # row-major index -> entry
    for lo, lo2, rho_args, sl2_args in tf.block_pairs():
        xs = invariant_pairings(*rho_args)
        ys = invariant_pairings(*sl2_args) if xs else ()
        if not exact:  # the S(k) side is exact
            xs = [tuple(map(complex, x)) for x in xs]
            ys = [y.as_complex()[0].tolist() for y in ys]
        r2, (k, k2) = rho_args[2], sl2_args[1:3]
        for x in xs:
            for y in ys:
                vecs.append({
                    (lo + a * k + s) * n + lo2 + b * k2 + t:
                        _gaussian_product(xv, yv) if exact else xv * yv
                    for (a, b), xv in _nonzero_entries(x, r2, exact)
                    for (s, t), yv in _nonzero_entries(y, k2, exact)})

    if exact:
        parts = _split_transpose_exact(vecs, n)
    else:
        dense = np.zeros((len(vecs), n * n), dtype=complex)
        for row, v in zip(dense, vecs):
            row[list(v)] = list(v.values())
        # vec(B^T) permutes vec(B); split into symmetric and skew parts
        perm = np.arange(n * n).reshape(n, n).T.ravel()
        parts = [[Matrix.from_array(v.reshape(n, n))
                  for v in _row_space_basis(rows)]
                 for rows in (dense + dense[:, perm], dense - dense[:, perm])]
    return [BilinearForm(gram, symmetry, gram.is_invertible())
            for symmetry, grams in zip((Symmetry.SYMMETRIC, Symmetry.SKEW),
                                       parts)
            for gram in grams]


def _nonzero_entries(vec, cols: int, exact: bool):
    """((row, col), entry) for the nonzero entries of a row-major basis
    vector: (re, im) of an exact 1 x n row, whose ``den`` is dropped, when
    ``exact``, else a complex entry of a tuple."""
    entries = (_sparse_row(vec.re[0], vec.im[0]).items() if exact
               else ((i, v) for i, v in enumerate(vec) if v))
    return [(divmod(i, cols), v) for i, v in entries]


def _gaussian_product(x: tuple[int, int], y: tuple[int, int]):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _split_transpose_exact(vecs: list[dict], n: int) -> list[list[Matrix]]:
    """The reduced row echelon bases of the symmetric parts v + v^T and of
    the skew parts v - v^T of sparse Gaussian-integer row-major vectors, as
    n x n matrices with leading entry 1."""
    sym_rref = _Rref(n * n)
    skew_rref = _Rref(n * n)
    for v in vecs:
        sym, skew = dict(v), dict(v)
        for c, (vr, vi) in v.items():
            ct = (c % n) * n + c // n
            sr, si = sym.get(ct, (0, 0))
            kr, ki = skew.get(ct, (0, 0))
            sym[ct], skew[ct] = (sr + vr, si + vi), (kr - vr, ki - vi)
        sym_rref.insert(sym)
        skew_rref.insert(skew)
    return [[_normalized(row, c, n) for c, row in sorted(rref.rows.items())]
            for rref in (sym_rref, skew_rref)]


def _row_space_basis(rows: np.ndarray) -> list[np.ndarray]:
    if rows.size == 0 or not np.any(np.abs(rows) > FLOAT_TOL):
        return []
    _, s, vh = np.linalg.svd(rows)
    cutoff = _rank_cutoff(s)
    rank = int((s > cutoff).sum())
    out = []
    for row in vh[:rank]:
        idx = next(i for i, v in enumerate(row) if abs(v) > cutoff)
        out.append(row / row[idx])
    return out


@lru_cache(maxsize=512)
def _block_pairing(rho_args: tuple, sl2_args: tuple) -> tuple | None:
    """The invariant pairing X (x) Y of a block pair, from the solves of its
    factors (:meth:`TensorFactors.pair`), as the factors (X, Y, X^T, Y^T)
    of a :class:`FactoredForm`, or None when there is none."""
    xs = invariant_pairings(*rho_args)
    ys = invariant_pairings(*sl2_args) if xs else ()
    if len(xs) * len(ys) > 1:  # Schur's lemma fails: a block is reducible
        raise PeriodLabError(f"internal: a block pair has {len(xs) * len(ys)}"
                             f" independent invariant pairings, not 0 or 1")
    if not ys:
        return None
    (_, r, r2, exact), (_, k, k2, _) = rho_args, sl2_args
    x = (xs[0].apply(lambda a: a.reshape(r, r2)) if exact
         else Matrix.from_array(np.reshape(xs[0], (r, r2))))
    y = ys[0].apply(lambda a: a.reshape(k, k2))
    return (_factor(x, exact), _factor(y, True), _factor(x.T, exact),
            _factor(y.T, True))


def _self_pairing_symmetry(x: tuple, y: tuple, r: int, k: int,
                           rho_exact: bool) -> Symmetry:
    """The symmetry of a block's pairing X (x) Y with itself: the product of
    the signs of X and Y as :func:`classify_form` reads them."""
    signs = [_SIGN_OF_SYMMETRY.get(classify_form(m).symmetry)
             for m in (_factor_matrix(x, r, r, rho_exact),
                       _factor_matrix(y, k, k, True))]
    if None in signs:
        return Symmetry.NEITHER
    return Symmetry.SYMMETRIC if signs[0] == signs[1] else Symmetry.SKEW


@dataclass(frozen=True)
class FactoredForm:
    """A bilinear form on the blocks of a :class:`TensorFactors`, given by
    its tiles.

    Tile (i, j, c, X, Y) is c * X (x) Y on the rows of block i and the
    columns of block j, at most one per block pair; the form is zero off
    its tiles.  X (r_i x r_j) and Y (k_i x k_j) are factors in the layout
    of :class:`TensorFactors`: X on the rho side's path (``rho_exact``), Y
    always exact.  c is a scalar that :meth:`Matrix.scale` takes.  The
    checks below read the factors; ``gram`` places the dense matrix on
    demand.
    """

    n: int
    blocks: tuple[tuple[int, int, int], ...]
    tiles: tuple[tuple, ...]
    rho_exact: bool

    def __post_init__(self):
        if len({(i, j) for i, j, *_ in self.tiles}) != len(self.tiles):
            raise ValueError("a form has at most one tile per block pair")
        for i, j, _, x, y in self.tiles:
            (_, r, k), (_, r2, k2) = self.blocks[i], self.blocks[j]
            if (len(x[0] if self.rho_exact else x), len(y[0])) != (
                    r * r2, k * k2):
                raise ShapeMismatchError(
                    f"tile ({i}, {j}) does not fit its blocks")

    def _matrices(self, i: int, j: int, x: tuple,
                  y: tuple) -> tuple[Matrix, Matrix]:
        (_, r, k), (_, r2, k2) = self.blocks[i], self.blocks[j]
        return (_factor_matrix(x, r, r2, self.rho_exact),
                _factor_matrix(y, k, k2, True))

    @cached_property
    def gram(self) -> Matrix:
        """The dense n x n form."""
        return self.restricted(range(len(self.blocks)))

    def restricted(self, blocks: Iterable[int]) -> Matrix:
        """The dense form on the rows and columns of ``blocks``, placed one
        after another in the order given."""
        at: dict[int, slice] = {}
        lo = 0
        for b in blocks:
            _, r, k = self.blocks[b]
            at[b] = slice(lo, lo + r * k)
            lo += r * k
        return _placed(lo, [
            (at[i], at[j], xm.kron(ym).scale(c))
            for i, j, c, x, y in self.tiles if i in at and j in at
            for xm, ym in [self._matrices(i, j, x, y)]])

    def is_skew(self) -> bool:
        """Whether J_ji = -J_ij^T for every block pair, decided on the
        factors: exactly on the exact path, by :meth:`Matrix.equals` on the
        float rho side.  A tile paired with itself must be skew."""
        tiles = {(i, j): (c, x, y) for i, j, c, x, y in self.tiles}
        return all(_opposite_tiles(tile, tiles.get((j, i)),
                                   *self.blocks[i][1:], *self.blocks[j][1:],
                                   self.rho_exact)
                   for (i, j), tile in tiles.items())

    def is_nondegenerate(self) -> bool:
        """Whether the tiles pair the blocks one to one (one tile in each
        block row and each block column) by a nonzero c and invertible X and
        Y.  The form is then a block permutation of invertible blocks, so
        nondegenerate; no elimination runs on the dense form."""
        every = list(range(len(self.blocks)))
        if (sorted(i for i, *_ in self.tiles) != every
                or sorted(j for _, j, *_ in self.tiles) != every):
            return False
        for i, j, c, x, y in self.tiles:
            (_, r, k), (_, r2, k2) = self.blocks[i], self.blocks[j]
            if ((r, k) != (r2, k2) or c == 0
                    or not _invertible(x, r, self.rho_exact)
                    or not _invertible(y, k, True)):
                return False
        return True

    def invariance_residue(self, tf: TensorFactors) -> float | None:
        """Whether every generator of ``tf`` preserves the form: None when
        one does not, else the largest |g^T J g - J| entry.

        The generators are block-diagonal, so g^T J g = J holds tile by
        tile, and on a tile c X (x) Y it holds exactly when A_i^T X A_j = X
        for every rho generator and U_i^T Y U_j = Y for every S(k)
        generator.  Each such check is cached on its factors' integers; the
        residue of a tile is |c| times max|A_i^T X A_j - X| times max|Y|
        (or the same on the S(k) side), exactly 0.0 on the exact path.
        """
        if (self.n, self.blocks, self.rho_exact) != (tf.n, tf.blocks,
                                                     tf.rho_exact):
            raise ShapeMismatchError(
                "the form does not lie on the generators' blocks and path")
        residue = 0.0
        for i, j, c, x, y in self.tiles:
            rho_args, sl2_args = tf.pair(i, j)
            dx = _pairing_residue(*rho_args, x)
            dy = _pairing_residue(*sl2_args, y)
            if dx is None or dy is None:
                return None
            worst = max(dx[0] * dy[1], dx[1] * dy[0])
            if worst:
                residue = max(residue, abs(complex(c)) * worst)
        return residue


@lru_cache(maxsize=512)
def _pairing_residue(pairs: tuple, a: int, b: int, exact: bool,
                     x: tuple) -> tuple[float, float] | None:
    """Whether L^T X R = X for every (L, R) in ``pairs``, with the arguments
    of :func:`invariant_pairings` and an a x b factor X: None when not,
    else (the largest |L^T X R - X| entry, the largest |X| entry).  Decided
    by :meth:`Matrix.equals`, so exactly on the exact path, where the first
    is 0.0."""
    xm = _factor_matrix(x, a, b, exact)
    worst = 0.0
    for l, r in pairs:
        moved = (_factor_matrix(l, a, a, exact).T @ xm
                 @ _factor_matrix(r, b, b, exact))
        if not moved.equals(xm):
            return None
        if not exact:
            worst = max(worst, moved.max_abs_diff(xm))
    return worst, float(np.abs(xm.as_complex()).max(initial=0.0))


@lru_cache(maxsize=512)
def _opposite_tiles(tile: tuple, other: tuple | None, r: int, k: int,
                    r2: int, k2: int, rho_exact: bool) -> bool:
    """Whether ``other`` = (c', X', Y') at block pair (j, i) is minus the
    transpose of ``tile`` = (c, X, Y) at (i, j), block i being r (x) k and
    block j r2 (x) k2: c' X' (x) Y' = -c X^T (x) Y^T.  None stands for no
    tile, so ``tile`` must vanish."""
    c, x, y = tile
    lhs = (_factor_matrix(x, r, r2, rho_exact).T.scale(-c),
           _factor_matrix(y, k, k2, True).T)
    if other is None:
        return any(map(_is_zero, lhs))
    c2, x2, y2 = other
    return _tensor_equal(*lhs, _factor_matrix(x2, r2, r, rho_exact).scale(c2),
                         _factor_matrix(y2, k2, k, True))


def _is_zero(m: Matrix) -> bool:
    return m.equals(Matrix.zeros(m.rows, m.cols, m.exact))


def _tensor_equal(a: Matrix, y: Matrix, b: Matrix, z: Matrix) -> bool:
    """Whether a (x) y = b (x) z for exact y and z, without forming either:
    y = u z for the ratio u at z's first nonzero entry, and then u a = b."""
    if _is_zero(a) or _is_zero(y):
        return _is_zero(b) or _is_zero(z)
    if _is_zero(b) or _is_zero(z):
        return False
    p = next(p for p, (re, im) in enumerate(zip(z.re.flat, z.im.flat))
             if re or im)
    u = (QQi(Fraction(y.re.flat[p], y.den), Fraction(y.im.flat[p], y.den))
         / QQi(Fraction(z.re.flat[p], z.den), Fraction(z.im.flat[p], z.den)))
    return z.scale(u).equals(y) and a.scale(u).equals(b)


def find_nondegenerate_skew(gens) -> FactoredForm | None:
    """A nondegenerate skew invariant form J of a generator set, built class
    by class as tiles, or None when a certificate shows that there is none.

    Blocks of :func:`tensor_factors` with equal factors form a class C of
    multiplicity m_C.  By Schur's lemma C pairs with exactly one class C',
    through one pairing P = X (x) Y solved from one block of each
    (:func:`_block_pairing`); a second such class is an internal error.  J
    pairs copy i of C with copy i of C' by P and -P^T.  When C = C', P^T
    pairs C with itself too, so P is symmetric or skew: as
    :func:`classify_form` reads X and Y on each call, a symmetric P pairs
    copy 2i with copy 2i + 1, and a skew P each copy with itself.  Each
    None has a certificate that every invariant (skew) form is degenerate:

    * C pairs with no class: the form vanishes on the rows of C;
    * m_C != m_C': it maps the rows of one class into fewer columns;
    * P symmetric, m_C odd: on C it is M (x) P, M skew of odd size.

    J itself is not classified; :func:`periodlab.distinction.verify_form`
    checks it on its tiles.
    """
    tf = tensor_factors(gens)
    classes: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(tf.rho, tf.sl2)):
        classes.setdefault(key, []).append(i)
    tiles = []
    for copies in classes.values():
        pairings = [(duals, p) for duals in classes.values()
                    for p in [_block_pairing(*tf.pair(copies[0], duals[0]))]
                    if p is not None]
        if not pairings:
            return None
        if len(pairings) > 1:
            raise PeriodLabError("internal: a class of blocks pairs with "
                                 f"{len(pairings)} classes, not 1")
        ((duals, (x, y, xt, yt)),) = pairings
        if duals[0] < copies[0]:
            continue  # placed with its dual class
        if duals is copies and _self_pairing_symmetry(
                x, y, *tf.blocks[copies[0]][1:],
                tf.rho_exact) is Symmetry.SYMMETRIC:
            copies, duals = copies[::2], copies[1::2]
        if len(copies) != len(duals):
            return None
        # a copy paired with itself gets P alone, which is skew unless P is
        # neither symmetric nor skew, and then fails verify_form
        for i, j in zip(copies, duals):
            tiles.append((i, j, 1, x, y))
            if i != j:
                tiles.append((j, i, -1, xt, yt))
    return FactoredForm(tf.n, tf.blocks, tuple(tiles), tf.rho_exact)


# ---------------------------------------------------------------------------
# symmetric powers of 2x2 matrices (used by the finite SL(2) stand-in)


def sym_power(m: Matrix, k: int) -> Matrix:
    """The action of a 2x2 matrix on the k-dimensional symmetric power.

    Basis x^{k-1}, x^{k-2}y, ..., y^{k-1}; column j holds the coefficients
    of (a x + c y)^{k-1-j} (b x + d y)^j for m = [[a, b], [c, d]].
    """
    if m.shape != (2, 2):
        raise ShapeMismatchError("sym_power expects a 2x2 matrix")
    if k < 1:
        raise ValueError("k must be >= 1")
    (a, b), (c, d) = m.tolist()
    zero = ZERO if m.exact else 0j
    cols = []
    for j in range(k):
        left = _binomial_poly(a, c, k - 1 - j, zero)
        right = _binomial_poly(b, d, j, zero)
        col = [zero] * k
        for s, lv in enumerate(left):
            if lv == zero:
                continue
            for t, rv in enumerate(right):
                col[s + t] = col[s + t] + lv * rv
        cols.append(col)
    return Matrix.from_rows(list(zip(*cols)), m.exact)


def _binomial_poly(x, y, power: int, zero):
    """Coefficients of (x*X + y*Y)^power by Y-degree."""
    coeffs = []
    for s in range(power + 1):
        term = zero + comb(power, s)
        for _ in range(power - s):
            term = term * x
        for _ in range(s):
            term = term * y
        coeffs.append(term)
    return coeffs


# ---------------------------------------------------------------------------
# realizations of parameters


@dataclass(frozen=True)
class RealizationRecipe:
    """How a generator set was assembled: one block per segment, in order."""

    segments: tuple[Segment, ...]

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        ends = list(accumulate(s.dim for s in self.segments))
        return tuple(zip([0, *ends], ends))


@dataclass(frozen=True)
class GeneratorSet:
    """Invertible generators of a realized parameter, stored as their
    :class:`TensorFactors`, one provenance tag per generator.

    ``exact`` says whether every factor is exact: the label factors follow
    the label models, and the integer exp(E), exp(F) are exact on both
    paths.  ``generators`` assembles the dense matrices once, on demand.
    """

    factors: TensorFactors
    provenance: tuple[str, ...]
    recipe: RealizationRecipe | None = None

    def __post_init__(self):
        tf = self.factors
        if len(tf.rho[0]) + len(tf.sl2[0]) != len(self.provenance):
            raise ValueError("one provenance tag per generator")
        # A (x) I and I (x) U are invertible exactly when A and U are
        if not all(_invertible(f, r if is_rho else k, exact)
                   for side, exact, is_rho in tf.sides()
                   for (_, r, k), factors in zip(tf.blocks, side)
                   for f in factors):
            raise ValueError("generators must be invertible")

    @property
    def dim(self) -> int:
        return self.factors.n

    @property
    def exact(self) -> bool:
        return self.factors.rho_exact

    @cached_property
    def generators(self) -> tuple[Matrix, ...]:
        return tuple(self.factors.dense())


def realize(p: WDParameter, catalog: "Catalog") -> GeneratorSet:
    """Generators for the image of an untwisted parameter, built as their
    tensor factors.

    Each segment St(k, rho) contributes a block rho (x) S(k); a group
    element gamma acts as gamma (x) I_k in every block whose label is
    modeled on gamma's group and as the identity elsewhere (skipped when
    that is the identity everywhere), and the unipotent pair exp(E), exp(F)
    acts as I_r (x) exp on every block at once, exactly whatever the
    labels' path.  With no such generator the identity is the generator.
    """
    segs = p.segments
    if not segs:
        raise ValueError("cannot realize the empty parameter")
    models = []
    for s in segs:
        if s.twist != 0:
            raise TwistedSegmentError(
                f"segment {s.cuspidal.name} has twist {s.twist}; "
                f"realizations are defined for twist zero")
        models.append(catalog.model_for(s.cuspidal))
    exact = all(m.exact for m in models)

    groups = dict.fromkeys(m.group for m in models)  # hashed by identity
    rho, sl2 = [[] for _ in segs], [[] for _ in segs]
    provenance: list[str] = []
    for group in groups:
        for pos, element_index in enumerate(group.generator_idxs):
            # only the models of the generator's group can move
            if all(m.matrices[element_index].equals(
                    _identity(m.dim, m.exact)[0])
                   for m in models if m.group is group):
                continue
            for block, m in zip(rho, models):
                block.append(_factor(m.matrices[element_index], exact)
                             if m.group is group
                             else _identity(m.dim, exact)[1])
            provenance.append(f"group:{group.name}:{pos}")
    if any(s.k > 1 for s in segs):
        for tag, exp in (("sl2:exp_e", sl2_exp_e), ("sl2:exp_f", sl2_exp_f)):
            for block, s in zip(sl2, segs):
                block.append(_exp_factor(exp, s.k))
            provenance.append(tag)
    if not provenance:
        rho = [[_identity(m.dim, exact)[1]] for m in models]
        provenance = ["identity"]

    recipe = RealizationRecipe(tuple(segs))
    blocks = tuple((lo, s.cuspidal.dim, s.k)
                   for (lo, _), s in zip(recipe.spans, segs))
    factors = TensorFactors(p.dim, blocks,
                            tuple(map(tuple, rho)), tuple(map(tuple, sl2)),
                            exact)
    return GeneratorSet(factors, tuple(provenance), recipe)
