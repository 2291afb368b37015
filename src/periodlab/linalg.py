"""Dense matrices on two arithmetic paths, and their eliminations; the one
module that imports numpy or reads a matrix's slots.

A :class:`Matrix` is exact, over the Gaussian rationals (whatever is built
from integers and fourth roots of unity; identities hold with zero
tolerance), or float, over ``complex128`` (other roots of unity, quaternion
entries), with the one tolerance ``FLOAT_TOL = 1e-9``; each path has one
comparison rule, :meth:`Matrix.equals`.  An exact matrix is stored only as
its reduced Gaussian-integer image ``(re, im, den)``: the matrix
``(re + i*im)/den``, ``re`` and ``im`` object arrays of Python ints,
``den`` > 0 and gcd(re, im, den) = 1, unique, so equality compares integers
and products are integer matmuls.  :class:`~periodlab.exactnum.QQi`
scalars appear only in :meth:`Matrix.from_rows` and :meth:`Matrix.tolist`.
The exact path has one elimination, :class:`_Rref`, a sparse reduced row
echelon form kept fraction-free; the float path reads rank and null spaces
off the SVD by one rank rule, and a square matrix is invertible when its
rank is its size.  :func:`nullspace` and :func:`row_basis` run exact
exactly when every matrix they read is.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeMismatchError
from .exactnum import QQi, qqi

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
    def from_entries(shape: tuple[int, int], entries: Iterable) -> "Matrix":
        """The exact integer matrix with v at each ((i, j), v), else 0."""
        re = np.zeros(shape, dtype=object)
        for at, v in entries:
            re[at] = v
        return Matrix.gaussian(re)

    @staticmethod
    def from_array(arr: np.ndarray) -> "Matrix":
        return Matrix(np.asarray(arr, dtype=complex))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix.gaussian(np.zeros((rows, cols), dtype=object))

    @staticmethod
    def identity(n: int, exact: bool = True) -> "Matrix":
        if exact:
            return Matrix.gaussian(np.eye(n, dtype=object))
        return Matrix(np.eye(n, dtype=complex))

    @staticmethod
    def placed(n: int, tiles: Sequence[tuple]) -> "Matrix":
        """The n x n matrix with m at [rows, cols] for each (rows, cols, m)
        of ``tiles``, else 0; exact iff every tile is."""
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
        rows, cols = self.shape
        return rows == cols

    # -- conversions ------------------------------------------------------
    @property
    def key(self) -> tuple:
        """The shape and the reduced image ``(re, im, den)``, or the complex
        entries on the float path: equal exactly for equal matrices."""
        if self.exact:
            return (self.shape, tuple(self.re.flat), tuple(self.im.flat),
                    self.den)
        return self.shape, tuple(self.data.ravel().tolist())

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

    def normalized(self) -> "Matrix":
        """The exact matrix over its first nonzero entry in row-major order."""
        gr, gi = next((a, b) for a, b in zip(self.re.flat, self.im.flat)
                      if a or b)
        if not gi:
            m = self if gr > 0 else -self
            return Matrix.gaussian(m.re, m.im, abs(gr))
        # x / g = x * conj(g) / |g|^2, the denominators cancelling
        return Matrix.gaussian(self.re * gr + self.im * gi,
                               self.im * gr - self.re * gi, gr * gr + gi * gi)

    def numerator_entries(self) -> tuple[list, list]:
        """The nonzero ((i, j), v) of ``re``, and of ``im``, when exact."""
        return tuple([(divmod(p, self.cols), v) for p, v in enumerate(
            part.flat) if v] for part in (self.re, self.im))

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The entries, in row-major order, as a rows x cols matrix."""
        if self.exact:
            return Matrix(None, self.re.reshape(rows, cols),
                          self.im.reshape(rows, cols), self.den)
        return Matrix(self.data.reshape(rows, cols))

    def rounded(self, places: int) -> "Matrix":
        """The float entries, each part rounded to ``places`` decimals."""
        return Matrix(np.round(self.as_complex(), places))

    # -- arithmetic -------------------------------------------------------
    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}")
        if self.exact and other.exact:
            return Matrix.gaussian(*_gaussian_matmul(
                self.re, self.im, other.re, other.im), self.den * other.den)
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
            return Matrix.gaussian(*_gaussian_matmul(
                self.re, self.im, other.re, other.im, _kron),
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
        return bool(_float_close(self.as_complex(), other.as_complex()))

    def max_abs(self) -> float:
        """The largest |entry|, 0.0 for an empty matrix."""
        return float(np.abs(self.as_complex()).max(initial=0.0))

    def max_abs_diff(self, other: "Matrix") -> float:
        return Matrix(self.as_complex() - other.as_complex()).max_abs()

    def is_zero(self) -> bool:
        """Whether :meth:`equals` holds against the zero matrix."""
        if self.exact:
            return not (self.re.any() or self.im.any())
        return not (abs(self.data) > FLOAT_TOL).any()

    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        return self.equals(Matrix.identity(self.rows, self.exact))

    def is_invertible(self) -> bool:
        """Whether the matrix is square of full rank: :meth:`rank`, exact on
        the exact path and by the SVD rank rule on the float path."""
        return self.is_square and self.rank() == self.rows

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


def _float_close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max|a - b| <= FLOAT_TOL * max(1, max|a|, max|b|) over the last two
    axes: the float rule of :meth:`Matrix.equals`, for each matrix of two
    stacks."""
    axes = (-2, -1)
    scale = np.maximum(abs(a).max(axis=axes, initial=1.0),
                       abs(b).max(axis=axes, initial=1.0))
    return abs(a - b).max(axis=axes, initial=0.0) <= FLOAT_TOL * scale


def follows_table(mats: Sequence[Matrix], table: Sequence[Sequence[int]],
                  cols: Iterable[int]) -> bool:
    """Whether mats[x] @ mats[g] equals mats[table[x][g]] for every x and
    every g in ``cols`` by :meth:`Matrix.equals`, one batched product per g
    on the stacked arrays when some matrix is float."""
    if all(m.exact for m in mats):
        return all((m @ mats[g]).equals(mats[row[g]])
                   for g in cols for m, row in zip(mats, table))
    stack = np.stack([m.as_complex() for m in mats])
    return all(_float_close(stack @ stack[g],
                            stack[[row[g] for row in table]]).all()
               for g in cols)


def tensor_equal(a: Matrix, y: Matrix, b: Matrix, z: Matrix) -> bool:
    """Whether a (x) y = b (x) z for exact y and z, without forming either:
    y = u z for u = y / z at the first nonzero entry of z, and then
    u a = b."""
    if a.is_zero() or y.is_zero():
        return b.is_zero() or z.is_zero()
    if b.is_zero() or z.is_zero():
        return False
    p = next(p for p, v in enumerate(zip(z.re.flat, z.im.flat)) if any(v))
    u = (QQi(y.re.flat[p], y.im.flat[p]) * z.den
         / (QQi(z.re.flat[p], z.im.flat[p]) * y.den))
    return z.scale(u).equals(y) and a.scale(u).equals(b)


def _gaussian_matmul(ar: np.ndarray, ai: np.ndarray, br: np.ndarray,
                     bi: np.ndarray, mul: Callable = np.matmul
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The product ``mul`` (a matmul, or :func:`_kron`) of ar + i*ai and
    br + i*bi as its real and imaginary parts; the products of an imaginary
    part that is zero are skipped."""
    a_im, b_im = ai.any(), bi.any()
    re = mul(ar, br) - mul(ai, bi) if a_im and b_im else mul(ar, br)
    im = np.zeros(re.shape, dtype=object)
    if b_im:
        im = im + mul(ar, bi)
    if a_im:
        im = im + mul(ai, br)
    return re, im


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two 2-d arrays as one broadcast product,
    without numpy's shape handling (which dominates on small object
    arrays)."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


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

    def nullspace(self) -> list[Matrix]:
        """Basis of the solution space as exact 1 x ncols rows, one per free
        column f: 1 at f and -x_f / x_c at the pivot column c of each pivot
        row x."""
        basis = []
        for f in range(self.ncols):
            if f in self.rows:
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
    """:meth:`_Rref.nullspace` of Gaussian-integer rows ``col -> (re, im)``,
    zero entries and empty rows allowed."""
    return _Rref(ncols, rows).nullspace()


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


def nullspace_float(a: np.ndarray, ncols: int) -> np.ndarray:
    """Columns spanning the null space of ``a``: an array of shape
    ``(*, ncols)``, or a list of equally shaped such blocks, stacked."""
    m = np.asarray(a, dtype=complex).reshape(-1, ncols)
    if m.shape[0] == 0 or not np.any(np.abs(m) > 0):
        return np.eye(ncols, dtype=complex)
    _, s, vh = np.linalg.svd(m)
    rank = int((s > _rank_cutoff(s)).sum())
    return vh[rank:].conj().T


def nullspace(eqs: Sequence[Matrix], ncols: int) -> list[Matrix]:
    """Basis of the common null space of the matrices ``eqs``, each with
    ``ncols`` columns, as 1 x ncols rows: :func:`nullspace_exact` of their
    rows when every one is exact, else :func:`nullspace_float`."""
    if all(m.exact for m in eqs):
        return nullspace_exact([row for m in eqs for row in map(
            _sparse_row, m.re.tolist(), m.im.tolist())], ncols)
    return [Matrix.from_array(v[None]) for v in nullspace_float(
        [m.as_complex() for m in eqs], ncols).T]


def row_basis(grams: Sequence[Matrix], n: int) -> list[Matrix]:
    """A basis of the span of the n x n ``grams``, each normalized so its
    first nonzero entry in row-major order is 1.  When every gram is exact,
    the rows of their reduced row echelon form (:class:`_Rref`), unique
    whatever the spanning grams; else the rows of the SVD's row space above
    the float rank rule, each divided by its first entry above the
    cutoff."""
    if all(g.exact for g in grams):
        rref = _Rref(n * n, (_sparse_row(g.re.flat, g.im.flat) for g in grams))
        return [_normalized(row, c, n) for c, row in sorted(rref.rows.items())]
    rows = np.array([g.as_complex().ravel() for g in grams])
    if not np.any(np.abs(rows) > FLOAT_TOL):
        return []
    _, s, vh = np.linalg.svd(rows)
    cutoff = _rank_cutoff(s)
    out = []
    for row in vh[:int((s > cutoff).sum())]:
        idx = next(i for i, v in enumerate(row) if abs(v) > cutoff)
        out.append(Matrix.from_array((row / row[idx]).reshape(n, n)))
    return out
