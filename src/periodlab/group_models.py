"""Finite-group stand-ins for cuspidal labels, and the catalog of them.

Every label with a model is backed by a concrete finite group given as
explicit matrices with a multiplication table read off the closure of its
generators (n * |gens| products, not n^2), and each model carries its
generators' identity flags, built once.  A model is certified a
homomorphism on the group's generators: rho(1) = I and
rho(x) rho(g) = rho(xg) for every element x and generator g, which covers
every pair by induction on word length; no check is sampled.  It is then
certified irreducible by its character: <chi, chi> = 1 (Serre, *Linear
Representations of Finite Groups*, section 2.3, theorem 5), exactly on an
exact model.  This module holds no oracle code: the isotropy stage,
commutant and centralizer dimensions included, lives in ``matrix_lab``,
which interns a model's generators as its factors, so groups, models and
the catalog are built without loading it.  The symmetric powers of the
binary icosahedral group 2I (``sl2_surrogate``) are a finite stand-in for
S(k), irreducible exactly for k <= 6 (``SL2_SURROGATE_BOUND``);
``sym_power`` gives the images of 2I's two generators, and every other
element's is walked along the group table.  The oracle does not use them.

Built-in labels: ``trivial`` (dim 1, orthogonal), the dual character pair
``chi3``/``chi3bar`` on a shared cyclic group (dim 1, not self-dual), the
two-dimensional standard representations ``s3`` and ``d4`` (orthogonal), and
two independent quaternion models ``q8`` and ``q8b`` (symplectic).  The two
quaternion labels live on *separate* group copies so their realizations are
inequivalent, as two distinct cuspidals must be.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb, pi, sqrt
from typing import Sequence

from .errors import (
    CatalogError,
    ConsistencyError,
    MissingModelError,
    NonIntegralIndicatorError,
    ShapeMismatchError,
    SurrogateBoundExceededError,
    quoted,
)
from .exactnum import I as QI
from .exactnum import ZERO, QQi
from .linalg import FLOAT_TOL, Matrix, follows_table
from .param_core import CuspidalLabel, SelfDualityType

SL2_SURROGATE_BOUND = 6


# ---------------------------------------------------------------------------
# finite groups


@dataclass(eq=False)
class FiniteGroup:
    """A finite matrix group with its multiplication table.

    ``elements[0]`` is the identity; ``table[i][j]`` is the index of
    ``elements[i] @ elements[j]``, read off the closure's products with the
    generators, whose indices are ``generator_idxs``.  Identity of the group
    *object* matters: two labels share oracle factors exactly when they
    share the group object.
    """

    name: str
    elements: tuple[Matrix, ...]
    table: tuple[tuple[int, ...], ...]
    inverse_idx: tuple[int, ...]
    square_idx: tuple[int, ...]
    generator_idxs: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _element_key(m: Matrix) -> tuple:
    """:attr:`Matrix.key`, on the float path of the entries rounded."""
    return (m if m.exact else m.rounded(6)).key


def _generate_elements(name: str, generators: Sequence[Matrix]
                       ) -> tuple[list[Matrix], list[list[int]],
                                  list[tuple[int, int]]]:
    """BFS closure of a generating set, identity first, of at most 1000
    elements.

    Returns the elements; ``right[i][g]``, the index of
    ``elements[i] @ generators[g]``; and, for every element j > 0 in order,
    ``(p, g)`` with ``elements[j] = elements[p] @ generators[g]`` and p < j.
    The identity, and so every element, is exact when every generator is.
    """
    dim = generators[0].rows if generators else 1
    elements = [Matrix.identity(dim, all(g.exact for g in generators))]
    keys = {_element_key(elements[0]): 0}
    right: list[list[int]] = []
    parents: list[tuple[int, int]] = []
    # the loop also visits the elements it appends, in order: a BFS queue
    for i, m in enumerate(elements):
        row = []
        for g, gen in enumerate(generators):
            prod = m @ gen
            j = keys.setdefault(_element_key(prod), len(elements))
            if j == len(elements):
                elements.append(prod)
                parents.append((i, g))
                if len(elements) > 1000:
                    raise ConsistencyError(
                        f"group {name} exceeded closure limit 1000")
            row.append(j)
        right.append(row)
    return elements, right, parents


def _build_group(name: str, generators: Sequence[Matrix]) -> FiniteGroup:
    elements, right, parents = _generate_elements(name, generators)
    # e_i e_j = (e_i e_p) g for e_j = e_p g: each column is an earlier one
    # sent through a generator's right action, by induction on word length
    columns = [range(len(elements))]
    for p, g in parents:
        columns.append([right[i][g] for i in columns[p]])
    table = tuple(zip(*columns))
    if any(row.count(0) != 1 for row in table):
        raise ConsistencyError(f"group {name}: bad inverse structure")
    return FiniteGroup(name, tuple(elements), table,
                       tuple(row.index(0) for row in table),
                       tuple(row[i] for i, row in enumerate(table)),
                       tuple(right[0]))


# ---------------------------------------------------------------------------
# irreducible models


@dataclass(eq=False)
class IrrepModel:
    """An irreducible matrix representation of a finite group.

    ``matrices`` is indexed like ``group.elements``, and ``exact`` says
    whether every one of them is; ``character`` holds the traces as
    complex floats regardless of the arithmetic path.  Per generator of
    the group (``group.generator_idxs``), ``is_identity`` says whether its
    matrix is the identity, built once, here.
    """

    name: str
    group: FiniteGroup
    dim: int
    matrices: tuple[Matrix, ...]
    character: tuple[complex, ...]
    exact: bool
    is_identity: tuple[bool, ...]


def _make_model(name: str, group: FiniteGroup,
                matrices: Sequence[Matrix]) -> IrrepModel:
    if len(matrices) != group.order:
        raise ConsistencyError(f"model {name}: need one matrix per element")
    dim, exact = matrices[0].rows, all(m.exact for m in matrices)
    traces = [m.trace() for m in matrices]
    character = tuple(map(complex, traces))
    # the homomorphism certificate of the module docstring, nothing sampled
    gen_idxs = group.generator_idxs
    if not (follows_table(matrices, group.table, gen_idxs)
            and matrices[0].is_identity()):
        raise ConsistencyError(
            f"model {name}: matrices do not respect the group table")
    # then the character certificate: irreducible iff <chi, chi> = 1,
    # exactly on QQi traces, else within FLOAT_TOL as in fs_indicator
    norm = sum(t * t.conjugate() for t in (traces if exact else character)
               ) / group.order
    if not (norm == 1 if exact else abs(norm - 1) <= FLOAT_TOL):
        raise ConsistencyError(f"model {name} is not irreducible")
    return IrrepModel(name, group, dim, tuple(matrices), character, exact,
                      tuple(matrices[i].is_identity() for i in gen_idxs))


def fs_indicator(model: IrrepModel) -> int:
    """Frobenius-Schur indicator: (1/|G|) sum of chi(g^2), rounded.

    +1 for orthogonal, -1 for symplectic, 0 for non-self-dual irreducibles;
    a rounding gap above ``FLOAT_TOL`` raises.
    """
    chi, group = model.character, model.group
    total = sum(chi[i] for i in group.square_idx) / group.order
    nearest = round(total.real)
    if abs(total - nearest) > FLOAT_TOL:
        raise NonIntegralIndicatorError(
            f"indicator of {model.name} is {total}, not near an integer")
    return int(nearest)


# ---------------------------------------------------------------------------
# built-in groups and models


def _trivial_group() -> FiniteGroup:
    return _build_group("trivial", [])


def _cyclic3_group() -> FiniteGroup:
    omega = cmath.exp(2j * pi / 3)
    gen = Matrix.from_rows([[omega]], exact=False)
    return _build_group("c3", [gen])


def _s3_group() -> FiniteGroup:
    r = Matrix.from_rows([[0, -1], [1, -1]])
    s = Matrix.from_rows([[0, 1], [1, 0]])
    return _build_group("s3", [r, s])


def _d4_group() -> FiniteGroup:
    r = Matrix.from_rows([[0, -1], [1, 0]])
    s = Matrix.from_rows([[1, 0], [0, -1]])
    return _build_group("d4", [r, s])


def _q8_group(name: str) -> FiniteGroup:
    i_mat = Matrix.from_rows([[QI, QQi(0)], [QQi(0), -QI]])
    j_mat = Matrix.from_rows([[0, 1], [-1, 0]])
    return _build_group(name, [i_mat, j_mat])


def _spin_matrix(q: tuple[float, float, float, float]) -> Matrix:
    w, x, y, z = q
    return Matrix.from_rows(
        [[w + x * 1j, y + z * 1j], [-y + z * 1j, w - x * 1j]], exact=False)


@cache
def _icosian_group() -> FiniteGroup:
    """The binary icosahedral group 2I as 120 unit-quaternion spin matrices."""
    phi = (1 + sqrt(5)) / 2
    g1 = _spin_matrix((0.5, 0.5, 0.5, 0.5))
    g2 = _spin_matrix((phi / 2, 1 / (2 * phi), 0.5, 0.0))
    group = _build_group("icosian", [g1, g2])
    if group.order != 120:
        raise ConsistencyError(
            f"binary icosahedral construction gave order {group.order}")
    return group


@lru_cache(maxsize=None)
def sl2_surrogate(k: int) -> IrrepModel:
    """Sym^{k-1} of the spin model: the finite stand-in for S(k).

    Valid for 1 <= k <= ``SL2_SURROGATE_BOUND``; beyond that the power is no
    longer irreducible on 2I and the request is refused.
    """
    if k < 1 or k > SL2_SURROGATE_BOUND:
        raise SurrogateBoundExceededError(
            f"SL(2) surrogate supports 1 <= k <= {SL2_SURROGATE_BOUND}, "
            f"got {k}")
    group = _icosian_group()
    gens = [sym_power(group.elements[i], k) for i in group.generator_idxs]
    return _make_model(f"spin_sym{k - 1}", group, _walk_table(group, gens))


def _walk_table(group: FiniteGroup, images: Sequence[Matrix]) -> list[Matrix]:
    """The image of every element of ``group``, from the float ``images``
    of its generators: the identity, and then each element as its parent's
    image times a generator's, met along ``group.table`` in the order the
    closure found it.  :func:`_make_model` then checks every relation."""
    mats = [Matrix.identity(images[0].rows, exact=False)]
    mats += [None] * (group.order - 1)
    for i, row in enumerate(group.table):
        for g, image in zip(group.generator_idxs, images):
            if mats[row[g]] is None:
                mats[row[g]] = mats[i] @ image
    return mats


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


@cache
def _builtin_model_table() -> dict[str, IrrepModel]:
    triv_group = _trivial_group()
    c3 = _cyclic3_group()
    s3 = _s3_group()
    d4 = _d4_group()
    q8a = _q8_group("q8")
    q8b = _q8_group("q8b")
    return {
        "trivial": _make_model("trivial", triv_group, triv_group.elements),
        "chi3": _make_model("chi3", c3, c3.elements),
        "chi3bar": _make_model("chi3bar", c3,
                               [m.conj() for m in c3.elements]),
        "s3": _make_model("s3", s3, s3.elements),
        "d4": _make_model("d4", d4, d4.elements),
        "q8": _make_model("q8", q8a, q8a.elements),
        "q8b": _make_model("q8b", q8b, q8b.elements),
    }


def builtin_models() -> dict[str, IrrepModel]:
    """The registry of model ids usable in catalog files."""
    return dict(_builtin_model_table())


# ---------------------------------------------------------------------------
# catalogs


@dataclass(frozen=True)
class CatalogEntry:
    label: CuspidalLabel
    model: IrrepModel | None


@dataclass(frozen=True)
class Catalog:
    """Named cuspidal labels with optional matrix models."""

    entries: dict[str, CatalogEntry]

    def label(self, name: str) -> CuspidalLabel:
        entry = self.entries.get(name)
        if entry is None:
            raise CatalogError(f"unknown cuspidal label {quoted(name)}")
        return entry.label

    def model_for(self, label: CuspidalLabel) -> IrrepModel:
        entry = self.entries.get(label.name)
        if entry is None:
            raise CatalogError(
                f"unknown cuspidal label {quoted(label.name)}")
        if entry.label is not label and entry.label != label:
            raise CatalogError(f"label {quoted(label.name)} does not match "
                               f"this catalog's entry")
        if entry.model is None:
            raise MissingModelError(
                f"label {quoted(label.name)} has no finite-group model")
        return entry.model

    def labels(self) -> list[CuspidalLabel]:
        return [e.label for e in self.entries.values()]

    def validate(self) -> None:
        """Check duality mutuality and model consistency, dual labels
        agreeing in dimension, self-duality and unitarity and their models
        being contragredient (one group object, and characters complex
        conjugate under the float rule of :meth:`Matrix.equals`); raise on
        failure."""
        seen_models: dict[int, str] = {}
        for name, entry in self.entries.items():
            label = entry.label
            if label.name != name:
                raise ConsistencyError(f"entry key {quoted(name)} does not "
                                       f"match label {quoted(label.name)}")
            dual_entry = self.entries.get(label.dual_name)
            if dual_entry is None:
                raise ConsistencyError(
                    f"label {quoted(name)} declares unknown dual "
                    f"{quoted(label.dual_name)}")
            dual = dual_entry.label
            if dual.dual_name != name:
                raise ConsistencyError(
                    f"labels {quoted(name)} and {quoted(dual.name)} are not "
                    f"mutually dual")
            if dual.dim != label.dim:
                raise ConsistencyError(
                    f"dual labels {quoted(name)}/{quoted(dual.name)} differ "
                    f"in dimension")
            if (label.sd_type is SelfDualityType.NOT_SELF_DUAL) != (
                    dual.sd_type is SelfDualityType.NOT_SELF_DUAL):
                raise ConsistencyError(
                    f"dual labels {quoted(name)}/{quoted(dual.name)} disagree "
                    f"about self-duality")
            if label.unitary != dual.unitary:
                raise ConsistencyError(
                    f"dual labels {quoted(name)}/{quoted(dual.name)} disagree "
                    f"about unitarity")
            model, dual_model = entry.model, dual_entry.model
            chis = [Matrix.from_rows([m.character], exact=False)
                    for m in (model, dual_model) if m is not None]
            if len(chis) == 2 and not (model.group is dual_model.group
                                       and chis[0].equals(chis[1].conj())):
                raise ConsistencyError(
                    f"dual labels {quoted(name)}/{quoted(dual.name)}: their "
                    f"models are not contragredient representations of one "
                    f"group")
            if entry.model is not None:
                if entry.model.dim != label.dim:
                    raise ConsistencyError(
                        f"label {quoted(name)} has dim {label.dim} but its "
                        f"model has dim {entry.model.dim}")
                indicator = fs_indicator(entry.model)
                if indicator != label.sd_type.sign:
                    raise ConsistencyError(
                        f"label {quoted(name)}: declared type "
                        f"{label.sd_type.value} (sign {label.sd_type.sign}) "
                        f"but the model indicator is {indicator}")
                owner = seen_models.get(id(entry.model))
                if owner is not None:
                    raise ConsistencyError(
                        f"labels {quoted(owner)} and {quoted(name)} share one "
                        f"model; distinct labels need distinct models")
                seen_models[id(entry.model)] = name


@cache
def builtin_catalog() -> Catalog:
    """The built-in catalog; validated once and cached."""
    models = _builtin_model_table()
    sd = SelfDualityType
    labels = [
        CuspidalLabel("trivial", 1, sd.ORTHOGONAL, model="trivial"),
        CuspidalLabel("chi3", 1, sd.NOT_SELF_DUAL, dual_name="chi3bar",
                      model="chi3"),
        CuspidalLabel("chi3bar", 1, sd.NOT_SELF_DUAL, dual_name="chi3",
                      model="chi3bar"),
        CuspidalLabel("s3", 2, sd.ORTHOGONAL, model="s3"),
        CuspidalLabel("d4", 2, sd.ORTHOGONAL, model="d4"),
        CuspidalLabel("q8", 2, sd.SYMPLECTIC, model="q8"),
        CuspidalLabel("q8b", 2, sd.SYMPLECTIC, model="q8b"),
    ]
    entries = {
        label.name: CatalogEntry(label, models[label.model])
        for label in labels
    }
    catalog = Catalog(entries)
    catalog.validate()
    return catalog


def __getattr__(name: str):
    """The two oracle functions ``periodbench/tracing.py`` still looks up
    here, forwarded to ``matrix_lab``, so the tracer patches their real
    bindings.  ROADMAP item 1a, which retraces the oracle's layers, deletes
    this forward."""
    if name in ("commutant_dimension", "invariant_isotropic_exists"):
        from . import matrix_lab
        return getattr(matrix_lab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
