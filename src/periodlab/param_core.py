"""Symbolic algebra of Weil-Deligne parameters.

A parameter for GL(N) is modeled as a multiset of *segments*
``St(k, rho) * nu^e``: a cuspidal label ``rho`` of dimension ``r``, a
Steinberg length ``k`` (so the segment has dimension ``r*k``), and an exact
rational twist exponent ``e``.  Labels are opaque names decorated with the
data the calculus needs: dimension, self-duality type, the name of the dual
label, a unitarity flag, and an optional pointer to a concrete finite-group
model used by the matrix oracles.

Everything in this module is an immutable value and every operation is a
pure function; no numerics appear here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import CatalogMismatchError, ConsistencyError, quoted

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED_NAMES = frozenset({"St", "nu"})


class SelfDualityType(Enum):
    """Self-duality of an irreducible: orthogonal, symplectic, or neither."""

    NOT_SELF_DUAL = "none"
    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"

    def __init__(self, value: str):
        #: +1 orthogonal, -1 symplectic, 0 not self-dual
        self.sign = {"orthogonal": 1, "symplectic": -1}.get(value, 0)

    @staticmethod
    def from_sign(sign: int) -> "SelfDualityType":
        found = _TYPE_OF_SIGN.get(sign)
        if found is None:
            raise ValueError(
                f"self-duality sign must be -1, 0, or +1, got {sign}")
        return found


_TYPE_OF_SIGN = {t.sign: t for t in SelfDualityType}


@dataclass(frozen=True)
class CuspidalLabel:
    """An abstract irreducible cuspidal parameter of dimension ``dim``.

    ``dual_name`` equals ``name`` exactly when the label is self-dual; for a
    non-self-dual label it must point at a distinct label (resolved through a
    catalog).  ``model`` optionally names a finite-group model usable by the
    matrix oracles.
    """

    name: str
    dim: int
    sd_type: SelfDualityType
    dual_name: str = ""
    unitary: bool = True
    model: str | None = None

    def __post_init__(self):
        name = quoted(self.name, "{}")
        if not _NAME_RE.match(self.name) or self.name in _RESERVED_NAMES:
            raise ConsistencyError(f"invalid label name {quoted(self.name)}")
        if self.dim < 1:
            raise ConsistencyError(f"label {name}: dim must be >= 1")
        if self.sd_type is SelfDualityType.SYMPLECTIC and self.dim % 2:
            raise ConsistencyError(
                f"label {name}: symplectic labels need even dimension, "
                f"got {self.dim}")
        if not self.dual_name:
            if self.sd_type is SelfDualityType.NOT_SELF_DUAL:
                raise ConsistencyError(
                    f"label {name}: non-self-dual labels need a dual name")
            object.__setattr__(self, "dual_name", self.name)
        is_self_dual = self.dual_name == self.name
        if is_self_dual != (self.sd_type is not SelfDualityType.NOT_SELF_DUAL):
            raise ConsistencyError(
                f"label {name}: dual_name must equal name exactly for "
                f"self-dual labels (dual_name={quoted(self.dual_name)}, "
                f"type={self.sd_type.value})")

    @property
    def is_self_dual(self) -> bool:
        return self.sd_type is not SelfDualityType.NOT_SELF_DUAL


def labels_equal(a: CuspidalLabel, b: CuspidalLabel) -> bool:
    """Label equality by name; name collisions with different data are errors.

    Labels live inside one catalog at a time, so a shared name with
    conflicting fields means two catalogs were mixed; that is reported
    rather than treated as inequality.
    """
    if a.name != b.name:
        return False
    if a != b:
        raise CatalogMismatchError(
            f"label {a.name!r} occurs with conflicting declarations "
            f"({a} vs {b}); labels from different catalogs cannot be compared")
    return True


@dataclass(frozen=True)
class Segment:
    """One block ``St(k, rho) * nu^twist`` of dimension ``rho.dim * k``.

    A zero twist is stored as the int 0, which equals and hashes like
    ``Fraction(0)`` but tests and hashes without a Python-level call.
    ``dim`` and ``self_duality`` (:func:`segment_self_duality`) are computed
    once, here; they take no part in equality, hashing or the repr.
    """

    cuspidal: CuspidalLabel
    k: int
    twist: Fraction | int = 0
    dim: int = field(init=False, repr=False, compare=False)
    self_duality: SelfDualityType = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"Steinberg length must be >= 1, got {self.k}")
        if self.twist.__class__ is not int or self.twist:
            if isinstance(self.twist, float):
                raise TypeError("twists must be exact rationals, not floats")
            object.__setattr__(self, "twist", Fraction(self.twist) or 0)
        object.__setattr__(self, "dim", self.cuspidal.dim * self.k)
        object.__setattr__(self, "self_duality", segment_self_duality(self))


def _segment_sort_key(s: Segment):
    return (s.dim, s.k, s.cuspidal.name, s.twist)


@dataclass(frozen=True)
class WDParameter:
    """A multiset of segments; stored in canonical order.

    Canonical order is by (dimension, k, label name, twist) so that printing
    is deterministic; no predicate depends on the order.  ``dim`` is
    computed once, here, and takes no part in equality or hashing.
    """

    segments: tuple[Segment, ...]
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segments = tuple(sorted(self.segments, key=_segment_sort_key))
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "dim", sum(s.dim for s in segments))

    @staticmethod
    def of(segments: Iterable[Segment]) -> "WDParameter":
        return WDParameter(tuple(segments))


# ---------------------------------------------------------------------------
# operations


def segments_equivalent(s1: Segment, s2: Segment) -> bool:
    """True iff the labels are equal and k and twist agree."""
    return (s1.k == s2.k and s1.twist == s2.twist
            and labels_equal(s1.cuspidal, s2.cuspidal))


def sl2_duality_sign(k: int) -> int:
    """Sign of the invariant form on the k-dimensional SL(2) irreducible.

    +1 (symmetric / orthogonal) for k odd, -1 (skew / symplectic) for k even.
    """
    return 1 if k % 2 else -1


def segment_self_duality(s: Segment) -> SelfDualityType:
    """Self-duality type of a segment.

    A nonzero twist makes the segment non-self-dual (``nu^e rho`` is dual to
    ``nu^-e rho``, and these differ for e != 0 when ``rho`` is unitary); for
    twist zero the type multiplies: sign(label) * sign(k-dimensional SL(2)
    factor), a label that is not self-dual having sign 0.  Each
    :class:`Segment` calls this once, when it is built, and stores the
    result as ``self_duality``.
    """
    if s.twist:
        return SelfDualityType.NOT_SELF_DUAL
    return SelfDualityType.from_sign(
        s.cuspidal.sd_type.sign * sl2_duality_sign(s.k))


def is_tempered(p: WDParameter) -> bool:
    """True iff every segment has twist zero and a unitary label."""
    return all(not s.twist and s.cuspidal.unitary for s in p.segments)


def multiplicities(p: WDParameter) -> list[tuple[Segment, int]]:
    """Distinct segments of ``p`` with multiplicities, in canonical order:
    that of their first occurrence in ``p.segments``.

    Grouping is by (name, k, twist), a zero twist being the int 0 that
    :class:`Segment` stores; conflicting label data behind one name raises,
    via :func:`labels_equal`.
    """
    groups: dict[tuple, list[Segment]] = {}
    for s in p.segments:
        groups.setdefault((s.cuspidal.name, s.k, s.twist), []).append(s)
    out = []
    for members in groups.values():
        rep = members[0]
        for other in members[1:]:
            labels_equal(rep.cuspidal, other.cuspidal)
        out.append((rep, len(members)))
    return out
