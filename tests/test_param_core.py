"""Tests for labels, segments, parameters, and the duality calculus."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from periodlab import (
    CuspidalLabel,
    Segment,
    SelfDualityType,
    WDParameter,
    builtin_catalog,
    is_tempered,
    labels_equal,
    multiplicities,
    segment_self_duality,
    segments_equivalent,
    sl2_duality_sign,
)
from periodlab.errors import CatalogMismatchError, ConsistencyError
from periodlab.notation import print_segment

CAT = builtin_catalog()


def seg(name, k=1, twist=0):
    return Segment(CAT.label(name), k, Fraction(twist))


# -- labels ------------------------------------------------------------


def test_label_defaults_self_dual():
    lab = CuspidalLabel("tau", 2, SelfDualityType.SYMPLECTIC)
    assert lab.dual_name == "tau"
    assert lab.is_self_dual
    assert lab.unitary


def test_label_rejects_bad_names_and_dims():
    with pytest.raises(ConsistencyError):
        CuspidalLabel("2tau", 1, SelfDualityType.ORTHOGONAL)
    with pytest.raises(ConsistencyError):
        CuspidalLabel("St", 1, SelfDualityType.ORTHOGONAL)
    with pytest.raises(ConsistencyError):
        CuspidalLabel("tau", 0, SelfDualityType.ORTHOGONAL)


def test_label_symplectic_needs_even_dim():
    with pytest.raises(ConsistencyError):
        CuspidalLabel("tau", 3, SelfDualityType.SYMPLECTIC)


def test_label_duality_declarations_must_be_coherent():
    with pytest.raises(ConsistencyError):
        CuspidalLabel("tau", 1, SelfDualityType.NOT_SELF_DUAL)
    with pytest.raises(ConsistencyError):
        CuspidalLabel("tau", 1, SelfDualityType.ORTHOGONAL, dual_name="other")
    lab = CuspidalLabel("tau", 1, SelfDualityType.NOT_SELF_DUAL,
                        dual_name="taubar")
    assert not lab.is_self_dual


def test_labels_equal_flags_name_collisions():
    a = CuspidalLabel("tau", 2, SelfDualityType.SYMPLECTIC)
    b = CuspidalLabel("tau", 2, SelfDualityType.ORTHOGONAL)
    assert labels_equal(a, a)
    assert not labels_equal(a, CAT.label("q8"))
    with pytest.raises(CatalogMismatchError):
        labels_equal(a, b)


def test_sign_round_trip():
    for t in SelfDualityType:
        assert SelfDualityType.from_sign(t.sign) is t
    with pytest.raises(ValueError):
        SelfDualityType.from_sign(2)


# -- segments and parameters --------------------------------------------


def test_segment_dim_and_twist_coercion():
    s = Segment(CAT.label("q8"), 3, Fraction(1, 2))
    assert s.dim == 6
    assert s.twist == Fraction(1, 2)
    assert Segment(CAT.label("q8"), 2, 1).twist == Fraction(1)


def test_segment_rejects_float_twists_and_bad_k():
    with pytest.raises(TypeError):
        Segment(CAT.label("q8"), 1, 0.5)
    with pytest.raises(ValueError):
        Segment(CAT.label("q8"), 0)


def test_parameter_canonical_order():
    p = WDParameter.of([seg("q8", 3), seg("trivial"), seg("q8b")])
    names = [(s.cuspidal.name, s.k) for s in p.segments]
    assert names == [("trivial", 1), ("q8b", 1), ("q8", 3)]
    assert p.dim == 9


def test_parameter_order_breaks_ties_by_twist():
    p = WDParameter.of([seg("chi3", 1, Fraction(1, 2)),
                        seg("chi3", 1, Fraction(-1, 2))])
    assert [s.twist for s in p.segments] == [Fraction(-1, 2), Fraction(1, 2)]


def test_segments_equivalent():
    assert segments_equivalent(seg("q8", 2), seg("q8", 2))
    assert not segments_equivalent(seg("q8", 2), seg("q8", 3))
    assert not segments_equivalent(seg("q8", 2), seg("q8", 2, Fraction(1)))
    assert not segments_equivalent(seg("q8", 2), seg("q8b", 2))


# -- duality -------------------------------------------------------------


def test_sl2_duality_sign_alternates():
    assert [sl2_duality_sign(k) for k in range(1, 7)] == [1, -1, 1, -1, 1, -1]


def test_segment_self_duality_table():
    sd = SelfDualityType
    cases = [
        ("q8", 1, sd.SYMPLECTIC),    # symplectic x odd-k symmetric
        ("q8", 2, sd.ORTHOGONAL),    # symplectic x even-k skew
        ("trivial", 1, sd.ORTHOGONAL),
        ("trivial", 2, sd.SYMPLECTIC),
        ("s3", 3, sd.ORTHOGONAL),
        ("s3", 4, sd.SYMPLECTIC),
        ("chi3", 1, sd.NOT_SELF_DUAL),
        ("chi3", 2, sd.NOT_SELF_DUAL),
    ]
    for name, k, want in cases:
        assert segment_self_duality(seg(name, k)) is want, (name, k)


def test_twist_kills_self_duality():
    assert segment_self_duality(
        seg("q8", 1, Fraction(1, 3))) is SelfDualityType.NOT_SELF_DUAL


def test_is_tempered():
    assert is_tempered(WDParameter.of([seg("q8"), seg("s3", 2)]))
    assert not is_tempered(WDParameter.of([seg("q8", 1, Fraction(1, 2))]))
    assert is_tempered(WDParameter.of([]))


# -- multiplicities -------------------------------------------------------


def test_multiplicities_groups_equal_segments():
    p = WDParameter.of([seg("q8"), seg("q8"), seg("q8", 3), seg("trivial", 2)])
    table = {(s.cuspidal.name, s.k): m for s, m in multiplicities(p)}
    assert table == {("q8", 1): 2, ("q8", 3): 1, ("trivial", 2): 1}


def test_multiplicities_separates_twists():
    p = WDParameter.of([seg("q8", 1, Fraction(1, 2)), seg("q8", 1)])
    assert sorted(m for _, m in multiplicities(p)) == [1, 1]


label_names = st.sampled_from(sorted(CAT.entries))


@given(st.lists(
    st.builds(lambda n, k, t: Segment(CAT.label(n), k, t),
              label_names, st.integers(1, 3),
              st.fractions(min_value=-2, max_value=2, max_denominator=2)),
    min_size=0, max_size=5))
def test_parameter_order_is_canonical(segments):
    p = WDParameter.of(segments)
    q = WDParameter.of(reversed(p.segments))
    assert p == q
    assert p.dim == sum(s.dim for s in segments)


# -- facts stored at construction -------------------------------------------


ZERO_TWISTS = [0, "0", Fraction(0)]
nonzero_twists = st.fractions(min_value=-3, max_value=3,
                              max_denominator=4).filter(bool)


@given(label_names, st.integers(1, 24),
       st.one_of(st.sampled_from(ZERO_TWISTS), nonzero_twists))
def test_stored_segment_facts_match_their_definitions(name, k, twist):
    label = CAT.label(name)
    s = Segment(label, k, twist)
    assert s.dim == label.dim * k
    # the sign rule: a twisted segment is not self-dual; an untwisted one
    # has the sign of its label times (-1)^(k+1), that of S(k)'s form
    twist = Fraction(twist)
    sign = 0 if twist else label.sd_type.sign * (-1) ** (k + 1)
    want = {1: SelfDualityType.ORTHOGONAL, -1: SelfDualityType.SYMPLECTIC,
            0: SelfDualityType.NOT_SELF_DUAL}[sign]
    assert s.self_duality is want is segment_self_duality(s)
    # the repr and the printed text show the declared fields only
    assert repr(s) == (f"Segment(cuspidal={label!r}, k={k!r}, "
                       f"twist={s.twist!r})")
    base = name if k == 1 else f"St({k},{name})"
    assert print_segment(s) == (f"{base} * nu^{twist}" if twist else base)
    # dataclasses.replace builds a new segment, whose facts are its own
    for k2 in (k + 1, 2 * k):
        moved = dataclasses.replace(s, k=k2)
        assert moved.dim == label.dim * k2
        assert moved.self_duality is segment_self_duality(
            Segment(label, k2, twist))
    assert dataclasses.replace(s, twist=Fraction(1, 2)).self_duality is (
        SelfDualityType.NOT_SELF_DUAL)


@given(label_names, st.integers(1, 24))
def test_a_zero_twist_is_one_value_whatever_its_form(name, k):
    label = CAT.label(name)
    segments = [Segment(label, k)] + [Segment(label, k, t)
                                      for t in ZERO_TWISTS]
    assert len(set(segments)) == 1
    assert len({hash(s) for s in segments}) == 1
    assert len({repr(s) for s in segments}) == 1
    for s in segments:
        assert s.twist == Fraction(0) and type(s.twist) is int
        assert s == Segment(label, k, Fraction(0))
        assert hash(s) == hash((label, k, Fraction(0))) == hash((label, k, 0))


@given(st.lists(st.builds(lambda n, k: Segment(CAT.label(n), k),
                          label_names, st.integers(1, 24)),
                min_size=0, max_size=4))
def test_parameter_equality_and_hash_ignore_the_stored_dim(segments):
    p, q = WDParameter.of(segments), WDParameter.of(reversed(segments))
    assert p.dim == sum(s.dim for s in segments)
    object.__setattr__(q, "dim", p.dim + 1)
    assert p == q and hash(p) == hash(q)
    assert repr(p) == f"WDParameter(segments={p.segments!r})"
