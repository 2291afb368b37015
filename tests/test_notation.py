"""Tests for the expression grammar, printer, and catalog file loader."""

import ast
import re
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodlab import (
    Segment,
    SelfDualityType,
    WDParameter,
    builtin_catalog,
    load_catalog,
    parse_param,
    print_param,
)
from periodlab.errors import (
    CatalogError,
    ConsistencyError,
    ParseError,
    SourceSpan,
)

CAT = builtin_catalog()


def seg(name, k=1, twist=0):
    return Segment(CAT.label(name), k, Fraction(twist))


def roundtrip(text):
    return print_param(parse_param(text, CAT))


# -- parsing ------------------------------------------------------------------


def test_parse_bare_label_is_length_one():
    p = parse_param("q8", CAT)
    assert p == WDParameter.of([seg("q8")])


def test_parse_segment_with_twist():
    p = parse_param("St(3,q8) * nu^-1/2", CAT)
    (s,) = p.segments
    assert s.k == 3
    assert s.twist == Fraction(-1, 2)


def test_parse_sum_and_whitespace_insensitivity():
    a = parse_param("q8(+)St(2,trivial)", CAT)
    b = parse_param("  q8  (+)  St( 2 , trivial )  ", CAT)
    assert a == b
    assert a.dim == 4


def test_parse_zero_is_empty_parameter():
    p = parse_param("0", CAT)
    assert p.segments == ()
    assert print_param(p) == "0"


def test_parse_twist_forms():
    assert parse_param("q8 * nu^2", CAT).segments[0].twist == 2
    assert parse_param("q8 * nu^+1/3", CAT).segments[0].twist == Fraction(1, 3)
    assert parse_param("q8 * nu^-4", CAT).segments[0].twist == -4


def test_print_canonical_order():
    p = parse_param("St(3,q8) (+) q8b", CAT)
    assert print_param(p) == "q8b (+) St(3,q8)"


def test_print_twists_as_fractions():
    p = WDParameter.of([seg("q8", 2, Fraction(-3, 2))])
    assert print_param(p) == "St(2,q8) * nu^-3/2"


ROUND_TRIP_CORPUS = [
    "0",
    "q8",
    "trivial",
    "St(2,trivial)",
    "St(3,q8)",
    "q8 * nu^1/2",
    "St(2,s3) * nu^-5/3",
    "q8 (+) q8b",
    "q8b (+) St(3,q8)",
    "chi3 (+) chi3bar",
    "chi3 * nu^1/2 (+) chi3bar * nu^1/2",
    "trivial (+) St(2,trivial) (+) St(3,trivial)",
    "s3 (+) d4",
    "St(2,d4) (+) St(2,s3)",
    "q8 (+) q8 (+) q8",
    "St(4,trivial) * nu^7",
    "chi3bar * nu^-2 (+) St(2,chi3)",
    "St(2,q8) (+) St(2,q8b)",
    "trivial * nu^1/3 (+) trivial * nu^2/3",
    "St(6,trivial) (+) St(1,q8)".replace("St(1,q8)", "q8"),
    "St(8,trivial)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_round_trip_corpus(text):
    assert roundtrip(text) == roundtrip(roundtrip(text))
    assert parse_param(roundtrip(text), CAT) == parse_param(text, CAT)


label_names = st.sampled_from(sorted(CAT.entries))
segments = st.builds(
    lambda n, k, t: Segment(CAT.label(n), k, t),
    label_names, st.integers(1, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=6))


@given(st.lists(segments, min_size=0, max_size=5))
def test_print_parse_round_trip(segs):
    p = WDParameter.of(segs)
    assert parse_param(print_param(p), CAT) == p


# -- parse errors ----------------------------------------------------------------


# (text, message fragment, (line, column, span length))
MALFORMED = [
    ("St(2 q8)", "expected ','", (1, 6, 2)),
    ("St(3,q8", "expected ')'", (1, 7, 1)),
    ("St(,q8)", "block length", (1, 4, 1)),
    ("q8 (+)", "expected a segment", (1, 6, 1)),
    ("q8 * nu^1/0", "zero denominator", (1, 11, 1)),
    ("q8 @", "unexpected character", (1, 4, 1)),
    ("q8 q8", "trailing", (1, 4, 2)),
    ("q8 * mu^1", "expected 'nu'", (1, 6, 2)),
    # the end of input sits on the last column, after trailing whitespace
    ("q8 (+)   ", "got end of input", (1, 9, 1)),
    ("St(3,q8\n", "got end of input", (2, 1, 1)),
    ("St(3,q8\n  ", "got end of input", (2, 2, 1)),
    # a tab and a carriage return each take one column
    ("q8\t@", "unexpected character", (1, 4, 1)),
    ("St(2,\tq8 q8)", "expected ')'", (1, 10, 2)),
    ("q8\r(+)\r@", "unexpected character", (1, 8, 1)),
    ("q8 (+)\r\n  St(2 q8)", "expected ','", (2, 8, 2)),
    # a bad character is reported ahead of an earlier parse error
    ("q8 q8 @", "unexpected character '@'", (1, 7, 1)),
    # a word starts with a letter or '_'
    ("\u00b2x", "unexpected character '\u00b2'", (1, 1, 1)),
    ("q8 (+) St(3,q8) * nu^1/2 chi3bar", "trailing input 'chi3bar'",
     (1, 26, 7)),
    pytest.param("St(" + "2" * 4301 + ",q8)",
                 "block length of 4301 digits is too long", (1, 4, 4301),
                 id="4301-digits"),
]


@pytest.mark.parametrize("text,fragment,where", MALFORMED)
def test_parse_errors_carry_spans(text, fragment, where):
    with pytest.raises(ParseError) as info:
        parse_param(text, CAT)
    err = info.value
    assert fragment in str(err)
    assert err.span == SourceSpan(*where)


# grammar fragments, stray characters and whitespace runs
_FRAGMENTS = ["St", "St(", "(", ")", ",", "(+)", "*", "nu", "^", "/", "+",
              "-", "0", "1", "12", "q8", "q8b", "chi3", "trivial", "mu",
              "zzz", "_", "x" * 45, "\u00b2", "\u0663", "\xa0", "@"]
_SPACE = st.text(alphabet=" \t\r\n", max_size=3)
_NAMED = re.compile(r"(?:got|input|character|label) ('.*'|\".*\")"
                    r"(?: \((\d+) characters\))?$")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SPACE, st.sampled_from(_FRAGMENTS)), max_size=12),
       _SPACE)
def test_an_error_points_at_the_token_it_names(parts, tail):
    text = "".join(space + fragment for space, fragment in parts) + tail
    try:
        parse_param(text, CAT)
        return
    except ParseError as exc:
        line, column, length = exc.line, exc.column, exc.length
        message = str(exc).split(": ", 1)[1]
    except CatalogError as exc:
        where, message = str(exc).split(": ", 1)
        line, column = map(int, where.split(":"))
        length = None
    lines = text.split("\n")
    if message.endswith("got end of input"):
        assert (line, column) == (len(lines), max(1, len(lines[-1])))
        return
    named = _NAMED.search(message)
    if named is None:  # names no token: "block length", "zero denominator"
        return
    token = ast.literal_eval(named.group(1))
    if named.group(2):  # cut to 40 characters and "..."
        token, size = token[:-3], int(named.group(2))
    else:
        size = len(token)
    assert lines[line - 1][column - 1:].startswith(token)
    if length is not None:
        unexpected = message.startswith("unexpected character")
        assert length == (1 if unexpected else size)


def test_parse_error_spans_track_lines():
    with pytest.raises(ParseError) as info:
        parse_param("q8 (+)\n  St(2 q8)", CAT)
    assert (info.value.line, info.value.column) == (2, 8)


def test_unknown_label_is_a_catalog_error_with_span():
    with pytest.raises(CatalogError) as info:
        parse_param("St(2,zzz)", CAT)
    assert "1:6" in str(info.value)
    assert "zzz" in str(info.value)


def test_zero_block_length_rejected():
    with pytest.raises(ParseError):
        parse_param("St(0,q8)", CAT)


# -- catalog files ----------------------------------------------------------------


GOOD_CATALOG = textwrap.dedent("""\
    [cuspidal.tau]
    dim = 2
    type = symplectic
    model = q8

    [cuspidal.one]
    dim = 1
    type = "orthogonal"
    model = trivial
    unitary = yes

    [cuspidal.eta]
    dim = 1
    type = none
    dual = etabar

    [cuspidal.etabar]
    dim = 1
    type = none
    dual = eta
    """)


def test_load_catalog_happy_path():
    cat = load_catalog(GOOD_CATALOG)
    assert sorted(cat.entries) == ["eta", "etabar", "one", "tau"]
    tau = cat.label("tau")
    assert tau.sd_type is SelfDualityType.SYMPLECTIC
    assert cat.model_for(tau).name == "q8"
    assert cat.label("one").unitary
    assert cat.label(cat.label("eta").dual_name).name == "etabar"
    p = parse_param("tau (+) St(2,one)", cat)
    assert p.dim == 4


def test_load_catalog_requires_cuspidal_sections():
    with pytest.raises(ParseError) as info:
        load_catalog("[other]\ndim = 1\n")
    assert "unknown section" in str(info.value)


def test_load_catalog_rejects_unknown_keys_and_missing_keys():
    with pytest.raises(ConsistencyError):
        load_catalog("[cuspidal.x]\ndim = 1\ntype = orthogonal\ncolor = red\n")
    with pytest.raises(ConsistencyError):
        load_catalog("[cuspidal.x]\ndim = 1\n")


def test_load_catalog_rejects_bad_values():
    with pytest.raises(ConsistencyError):
        load_catalog("[cuspidal.x]\ndim = two\ntype = orthogonal\n")
    with pytest.raises(ConsistencyError):
        load_catalog("[cuspidal.x]\ndim = 1\ntype = circular\n")
    with pytest.raises(ConsistencyError):
        load_catalog(
            "[cuspidal.x]\ndim = 1\ntype = orthogonal\nunitary = maybe\n")


@pytest.mark.parametrize("dim", [
    "\u0662",        # Arabic-Indic two, which int() reads as 2
    "1_0", "+2",      # an underscore and a sign, which int() accepts
    "2" * 4301,       # more digits than int() converts
], ids=["arabic-indic", "underscore", "sign", "4301-digits"])
def test_load_catalog_dim_takes_ascii_digits_only(dim):
    # as in expressions, whose grammar reads INT as ASCII digits
    text = f"[cuspidal.x]\ndim = {dim}\ntype = symplectic\nmodel = q8\n"
    with pytest.raises(ConsistencyError, match="dim must be an integer"):
        load_catalog(text)
    assert load_catalog(text.replace(dim, "2")).label("x").dim == 2


def test_load_catalog_rejects_unknown_model_id():
    with pytest.raises(ConsistencyError) as info:
        load_catalog("[cuspidal.x]\ndim = 2\ntype = symplectic\nmodel = zz\n")
    assert "available" in str(info.value)


def test_load_catalog_rejects_indicator_mismatch():
    text = "[cuspidal.x]\ndim = 2\ntype = orthogonal\nmodel = q8\n"
    with pytest.raises(ConsistencyError) as info:
        load_catalog(text)
    assert "indicator" in str(info.value)


def test_load_catalog_rejects_dangling_dual():
    text = "[cuspidal.x]\ndim = 1\ntype = none\ndual = ghost\n"
    with pytest.raises(ConsistencyError) as info:
        load_catalog(text)
    assert "ghost" in str(info.value)


def test_load_catalog_rejects_duplicate_sections():
    text = ("[cuspidal.x]\ndim = 1\ntype = orthogonal\n"
            "[cuspidal.x]\ndim = 2\ntype = orthogonal\n")
    with pytest.raises(ParseError):
        load_catalog(text)


def test_load_catalog_ini_syntax_error_has_line():
    with pytest.raises(ParseError) as info:
        load_catalog("dim = 1\n")
    assert info.value.line is not None
