"""Tests for check reports and the exit-code mapping."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from periodlab.reporting import (
    CATALOG_CHECK,
    ERROR,
    FAIL,
    PARSE_CHECK,
    PASS,
    CheckResult,
    Report,
)


def test_check_result_rejects_unknown_verdicts():
    with pytest.raises(ValueError):
        CheckResult("x", "maybe", "rule:grammar")


def test_exit_code_all_pass():
    r = Report(input="x")
    r.add("a", PASS, "rule:grammar")
    assert r.all_pass
    assert r.exit_code == 0


def test_exit_code_failed_check():
    r = Report(input="x")
    r.add("a", PASS, "rule:grammar")
    r.add_outcome("b", False, "rule:sp-image")
    assert r.exit_code == 1


def test_exit_code_parse_error_wins():
    r = Report(input="x")
    r.add(PARSE_CHECK, ERROR, "rule:grammar", "bad token")
    r.add("other", FAIL, "rule:sp-image")
    assert r.exit_code == 2


def test_exit_code_catalog_error():
    r = Report(input="x")
    r.add(CATALOG_CHECK, ERROR, "rule:catalog-load")
    assert r.exit_code == 3


def test_exit_code_oracle_disagreement():
    r = Report(input="x")
    r.add("a", PASS, "rule:sp-image")
    r.oracle_agreement = False
    assert r.exit_code == 4
    # an undetermined oracle is not a disagreement
    r.oracle_agreement = None
    assert r.exit_code == 0


def test_parse_error_outranks_catalog_and_oracle():
    r = Report(input="x")
    r.add(CATALOG_CHECK, ERROR, "rule:catalog-load")
    r.add(PARSE_CHECK, ERROR, "rule:grammar")
    r.oracle_agreement = False
    assert r.exit_code == 2


def test_to_json_shape():
    r = Report(input="q8")
    r.add("a", PASS, "rule:grammar", "fine")
    r.oracle_agreement = True
    data = json.loads(r.to_json())
    assert data == {
        "input": "q8",
        "checks": [{"name": "a", "verdict": "pass",
                    "theorem_tag": "rule:grammar", "details": "fine"}],
        "oracle_agreement": True,
        "exit_code": 0,
    }


# any code point, control characters and lone surrogates included; a union
# with a sampled alphabet would draw several times slower
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)


@settings(max_examples=200, deadline=None)
@given(JSON_TEXT, st.sampled_from([None, True, False]),
       st.lists(st.tuples(JSON_TEXT, st.sampled_from([PASS, FAIL, ERROR]),
                          JSON_TEXT, JSON_TEXT), max_size=4))
@example('"q8"\\\n', None, [])
@example("\x00\x1f\x7f", True, [("\u2028", FAIL, "\U0001f600", "\ud800")])
@example("", False, [("\udfff", ERROR, "\\u0041", "tr\u00b2")] * 3)
def test_to_json_is_json_dumps_with_an_indent_of_two(text, agreement, checks):
    r = Report(input=text, oracle_agreement=agreement)
    for name, verdict, tag, details in checks:
        r.add(name, verdict, tag, details)
    assert r.to_json() == json.dumps(r.to_dict(), indent=2)


def test_render_layout():
    r = Report(input="q8")
    r.add("a", PASS, "rule:grammar", "fine")
    r.add("b", ERROR, "oracle:isotropy")
    r.oracle_agreement = None
    text = r.render()
    lines = text.splitlines()
    assert lines[0] == "input: q8"
    assert "[PASS ] a: fine  (rule:grammar)" in lines[1]
    assert "[ERROR] b  (oracle:isotropy)" in lines[2]
    assert lines[-1] == "exit code: 1"
    assert "oracle agreement" not in text
