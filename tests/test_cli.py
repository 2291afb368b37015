"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import periodlab
from periodlab import (
    BilinearForm,
    Matrix,
    Symmetry,
    builtin_catalog,
    cli,
    distinction,
    load_catalog,
    matrix_lab,
    parse_param,
    sweep,
    symplectic_J,
)
from periodlab.cli import (
    CATALOG_ENV,
    VERIFY_MAX_K,
    VERIFY_MAX_N,
    main,
    run_classify,
    run_conjecture_sweep,
    run_verify_matrices,
)
from periodlab.distinction import FORM_ORACLE_DIM_BOUND
from periodlab.errors import ParseError, SourceSpan
from periodlab.reporting import ERROR, PASS

USER_CATALOG = textwrap.dedent("""\
    [cuspidal.tau]
    dim = 2
    type = symplectic
    model = q8

    [cuspidal.one]
    dim = 1
    type = orthogonal
    model = trivial
    """)


# -- classify ------------------------------------------------------------------


@pytest.mark.parametrize("module", ["periodlab", "periodlab.cli"])
def test_python_dash_m_periodlab_runs_without_warnings(module):
    src = str(Path(periodlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", module,
         "classify", "q8 (+) q8b"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert "exit code: 0" in result.stdout


def test_classify_elliptic_parameter_exits_zero(capsys):
    assert main(["classify", "q8 (+) q8b"]) == 0
    out = capsys.readouterr().out
    assert "[PASS ]" in out
    assert "exit code: 0" in out


def test_classify_reports_failed_rule(capsys):
    assert main(["classify", "St(2,q8)"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL ]" in out
    assert "not linearly distinguished" in out


def test_classify_parse_error_exits_two(capsys):
    assert main(["classify", "St(3,q8"]) == 2
    out = capsys.readouterr().out
    assert "1:7" in out
    assert "expected ')'" in out


def test_classify_unknown_label_exits_three(capsys):
    assert main(["classify", "St(2,zzz)"]) == 3
    out = capsys.readouterr().out
    assert "unknown cuspidal label" in out


def test_classify_missing_catalog_file_exits_three(tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    assert main(["classify", "q8", "--catalog", str(missing)]) == 3


def test_classify_twisted_parameter_fails_tempered(capsys):
    report = run_classify("q8 * nu^1/2")
    by_name = {c.name: c.verdict for c in report.checks}
    assert by_name["tempered"] == "fail"
    assert report.exit_code == 1


def test_tempered_details_name_what_is_not_tempered(tmp_path, capsys):
    path = tmp_path / "nonunitary.ini"
    path.write_text(USER_CATALOG.replace("model = q8", "model = q8\n"
                                         "unitary = no"), encoding="utf-8")
    report = run_classify("tau (+) St(2,one) * nu^1/2", str(path))
    tempered = next(c for c in report.checks if c.name == "tempered")
    assert tempered.verdict == "fail"
    assert tempered.details == ("twisted segments present: St(2,one) * "
                                "nu^1/2; non-unitary labels: tau")
    # the sweep's blocks are untwisted, so only the label is named
    assert main(["sweep", "--max-dim", "4", "--catalog", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL ] rds tau: tempered: non-unitary labels: tau" in out
    assert "all twists zero" not in out
    tempered = next(c for c in run_classify("q8 (+) q8b").checks
                    if c.name == "tempered")
    assert (tempered.verdict, tempered.details) == ("pass", "all twists zero")


def test_classify_undistinguishable_segment_is_a_failure_with_reason():
    report = run_classify("St(3,trivial) (+) trivial")
    segment_checks = [c for c in report.checks
                      if c.name.startswith("segment[")]
    assert any("odd dimension" in c.details for c in segment_checks)
    assert report.exit_code == 1


def test_classify_catalog_with_non_dual_models_exits_three(tmp_path, capsys):
    # a and b are declared dual, but chi3 and the trivial character are no
    # contragredient pair: they do not even share a group
    path = tmp_path / "user.ini"
    path.write_text(textwrap.dedent("""\
        [cuspidal.a]
        dim = 1
        type = none
        dual = b
        model = chi3

        [cuspidal.b]
        dim = 1
        type = none
        dual = a
        model = trivial
        """), encoding="utf-8")
    assert main(["classify", "a (+) b", "--catalog", str(path),
                 "--oracle"]) == 3
    assert "not contragredient" in capsys.readouterr().out


def test_dual_labels_that_disagree_about_unitarity_exit_three(tmp_path,
                                                              capsys):
    # a catalog error, not a pair that fails as "non-unitary labels: b"
    path = tmp_path / "user.ini"
    path.write_text(textwrap.dedent("""\
        [cuspidal.a]
        dim = 1
        type = none
        dual = b
        model = chi3

        [cuspidal.b]
        dim = 1
        type = none
        dual = a
        model = chi3bar
        unitary = false
        """), encoding="utf-8")
    assert main(["classify", "a (+) b", "--catalog", str(path),
                 "--oracle"]) == 3
    assert ("dual labels 'a'/'b' disagree about unitarity"
            in capsys.readouterr().out)


def test_a_catalog_dim_of_arabic_indic_digits_exits_three(tmp_path, capsys):
    # the expression St(\u0663,q8) exits 2 (its golden); a catalog's dim
    # keeps to the same ASCII digits
    path = tmp_path / "user.ini"
    path.write_text("[cuspidal.t]\ndim = \u0662\ntype = symplectic\n"
                    "model = q8\n", encoding="utf-8")
    assert main(["classify", "St(3,t)", "--oracle", "--catalog",
                 str(path)]) == 3
    assert "dim must be an integer, got '\u0662'" in capsys.readouterr().out


def test_a_catalog_dim_of_too_many_digits_is_named_by_its_count(tmp_path,
                                                                capsys):
    # as the grammar's "a block length of N digits is too long"
    path = tmp_path / "big.ini"
    path.write_text(f"[cuspidal.t]\ndim = {'2' * 4301}\ntype = symplectic\n"
                    "model = q8\n", encoding="utf-8")
    assert main(["classify", "St(3,t)", "--catalog", str(path),
                 "--json"]) == 3
    out = json.loads(capsys.readouterr().out)
    [check] = [c for c in out["checks"] if c["name"] == "catalog"]
    assert check["verdict"] == ERROR
    assert "dim must be an integer" in check["details"]
    assert "4301" in check["details"]
    assert len(check["details"].encode()) < 200


LONG = "x" * 5000
_LONG_VALUES = {
    "unitary": f"[cuspidal.t]\ndim = 1\ntype = orthogonal\nunitary = {LONG}\n",
    "model": f"[cuspidal.t]\ndim = 1\ntype = orthogonal\nmodel = {LONG}\n",
    "dual": f"[cuspidal.t]\ndim = 1\ntype = none\ndual = {LONG}\n",
    "unknown-key": f"[cuspidal.t]\ndim = 1\ntype = orthogonal\n{LONG} = 1\n",
    "unknown-section": f"[{LONG}]\ndim = 1\ntype = orthogonal\n",
    "dim": f"[cuspidal.t]\ndim = {LONG}\ntype = orthogonal\n",
    "type": f"[cuspidal.t]\ndim = 1\ntype = {LONG}\n",
    "label-name": f"[cuspidal.{LONG}]\ndim = 1\ntype = none\n",
    "duplicate-section": f"[cuspidal.{LONG}]\ndim = 1\n" * 2,
    "duplicate-key": f"[cuspidal.t]\ndim = 1\n{LONG} = 1\n{LONG} = 2\n",
    "expression-label": None,
}


@pytest.mark.parametrize("key", _LONG_VALUES)
def test_a_long_rejected_value_is_named_by_its_prefix_and_length(
        key, tmp_path, capsys):
    # a 5,000-character value, once echoed whole, is cut to its first 40
    # characters and its length; short values keep their text (the
    # unknown-label golden, the dim messages above)
    argv = ["classify", f"St(3,{LONG})", "--json"]
    if _LONG_VALUES[key] is not None:
        path = tmp_path / "long.ini"
        path.write_text(_LONG_VALUES[key], encoding="utf-8")
        argv = ["classify", "t", "--catalog", str(path), "--json"]
    assert main(argv) == 3
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "catalog" and check["verdict"] == ERROR
    assert re.search(r"x{31}\.\.\.", check["details"])
    assert re.search(r"\(50\d\d characters\)", check["details"])
    assert len(check["details"]) < 200


# each parse error that quotes a token: (expression with the token, its
# column, the message once the token is cut); for a short token, the
# parse check's whole detail, as it reads with the token quoted whole
_LONG_TOKENS = [
    (f"q8 {LONG}", 4, "unexpected trailing input 'x"),
    (f"q8 * {LONG}^1", 6, "expected 'nu', got 'x"),
    (f"q8 (+) {'1' * 5000}", 8, "expected a segment, got '1"),
    (f"St({LONG},q8)", 4, "expected a block length, got 'x"),
]
_SHORT_TOKENS = [
    ("q8 q8b", "1:4: unexpected trailing input 'q8b'"),
    ("q8 * mu^1", "1:6: expected 'nu', got 'mu'"),
    ("q8 (+) 12", "1:8: expected a segment, got '12'"),
    ("St(x,q8)", "1:4: expected a block length, got 'x'"),
]


@pytest.mark.parametrize("expr,column,message", _LONG_TOKENS,
                         ids=["trailing", "nu", "segment", "expect"])
def test_a_long_token_in_a_parse_error_is_named_by_its_prefix_and_length(
        expr, column, message, capsys):
    # the expression is echoed once, as the input; the token in the parse
    # error is cut to its first 40 characters and its length, and the span
    # still covers the whole token
    assert main(["classify", expr]) == 2
    out = capsys.readouterr().out
    assert len(out.encode()) < len(expr) + 300
    assert main(["classify", expr, "--json"]) == 2
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "parse" and check["verdict"] == ERROR
    assert check["details"].startswith(f"1:{column}: {message}")
    assert check["details"].endswith("...' (5000 characters)")
    assert len(check["details"].encode()) < 200
    with pytest.raises(ParseError) as info:
        parse_param(expr, builtin_catalog())
    assert info.value.span == SourceSpan(1, column, 5000)


@pytest.mark.parametrize("expr,details", _SHORT_TOKENS,
                         ids=["trailing", "nu", "segment", "expect"])
def test_a_short_token_in_a_parse_error_is_quoted_whole(expr, details):
    [check] = run_classify(expr).checks
    assert check.details == details


def test_classify_with_user_catalog(tmp_path, capsys):
    path = tmp_path / "user.ini"
    path.write_text(USER_CATALOG, encoding="utf-8")
    assert main(["classify", "tau", "--catalog", str(path), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle agreement: True" in out


def test_classify_reads_catalog_from_environment(tmp_path, monkeypatch):
    path = tmp_path / "user.ini"
    path.write_text(USER_CATALOG, encoding="utf-8")
    monkeypatch.setenv(CATALOG_ENV, str(path))
    report = run_classify("tau (+) St(2,one)")
    assert report.exit_code == 0
    assert str(path) in report.checks[0].details


def test_catalog_files_share_the_builtin_models(tmp_path):
    # model ids resolve in the built-in registry, so loading a catalog file
    # again adds no model set to realize's cache
    builtin = builtin_catalog()
    first, second = load_catalog(USER_CATALOG), load_catalog(USER_CATALOG)
    for name, model in (("tau", "q8"), ("one", "trivial")):
        assert (first.model_for(first.label(name))
                is second.model_for(second.label(name))
                is builtin.model_for(builtin.label(model)))
    path = tmp_path / "user.ini"
    path.write_text(USER_CATALOG, encoding="utf-8")
    argv = ["classify", "tau (+) St(2,one)", "--catalog", str(path),
            "--oracle"]
    assert main(argv) == 0
    size = matrix_lab.sizes()["model_set"]
    for _ in range(4):
        assert main(argv) == 0
    assert matrix_lab.sizes()["model_set"] == size


def test_classify_golden_json(capsys):
    """The report's content, written out by hand: a golden regenerated from
    a faulty run would still match its own command, but not this."""
    assert main(["classify", "St(3,q8)", "--oracle", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "input": "St(3,q8)",
        "checks": [
            {"name": "parse", "verdict": "pass",
             "theorem_tag": "rule:grammar",
             "details": "1 segment(s); catalog: built-in"},
            {"name": "dimension", "verdict": "pass",
             "theorem_tag": "rule:rds-construction",
             "details": "dim = 6"},
            {"name": "tempered", "verdict": "pass",
             "theorem_tag": "rule:tempered",
             "details": "all twists zero"},
            {"name": "segment[0]", "verdict": "pass",
             "theorem_tag": "rule:linear-distinction",
             "details": "St(3,q8): symplectic type; linearly distinguished"},
            {"name": "sp-image", "verdict": "pass",
             "theorem_tag": "rule:sp-image",
             "details": "symplectic pairing exists"},
            {"name": "x-elliptic", "verdict": "pass",
             "theorem_tag": "rule:elliptic-multiplicity-free",
             "details": "multiplicity-free symplectic-type decomposition"},
            {"name": "oracle-form", "verdict": "pass",
             "theorem_tag": "oracle:invariant-form",
             "details": "nondegenerate skew form found; "
                        "max |g^T J g - J| = 0.00e+00"},
            {"name": "oracle-isotropy", "verdict": "pass",
             "theorem_tag": "oracle:isotropy",
             "details": "no invariant isotropic subspace"},
        ],
        "oracle_agreement": True,
        "exit_code": 0,
    }


# -- goldens ------------------------------------------------------------------

# one row per file under tests/golden: the argv that prints it, the exit
# code and the stream it pins; tests/run_goldens.py runs the same rows
# through the installed console script
GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def test_the_manifest_names_each_golden_once():
    assert sorted(row["golden"] for row in MANIFEST) == sorted(
        path.name for path in GOLDEN.iterdir() if path.name != "manifest.json")


@pytest.mark.parametrize("row", MANIFEST,
                         ids=lambda row: Path(row["golden"]).stem)
def test_each_golden_matches_its_command(capsys, row):
    """Byte for byte: key order, indentation, escaping; the other stream
    stays empty, and the exit code is the row's."""
    try:
        code = main(row["argv"])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    want = {"stdout": b"", "stderr": b"",
            row["stream"]: (GOLDEN / row["golden"]).read_bytes()}
    assert (code, {"stdout": out.encode(), "stderr": err.encode()}) == (
        row["exit"], want)


def _run_manifest(capsys):
    """Each manifest row's exit code and captured streams, in process."""
    results = []
    for row in MANIFEST:
        try:
            code = main(row["argv"])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        results.append((code, capsys.readouterr()))
    return results


def test_clear_returns_the_oracle_to_its_import_time_state(capsys):
    """Every manifest row, then ``matrix_lab.clear()``, which leaves every
    table and cache empty, then every row again: the second pass prints
    byte for byte what the first did."""
    first = _run_manifest(capsys)
    assert any(matrix_lab.sizes().values())
    matrix_lab.clear()
    assert set(matrix_lab.sizes().values()) == {0}
    assert _run_manifest(capsys) == first


# runs each command with its standard output captured, before and after a
# dim-16 sweep in the same process, and prints both rounds as JSON
_TWO_ROUNDS = """
import contextlib, io, json, sys
from periodlab.cli import main

def outputs(commands):
    out = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            out.append([main(argv), buf.getvalue()])
    return out

commands = json.loads(sys.argv[1])
first = outputs(commands)
outputs([["sweep", "--max-dim", "16", "--json"]])
print(json.dumps([first, outputs(commands)]))
"""


def test_outputs_do_not_depend_on_what_ran_earlier_in_the_process():
    """The classify goldens' commands and a dim-8 sweep, first in a fresh
    process and again after a dim-16 sweep in it, give byte-identical
    output, equal to the goldens: the process-wide factor, class and
    model-set tables change no verdict and no figure."""
    rows = [row for row in MANIFEST
            if row["golden"].startswith("classify_")
            or row["golden"] == "sweep_max_dim_8.json"]
    src = str(Path(periodlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _TWO_ROUNDS,
         json.dumps([row["argv"] for row in rows])],
        capture_output=True, text=True, encoding="utf-8", timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    first, again = json.loads(result.stdout)
    assert again == first
    assert first == [
        [row["exit"], (GOLDEN / row["golden"]).read_text(encoding="utf-8")]
        for row in rows]


def test_classify_exact_residue_is_exactly_zero(capsys):
    assert main(["classify", "q8 (+) St(6,trivial)", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "max |g^T J g - J| = 0.00e+00" in out


@pytest.mark.parametrize("expr", ["St(3,chi3) (+) St(3,chi3bar) (+) q8",
                                  "chi3 (+) chi3bar (+) s3 (+) s3"])
def test_a_mixed_realization_reports_the_residue_of_its_float_tiles(expr,
                                                                    capsys):
    # the exact label's tiles stay exact next to the float dual pair, so
    # the residue is the float tiles' own, 2^-53
    p = periodlab.parse_param(expr, builtin_catalog())
    assert distinction.oracle_verdicts(p).max_residue == 2.0 ** -53
    assert main(["classify", expr, "--oracle"]) == 1
    assert "max |g^T J g - J| = 1.11e-16" in capsys.readouterr().out


def test_classify_large_float_form_passes_relative_tolerance(capsys):
    # an all-float mix of dual pairs and symmetric pairs.  A combination
    # search once built a form with entries up to 6^9 here, whose residue
    # (2.7e-09) passed only by the relative rule; the per-class form has
    # entries of size 1, and test_float_comparison_rule_is_shared pins the
    # rule itself
    expr = ("chi3 (+) chi3 (+) chi3bar (+) chi3bar (+) "
            "trivial (+) trivial (+) trivial (+) trivial")
    assert main(["classify", expr, "--oracle", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert all(c["verdict"] != "error" for c in data["checks"])
    assert data["oracle_agreement"] is True


def test_classify_refuses_oversized_oracle_input(capsys):
    assert main(["classify", "St(1000000,q8)", "--oracle", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    form = next(c for c in data["checks"] if c["name"] == "oracle-form")
    assert form["verdict"] == "error"
    assert f"bound is {FORM_ORACLE_DIM_BOUND}" in form["details"]
    assert data["oracle_agreement"] is None


def test_classify_refuses_the_empty_parameter_in_the_oracle(capsys):
    assert main(["classify", "0", "--oracle", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    form = next(c for c in data["checks"] if c["name"] == "oracle-form")
    assert form["verdict"] == "error"
    assert "nonempty parameter" in form["details"]
    assert data["oracle_agreement"] is None
    assert main(["classify", "0"]) == 0


@st.composite
def builtin_expressions(draw, max_dim=FORM_ORACLE_DIM_BOUND):
    """A multiset of built-in segments St(k, label), k <= 24, each at most
    twice, of total dimension <= ``max_dim``, as classify text.  A drawn
    segment may bring its dual segment along, so that parameters factoring
    through Sp are common."""
    catalog = builtin_catalog()
    counts, room = {}, max_dim
    while room and (not counts or draw(st.booleans())):
        label = catalog.label(draw(st.sampled_from(
            sorted(l.name for l in catalog.labels() if l.dim <= room))))
        k = draw(st.integers(1, min(24, room // label.dim)))
        names = [label.name]
        if 2 * label.dim * k <= room and draw(st.booleans()):
            names.append(label.dual_name)
        for name in names:
            if counts.get((name, k), 0) < 2:
                counts[name, k] = counts.get((name, k), 0) + 1
                room -= label.dim * k
    return " (+) ".join(name if k == 1 else f"St({k},{name})"
                        for (name, k), m in counts.items() for _ in range(m))


@settings(max_examples=40, deadline=None)
@given(builtin_expressions())
@example("St(18,chi3)")
@example("chi3 (+) chi3bar (+) St(14,trivial)")
@example("St(14,trivial)")
@example("St(6,q8) (+) St(6,q8)")
def test_oracle_agrees_with_the_rules_up_to_the_form_bound(expr):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", expr, "--oracle", "--json"])
    data = json.loads(out.getvalue())
    assert code in (0, 1), data
    assert data["oracle_agreement"] is True, data
    assert all(c["verdict"] != "error" for c in data["checks"]), data


# pieces of the classify grammar, so that drawn text often comes near a valid
# expression: every built-in label, the segment syntax, numbers at and far
# beyond the oracle's bound, and the leading '-' that argparse reads as an
# option
CLASSIFY_TOKENS = st.sampled_from(
    sorted(l.name for l in builtin_catalog().labels())
    + ["St(", "(+)", ")", ",", " ", "-", "--", "0", "1", "2", "7", "12",
       "24", "25", "1000000000", "1/2", "x"])


@settings(max_examples=150, deadline=None)
@given(st.text() | st.lists(CLASSIFY_TOKENS | st.text(max_size=2),
                            max_size=14).map("".join),
       st.booleans())
@example("St(\u00b2,q8)", False)  # a digit to str.isdigit, not to int()
@example("St(" + "9" * 5000 + ",q8)", True)  # beyond int()'s 4300 digits
def test_classify_exits_with_a_documented_code_on_any_text(expr, oracle):
    """Any text gets an exit code in 0..4 within 5 s a call, more than ten
    times the slowest known input, St(24,trivial) --oracle.  Text that
    argparse reads as an option ends in its SystemExit(2), or 0 for help."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["classify", expr, *(["--oracle"] if oracle else [])])
        except SystemExit as exc:
            code = exc.code
    assert code in range(5), (expr, code)
    assert time.perf_counter() - start < 5.0, expr


# every subcommand with valid arguments, help at both levels, and the argv
# that only the full parser reads: errors, `--`, `=` forms, abbreviations,
# a value that starts with `-`, non-ASCII digits and the empty word
ROUTED_ARGV = [
    ["classify", "St(3,q8) (+) q8b", "--oracle", "--json"],
    ["classify", "trivial", "--catalog", "x.ini"],
    ["verify-matrices", "--max-n", "3", "--max-k", "4"],
    ["verify-matrices", "--json"],
    ["sweep", "--max-dim", "6", "--catalog", "x.ini", "--json"],
    ["sweep"],
    ["-h"],
    ["classify", "-h"],
    ["verify-matrices", "--help"],
    ["sweep", "-h"],
    ["classify", "trivial", "--foo"],
    ["classify", "trivial", "extra"],
    ["classify"],
    ["sweep", "--max-dim", "x"],
    ["verify-matrices", "--max-n"],
    ["frobnicate", "trivial"],
    ["--json", "classify", "trivial"],
    ["classify", "--", "-x"],
    [],
    ["classify", "trivial", "--ora"],
    ["sweep", "--max-dim=4"],
    ["verify-matrices", "--max-n", "-1"],
    ["sweep", "--max-dim", "\u0663", "--json"],
    ["classify", ""],
]

# words drawn after a routed argv: every option string, valid and invalid
# values, `--`, help, `=` forms, abbreviations, other words that start with
# `-`, the empty word and non-ASCII digits
ARGV_WORDS = st.sampled_from([
    "classify", "verify-matrices", "sweep", "--catalog", "--oracle",
    "--json", "--max-n", "--max-k", "--max-dim", "--", "-h", "--help",
    "--ora", "--max", "--max-dim=4", "--json=1", "-h=1", "-1", "-x", "-",
    "", " 4 ", "1_0", "\u0663", "\u00b2", "4", "25", "x.ini", "trivial",
    "a b"]) | st.text(max_size=3)


def _parse_outcome(parse, argv):
    """(Namespace or None, exit code or None, stdout, stderr) of a parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = parse(argv), None
        except SystemExit as exc:
            args, code = None, exc.code
    return args, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ROUTED_ARGV, ids=" ".join)
@settings(max_examples=40, deadline=None)
@given(st.lists(ARGV_WORDS, max_size=5))
@example([])
def test_the_argv_route_parses_as_the_full_parser(argv, more):
    """cli._parse_args, which reads a plain argv without argparse, gives the
    full parser's Namespace, or its exit code and its output byte for byte,
    for the argv and for the argv followed by any drawn words."""
    parser = cli._build_argparser()[0]
    argv = argv + more
    assert (_parse_outcome(cli._parse_args, argv)
            == _parse_outcome(parser.parse_args, argv))


@pytest.mark.parametrize("argv", [
    ["classify", "St(3,q8) (+) q8b", "--oracle", "--json"],
    ["sweep", "--max-dim", "6", "--json"],
    ["verify-matrices", "--max-n", "6", "--max-k", "8", "--json"],
], ids=" ".join)
def test_the_benchmark_argv_shapes_never_call_argparse(monkeypatch, argv):
    """The command lines the benchmark sends are read directly."""
    want = cli._build_argparser()[0].parse_args(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse was called")

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, refuse)
    assert cli._parse_args(argv) == want


@pytest.mark.parametrize("golden, argv", [
    ("sweep_max_dim_24.json", ["sweep", "--max-dim", "24", "--json"]),
    ("classify_repeated_chi3.json", ["classify", "chi3 (+) chi3 (+) chi3bar "
                                     "(+) chi3bar", "--oracle", "--json"]),
])
def test_a_closed_output_pipe_keeps_the_report_exit_code(golden, argv):
    """A reader that closes the pipe early, as ``| head -c 10`` does, leaves
    the command its report's exit code and standard error empty."""
    code = json.loads((GOLDEN / golden)
                      .read_text(encoding="ascii"))["exit_code"]
    src = str(Path(periodlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "periodlab", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (code, b"")


# The resource contract of a hostile input, as the README's exit-code
# section states it: ten inputs, six argvs and four catalog files, whose
# bytes count in the input's size.  The 5,000-label catalog costs the
# most CPU time, 0.4-0.6 s, and the 10^4 segments write the most, 12.7
# output bytes per input byte in 0.35 s (2-vCPU Xeon VM, Python 3.11.7):
# the limits leave a margin of about 5x in time and 1.25x in output.  With
# one BLAS thread the ten peak at 102-113 MiB of address space (VmPeak;
# numpy's import reserves most of it, the 5,000 labels and the 10^4
# segments are the highest), so the 256 MiB limit leaves about 2.3x.
# Each OpenBLAS thread reserves its own buffers, so the child is pinned to
# one: unpinned on 2 vCPUs the peaks were 142-152 MiB, and they grow with
# the core count.
HOSTILE_CPU_S = 3
HOSTILE_AS_BYTES = 256 * 2**20
HOSTILE_BYTES_PER_INPUT_BYTE = 16
HOSTILE_BYTES_EXTRA = 4096


FIVE_THOUSAND_LABELS = b"".join(
    b"[cuspidal.l%d]\ndim = 1\ntype = orthogonal\n" % i
    for i in range(1, 5001))


@pytest.mark.parametrize("argv, code, catalog", [
    (["classify", " (+) ".join(["trivial"] * 10_000)], 1, None),
    (["classify", "St(99999999,q8)", "--oracle"], 1, None),
    (["classify", "(" * 5000 + "q8" + ")" * 5000], 2, None),
    (["classify", "St(2,q8)*nu^1/12345678901234567890", "--oracle"], 1, None),
    (["sweep", "--max-dim", "25"], 2, None),
    (["verify-matrices", "--max-n", "13"], 2, None),
    (["classify", "t"], 3,
     b"[cuspidal.t]\ndim = 1\ntype = orthogonal\n# \xff\n"),
    (["classify", "t"], 3, b"[cuspidal.t]\ndim = 1\ntype = " + b"x" * 10**5),
    (["classify", "t"], 3,
     b"[cuspidal.t]\ndim = " + b"2" * 10**5 + b"\ntype = orthogonal\n"),
    (["classify", "l1 (+) l2"], 1, FIVE_THOUSAND_LABELS),
], ids=["ten-thousand-segments", "huge-k-oracle", "deep-nesting",
        "twenty-digit-twist-oracle", "sweep-over-cap", "verify-over-cap",
        "non-utf8-catalog", "long-type-catalog", "long-dim-catalog",
        "five-thousand-label-catalog"])
def test_a_hostile_input_keeps_the_resource_contract(tmp_path, argv, code,
                                                      catalog):
    """Each input, an argv and, for some, a catalog file, runs in a child
    process of its own, under CPU-time and address-space limits set in
    that child alone: it exits with its documented code, writes no
    traceback, and its output is bounded by its input's size, the catalog
    file's bytes included."""
    def limit_child():
        resource.setrlimit(resource.RLIMIT_CPU,
                           (HOSTILE_CPU_S, HOSTILE_CPU_S))
        resource.setrlimit(resource.RLIMIT_AS,
                           (HOSTILE_AS_BYTES, HOSTILE_AS_BYTES))

    size = sum(len(word.encode()) for word in argv) + len(catalog or b"")
    if catalog is not None:
        ini = tmp_path / "hostile.ini"
        ini.write_bytes(catalog)
        argv = [*argv, "--catalog", str(ini)]
    src = str(Path(periodlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "periodlab", *argv],
        capture_output=True, timeout=60, preexec_fn=limit_child,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
    assert result.returncode == code, result.stderr[-2000:]
    # the code is the report's or the usage error's, not that of a library
    # that ran out of address space and exited on its own
    assert (result.stdout.endswith(b"exit code: %d\n" % code)
            or result.stderr.startswith(b"periodlab: ")), result.stderr
    assert b"Traceback" not in result.stderr
    assert len(result.stdout) + len(result.stderr) <= (
        HOSTILE_BYTES_PER_INPUT_BYTE * size + HOSTILE_BYTES_EXTRA)


# catalog section bodies per label, with distinct models, that load on
# their own or with their dual partner; and faulty lines: bad headers and
# values, unknown keys, lines configparser refuses, arbitrary text
CATALOG_BODIES = {
    "a": st.sampled_from([
        ("dim = 1", "type = orthogonal", "model = trivial"),
        ("dim = 1", "type = none", "model = chi3", "dual = b"),
        ("dim = 2", "type = symplectic")]),
    "b": st.sampled_from([
        ("dim = 2", "type = symplectic", "model = q8"),
        ("dim = 1", "type = none", "model = chi3bar", "dual = a")]),
    "c": st.sampled_from([
        ("dim = 2", "type = orthogonal", "model = d4", "unitary = false"),
        ("dim = 2", "type = symplectic", "model = q8b")]),
}
CATALOG_FAULTS = st.sampled_from([
    "[cuspidal.St]", "[cuspidal.]", "[cuspidal.a", "[other]", "[cuspidal.a]",
    "dim = 0", "dim = x", "type = weird", "model = nope", "model = q8",
    "dual = c", "unitary = maybe", "colour = red", "dim", "= 2", "# note",
    "  unitary = true"]) | st.text(max_size=3)


@st.composite
def catalog_texts(draw):
    """Up to three sections with valid bodies (a dual partner may be
    missing), and at most one faulty line dropped in anywhere."""
    lines = []
    for name in draw(st.lists(st.sampled_from("abc"), max_size=3,
                              unique=True)):
        lines += [f"[cuspidal.{name}]", *draw(CATALOG_BODIES[name])]
    for fault in draw(st.lists(CATALOG_FAULTS, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    return "\n".join(lines)


CATALOG_EXPRESSIONS = st.sampled_from([
    "a", "b", "c", "q8", "a (+) b", "St(2,a)", "St(3,a) (+) b",
    "St(2,c) (+) a (+) a", "a * nu^1/2 (+) b * nu^-1/2", "0", "St(2,"])


@settings(max_examples=100, deadline=None)
@given(catalog_texts(), CATALOG_EXPRESSIONS, st.booleans())
def test_classify_exits_with_a_documented_code_on_any_catalog(
        tmp_path_factory, text, expr, oracle):
    """Every catalog text gets an exit code in 0..4 and no traceback."""
    path = tmp_path_factory.mktemp("catalog") / "fuzz.ini"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["classify", expr, "--catalog", str(path),
                     *(["--oracle"] if oracle else [])])
    assert code in range(5), (text, expr, code)


# 19 distinct classes, dim 380: one S(k) x S(k') solve per pair of classes
DISTINCT_KS = " (+) ".join(f"St({2 * j},trivial)" for j in range(1, 20))


@pytest.mark.parametrize("label, copies", [
    ("trivial", 48), ("q8", 24), ("trivial", 1000), ("q8", 200),
    ("St(48,trivial)", 1), ("St(40,chi3) (+) St(40,chi3bar)", 1),
    pytest.param(DISTINCT_KS, 1, id="St(2j,trivial)-j=1..19")])
def test_high_multiplicity_oracle_stays_fast_above_the_bound(
        monkeypatch, capsys, label, copies):
    # the costliest families known above the bound: the oracle works per
    # class of equal blocks, so its cost does not grow with the square of
    # the multiplicity, and each S(k) x S(k') solve is walked on the at most
    # min(k, k') unknowns that its weights leave, with no row reduction; a
    # guard for raising the bound.  Each takes well under 0.5 s on a 2-vCPU
    # VM.
    monkeypatch.setattr(distinction, "FORM_ORACLE_DIM_BOUND", 1000)
    start = time.perf_counter()
    code = main(["classify", " (+) ".join([label] * copies), "--oracle",
                 "--json"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    # distinct symplectic blocks are elliptic; the rest factor through Sp,
    # but are not elliptic
    assert code == (0 if label in ("St(48,trivial)", DISTINCT_KS)
                    else 1), data
    assert data["oracle_agreement"] is True, data
    assert all(c["verdict"] != "error" for c in data["checks"]), data
    assert elapsed < 2.0


# -- verify-matrices --------------------------------------------------------------


def test_verify_matrices_small_bounds(capsys):
    assert main(["verify-matrices", "--max-n", "3", "--max-k", "4"]) == 0
    out = capsys.readouterr().out
    assert "6 even partitions" in out
    assert "k=4:skew" in out


def test_verify_matrices_default_counts():
    report = run_verify_matrices()
    by_name = {c.name: c for c in report.checks}
    assert report.exit_code == 0
    assert "29 even partitions" in by_name["partition-conjugators"].details
    assert by_name["form-parity"].details.endswith("k=8:skew")
    assert "n = 1 .. 6" in by_name["w-plus"].details


def test_verify_matrices_rejects_bad_bounds(capsys):
    assert main(["verify-matrices", "--max-n", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--max-n", str(VERIFY_MAX_N + 1)],
                                  ["--max-k", str(VERIFY_MAX_K + 1)]])
def test_verify_matrices_refuses_bounds_above_its_caps(capsys, argv):
    assert main(["verify-matrices", *argv]) == 2
    err = capsys.readouterr().err
    assert f"max_n must be at most {VERIFY_MAX_N}" in err
    assert f"max_k at most {VERIFY_MAX_K}" in err


@pytest.mark.parametrize("entry", [1, 0])
def test_the_forms_suite_decides_from_the_matrix(monkeypatch, entry):
    """A J' with the -1 of its first pair flipped, or zeroed, fails the suite
    although it still carries the skew and nondegenerate labels."""
    def broken(m):
        re = symplectic_J(m).gram.re.copy()
        re[m - 1, 0] = entry
        return BilinearForm(Matrix.gaussian(re), Symmetry.SKEW, True)

    monkeypatch.setattr(cli, "symplectic_J", broken)
    check = run_verify_matrices(max_n=3, max_k=2).checks[0]
    assert check.name == "symplectic-forms"
    assert check.verdict == "fail"
    assert check.details == "J'_2 is not a symplectic form"


# -- sweep --------------------------------------------------------------------


def test_sweep_small_cap():
    report = run_conjecture_sweep(max_dim=4)
    assert report.exit_code == 0
    assert report.oracle_agreement is True
    enumeration = report.checks[0]
    assert enumeration.name == "enumeration"
    rds_checks = [c for c in report.checks if c.name.startswith("rds ")]
    assert rds_checks and all(c.verdict == PASS for c in rds_checks)
    controls = [c for c in report.checks if c.name.startswith("control ")]
    assert {c.name for c in controls} >= {
        "control duplicate-blocks", "control dimension-mismatch",
        "control duplicate-parameter", "control dual-pair-parameter"}
    assert all(c.verdict == PASS for c in controls)


@pytest.mark.parametrize("max_dim, count", [(4, 9), (8, 46), (12, 161)])
def test_sweep_specs_match_the_subset_filter(max_dim, count):
    pool, _ = sweep._segment_pool(builtin_catalog(), max_dim)
    expected = [combo for size in range(1, len(pool) + 1)
                for combo in itertools.combinations(pool, size)
                if sum(s.dim for s in combo) <= max_dim]
    assert len(expected) == count
    assert sweep._bounded_combinations(pool, max_dim) == expected


def test_sweep_rejects_out_of_range_cap(capsys):
    assert main(["sweep", "--max-dim", str(FORM_ORACLE_DIM_BOUND + 1)]) == 2
    assert "between 2 and 24" in capsys.readouterr().err


def test_sweep_with_user_catalog(tmp_path):
    path = tmp_path / "user.ini"
    path.write_text(USER_CATALOG, encoding="utf-8")
    report = run_conjecture_sweep(catalog_path=str(path), max_dim=4)
    assert report.exit_code == 0
    names = [c.name for c in report.checks]
    assert "rds tau" in names
    assert "rds St(2,one)" in names


def test_sweep_bad_catalog_exits_three(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[cuspidal.x]\ndim = 2\ntype = orthogonal\nmodel = q8\n",
                    encoding="utf-8")
    report = run_conjecture_sweep(catalog_path=str(path))
    assert report.exit_code == 3
    assert report.checks[0].verdict == ERROR


@pytest.mark.parametrize("argv, via_env", [
    (["classify", "q8"], False),
    (["sweep", "--max-dim", "4"], False),
    (["classify", "q8"], True),
])
def test_non_utf8_catalog_exits_three(tmp_path, monkeypatch, capsys, argv,
                                      via_env):
    path = tmp_path / "utf16.ini"
    path.write_bytes(b"\xff\xfe[\x00c\x00")
    if via_env:
        monkeypatch.setenv(CATALOG_ENV, str(path))
    else:
        argv = [*argv, "--catalog", str(path)]
    assert main([*argv, "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["verdict"]) for c in data["checks"]] == [
        ("catalog", ERROR)]
    assert "utf-8" in data["checks"][0]["details"]


# -- argument handling ------------------------------------------------------------


def test_repeated_calls_in_one_process_match_the_first(capsys):
    argv = ["classify", "q8 (+) q8b", "--json"]
    first = main(argv), capsys.readouterr().out
    assert main(["sweep", "--max-dim", str(FORM_ORACLE_DIM_BOUND + 1)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--no-such-option"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert (main(argv), capsys.readouterr().out) == first


@pytest.mark.parametrize("argv, code, bound", [
    (["classify", f"St({FORM_ORACLE_DIM_BOUND // 2 + 1},q8)", "--oracle"],
     1, FORM_ORACLE_DIM_BOUND),
    (["sweep", "--max-dim", str(FORM_ORACLE_DIM_BOUND + 1)], 2,
     FORM_ORACLE_DIM_BOUND),
    (["verify-matrices", "--max-n", str(VERIFY_MAX_N + 1)], 2, VERIFY_MAX_N),
    (["verify-matrices", "--max-k", str(VERIFY_MAX_K + 1)], 2, VERIFY_MAX_K),
])
def test_every_refusal_names_its_bound(capsys, argv, code, bound):
    """The oracle's refusal is an ERROR check naming its bound; a
    command-line bound out of range exits 2 and names it on stderr."""
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        text = err
    else:
        text = next(line for line in out.splitlines()
                    if line.startswith("  [ERROR] oracle-form: "))
    assert re.search(rf"\b{bound}\b", text), text


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(gens):
        raise ValueError("internal failure")

    monkeypatch.setattr(distinction, "find_nondegenerate_skew", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["classify", "q8", "--oracle"])
