"""End-to-end tests for the command-line interface."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import periodlab
from periodlab import builtin_catalog, distinction, sweep
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


def test_classify_golden_json(capsys):
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


def test_classify_exact_residue_is_exactly_zero(capsys):
    assert main(["classify", "q8 (+) St(6,trivial)", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "max |g^T J g - J| = 0.00e+00" in out


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


@pytest.mark.parametrize("label, copies", [("trivial", 48), ("q8", 24)])
def test_high_multiplicity_oracle_stays_fast_above_the_bound(
        monkeypatch, capsys, label, copies):
    # the skew form is built per class, so its cost does not grow with the
    # square of the multiplicity; a guard for raising the bound
    monkeypatch.setattr(distinction, "FORM_ORACLE_DIM_BOUND", 48)
    start = time.perf_counter()
    code = main(["classify", " (+) ".join([label] * copies), "--oracle",
                 "--json"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert code == 1, data  # factors through Sp, but is not elliptic
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


def test_verify_matrices_json_matches_golden(capsys):
    golden = Path(__file__).parent / "golden" / "verify_matrices_default.json"
    assert main(["verify-matrices", "--json"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


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


@pytest.mark.parametrize("max_dim", [6, 8, 10, 12])
def test_sweep_json_matches_golden(capsys, max_dim):
    golden = Path(__file__).parent / "golden" / f"sweep_max_dim_{max_dim}.json"
    assert main(["sweep", "--max-dim", str(max_dim), "--json"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


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


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(gens):
        raise ValueError("internal failure")

    monkeypatch.setattr(distinction, "find_nondegenerate_skew", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["classify", "q8", "--oracle"])
