"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q periodbench

They run tiny versions of each workload through the same code the real runs
use, with fakes for the failure paths.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep-d6": workloads.sweep_workload(max_dim=4, specs=9),
    "classify-mix": workloads.classify_workload(count=4),
    "verify-n6k8": workloads.verify_workload(max_n=2, max_k=3),
}


@pytest.fixture(scope="module")
def cli_main():
    run.pin_environment()
    return run.import_cli()


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.per_layer_units()


def test_builtin_labels_match_the_catalog(cli_main):
    from periodlab.group_models import builtin_catalog
    catalog = builtin_catalog()
    assert {(name, e.label.dim, e.model.exact, e.label.sd_type.sign)
            for name, e in catalog.entries.items()} == \
        set(workloads.BUILTIN_LABELS)


def test_expressions_are_print_param_text(cli_main):
    from periodlab.group_models import builtin_catalog
    from periodlab.notation import parse_param, print_param
    from periodlab.param_core import segment_self_duality
    catalog = builtin_catalog()
    universe = workloads.classify_universe()
    assert len(universe) == 3889
    for seg in {s for ms in universe for s in ms}:
        parsed = parse_param(workloads.expression([seg]), catalog).segments[0]
        assert seg.self_duality == segment_self_duality(parsed).sign
    texts = [workloads.expression(ms) for ms in universe]
    for text in texts:
        assert print_param(parse_param(text, catalog)) == text
    assert workloads.CLASSIFY_WARMUP in texts


def test_classify_inputs_are_seeded():
    first = workloads.classify_expressions(1)
    assert first == workloads.classify_expressions(1)
    assert len(first) == len(set(first)) == workloads.CLASSIFY_COUNT
    assert first != workloads.classify_expressions(2)


def test_second_seed_has_the_same_shape(cli_main):
    def shape(seed):
        sample = workloads.classify_sample(seed)
        floats = sum(not all(s.exact for s in ms) for ms in sample)
        factoring = 0
        for ms in sample:
            code, text, _, _ = run.run_command(
                cli_main, ["classify", workloads.expression(ms), "--json"])
            checks = {c["name"]: c["verdict"]
                      for c in json.loads(text)["checks"]}
            factoring += checks["sp-image"] == "pass"
        return floats / len(sample), factoring / len(sample)

    floats1, factoring1 = shape(1)
    floats2, factoring2 = shape(2)
    assert floats1 == floats2
    assert abs(factoring1 - factoring2) <= 0.03


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(name, trace, cli_main, capsys,
                                   monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _report(code, agreement, verdict="pass"):
    return json.dumps({"input": "x", "oracle_agreement": agreement,
                       "exit_code": code,
                       "checks": [{"name": "parse", "verdict": "pass"},
                                  {"name": "oracle-isotropy",
                                   "verdict": verdict}]})


def fake_main(argv):
    expr = argv[1]
    if expr == "disagree":
        print(_report(4, False, "fail"))
        return 4
    if expr == "refused":
        print(_report(1, None, "error"))
        return 1
    if expr == "traceback":
        raise RuntimeError("internal failure")
    if expr == "usage":
        raise SystemExit(2)
    print(_report(0, True))
    return 0


def test_failures_raise_error_rate_without_aborting():
    names = ["ok", "disagree", "ok", "refused", "traceback", "usage", "ok"]
    workload = workloads.Workload(
        "fake", "fake", lambda seed: [["classify", n] for n in names],
        ["classify", "ok"], workloads.classify_check, lambda report: 1, 1)
    result = run.measure(workload, 1, 0, False, fake_main, lambda: None)
    assert result["attempted"] == len(names)
    assert result["failed"] == 4
    assert result["error_rate"] == pytest.approx(4 / 7)
    assert result["correct"] is False
    assert result["metrics"]["items_per_s"] > 0


def test_pass_count_is_fixed_and_seconds_only_cap_it():
    workload = workloads.Workload(
        "fake", "fake", lambda seed: [["classify", "ok"]],
        ["classify", "ok"], workloads.classify_check, lambda report: 1, 3)
    result = run.measure(workload, 1, 60, False, fake_main, lambda: None)
    assert result["passes"] == {"untraced": 3, "traced": 0}
    result = run.measure(workload, 1, 0, False, fake_main, lambda: None)
    assert result["passes"] == {"untraced": 1, "traced": 0}


def test_times_are_scaled_by_the_calibration_around_them(monkeypatch):
    # the machine runs at half its usual speed: the kernel takes twice its
    # nominal time, and the scaled times are half the measured ones
    monkeypatch.setattr(run.calibration, "calibrate",
                        lambda: 2 * run.calibration.NOMINAL_S)
    workload = workloads.Workload(
        "fake", "fake", lambda seed: [["classify", "ok"]] * 30,
        ["classify", "ok"], workloads.classify_check, lambda report: 1, 1)
    passed = run.run_pass(fake_main, workload, workload.commands(1))
    assert passed.scaled == pytest.approx([t / 2 for t in passed.latencies])
    result = run.measure(workload, 1, 0, False, fake_main, lambda: None)
    assert result["metrics"]["wall_s"] == pytest.approx(
        result["unscaled_wall_s"] / 2)


def test_traced_self_times_add_up(cli_main):
    import periodlab.distinction as distinction
    import periodlab.matrix_lab as matrix_lab
    result = run.measure(TINY["classify-mix"], 5, 0, True, cli_main,
                         run.build_models)
    metrics = result["metrics"]
    self_total = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and k != "group_models.setup.self_s")
    assert self_total == pytest.approx(
        tracing.root_seconds(result["spans"][0]), rel=1e-9)
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=0.02)
    assert metrics["cli.calls"] == 4
    assert metrics["notation.parse_param.calls"] == 4
    assert metrics["matrix_lab.find_nondegenerate_skew.calls"] == 4
    assert metrics["matrix_lab.find_nondegenerate_skew.candidates"] >= 1
    assert distinction.is_in_sp is matrix_lab.is_in_sp
    assert not hasattr(distinction.is_in_sp, "__wrapped__")
    assert result["trace_missing"] == []


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "periodbench", tmp_path / "periodbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "periodbench/run.py", "--workload", "verify-n6k8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tracer_marks_refusals(cli_main):
    from periodlab.errors import PeriodLabError
    tracer = tracing.Tracer()

    def refuse():
        raise PeriodLabError("beyond the bound")

    def command():
        with pytest.raises(PeriodLabError):
            tracer.call(run.ISOTROPY, refuse)

    tracer.call(tracing.ROOT, command)
    totals = tracing.layer_totals(tracer.spans)
    assert totals[run.ISOTROPY]["marks"][tracing.REFUSED] == 1
    assert totals[tracing.ROOT]["calls"] == 1
    assert totals[tracing.ROOT]["self_s"] + totals[run.ISOTROPY]["self_s"] \
        == pytest.approx(tracing.root_seconds(tracer.spans))
