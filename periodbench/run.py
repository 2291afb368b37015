"""periodlab benchmark: drives the public CLI in-process and checks its output.

    python3 periodbench/run.py --workload sweep-d6 --seed 1 --seconds 40 --trace 0

One process, one closed-loop client: each ``periodlab.cli.main([...])`` call
starts after the previous one returns.  The run pins BLAS to one thread,
unsets ``PERIODLAB_CATALOG``, builds the catalog and surrogates, runs one
untimed command, then repeats the workload a fixed number of passes,
stopping early only when ``--seconds`` would be exceeded.  With ``--trace 0``
it reports the end-to-end metrics: each command's time is scaled to the
machine's usual speed by a calibration kernel run just before and after it,
and the median over the passes is kept.  With ``--trace 1`` it runs each
command untraced and traced, back to back, and reports per-layer calls and
self times from the traced runs, unscaled.
The last line of standard output is one JSON object; the lines before it are
for people.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibration
import tracing
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".periodbench"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
# commands between two calibrations
CALIBRATE_EVERY = 25

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_NAMES = [*tracing.LAYERS, *tracing.METHOD_LAYERS, tracing.ROOT]
EXACT_SHARE_LAYERS = ("matrix_lab.is_in_sp", "matrix_lab.invariant_forms",
                      "matrix_lab.realize")
ISOTROPY = "group_models.invariant_isotropic_exists"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in print order."""
    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in EXACT_SHARE_LAYERS:
            units[f"{layer}.exact_share"] = "ratio"
    units[f"{tracing.SKEW}.found_ratio"] = "ratio"
    units[f"{tracing.SKEW}.candidates"] = "count"
    units[f"{ISOTROPY}.refusals"] = "count"
    units["group_models.setup.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no periodlab source)."""


# ---------------------------------------------------------------------------
# one command, one pass


@dataclass
class Pass:
    """The outcomes of one pass over a workload's commands."""

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    items: int = 0
    failures: list[str] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    tracer: tracing.Tracer | None = None
    _digest: object = field(default_factory=hashlib.sha256, repr=False)

    @property
    def wall(self) -> float:
        """Seconds spent inside the CLI calls of this pass."""
        return sum(self.latencies)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def record(self, workload: Workload, argv: list[str], code, text: str,
               seconds: float, problem: str) -> None:
        self.latencies.append(seconds)
        report = parse_report(text)
        if report is not None and workload.check(code, report):
            self.items += workload.items(report)
        else:
            self.failed += 1
            self.failures.append(f"{' '.join(argv)}: exit {code}"
                                 + (f"\n{problem}" if problem else ""))
        self._digest.update(
            json.dumps([argv, code, verdicts(report)]).encode())


def run_command(main, argv: list[str]):
    """Call the CLI once; return (exit code, stdout, seconds, traceback).

    A traceback or a usage exit never escapes: it becomes a failed item.
    """
    out, err = io.StringIO(), io.StringIO()
    code, problem = None, None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            problem = traceback.format_exc()
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds, problem or err.getvalue().strip()


def parse_report(text: str) -> dict | None:
    """The JSON report, or None when the output is not a report."""
    try:
        report = json.loads(text)
    except ValueError:
        return None
    if not isinstance(report, dict) or not isinstance(
            report.get("checks"), list):
        return None
    for check in report["checks"]:
        if not (isinstance(check, dict)
                and isinstance(check.get("name"), str)
                and isinstance(check.get("verdict"), str)):
            return None
    return report


def verdicts(report: dict | None):
    if report is None:
        return None
    return [[c["name"], c["verdict"]] for c in report["checks"]] + [
        report.get("oracle_agreement")]


def run_pass(main, workload: Workload, commands: list[list[str]]) -> Pass:
    """One untraced pass.  The calibration kernel runs before and after
    each block of ``CALIBRATE_EVERY`` commands, and each command's time is
    also recorded scaled by the block's calibration."""
    result = Pass()
    before = calibration.calibrate()
    for i in range(0, len(commands), CALIBRATE_EVERY):
        block = commands[i:i + CALIBRATE_EVERY]
        for argv in block:
            result.record(workload, argv, *run_command(main, argv))
        after = calibration.calibrate()
        speed = calibration.NOMINAL_S / ((before + after) / 2)
        result.scaled.extend(speed * t for t in result.latencies[-len(block):])
        before = after
    return result


def run_paired_pass(main, workload: Workload, commands: list[list[str]],
                    first: int) -> tuple[Pass, Pass]:
    """Each command once untraced and once traced, back to back.

    The order alternates from command to command, starting untraced when
    ``first`` is even, so that a slow spell of a shared machine falls on both
    sides alike and the difference is the tracing overhead.
    """
    tracer = tracing.Tracer()
    plain, traced = Pass(), Pass(tracer=tracer)

    def call_traced(argv):
        return tracer.call(tracing.ROOT, main, argv)

    for i, argv in enumerate(commands, start=first):
        for side in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            if side is plain:
                side.record(workload, argv, *run_command(main, argv))
                continue
            tracer.install()
            try:
                side.record(workload, argv, *run_command(call_traced, argv))
            finally:
                tracer.uninstall()
    return plain, traced


# ---------------------------------------------------------------------------
# a whole run


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(p: Pass) -> dict[str, float]:
    totals = tracing.layer_totals(p.tracer.spans)

    def row(layer):
        return totals.get(layer, {"calls": 0, "self_s": 0.0, "marks": {}})

    def share(layer, mark):
        calls = row(layer)["calls"]
        return row(layer)["marks"].get(mark, 0) / calls if calls else 0.0

    out = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = row(layer)["calls"]
        out[f"{layer}.self_s"] = row(layer)["self_s"]
    for layer in EXACT_SHARE_LAYERS:
        out[f"{layer}.exact_share"] = share(layer, tracing.EXACT)
    out[f"{tracing.SKEW}.found_ratio"] = share(tracing.SKEW, tracing.FOUND)
    out[f"{tracing.SKEW}.candidates"] = p.tracer.candidates
    out[f"{ISOTROPY}.refusals"] = row(ISOTROPY)["marks"].get(
        tracing.REFUSED, 0)
    out["trace.wall_s"] = p.wall
    return out


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            main, setup_build) -> dict:
    """Warm up, run ``workload.passes`` passes, and summarize them.

    The pass count is fixed so that two commits summarize each command over
    the same number of tries; ``seconds`` only caps it, and there is
    always at least one pass.

    ``setup_build`` builds the catalog and models; its time is
    ``group_models.setup.self_s``.
    """
    start = perf_counter()
    setup_build()
    setup_self = perf_counter() - start
    run_command(main, workload.warmup)
    commands = workload.commands(seed)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while True:
        if trace:
            plain, traced_pass = run_paired_pass(main, workload, commands,
                                                 len(untraced))
            untraced.append(plain)
            traced.append(traced_pass)
            last = plain.wall + traced_pass.wall
        else:
            untraced.append(run_pass(main, workload, commands))
            last = untraced[-1].wall
        if (len(untraced) >= workload.passes
                or perf_counter() - start + last > seconds):
            break

    passes = untraced + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    median = statistics.median
    # each command's scaled time, median over the passes: the other tenants
    # of a shared machine slow it by up to 2x in spells of seconds to
    # minutes, and they slow the calibration kernel around it as much
    typical = [median(times) for times in zip(*(p.scaled for p in untraced))]
    if trace:
        rows = [layer_metrics(p) for p in traced]
        metrics = {name: median(r[name] for r in rows) for name in rows[0]}
        metrics["group_models.setup.self_s"] = setup_self
        metrics["trace.overhead_s"] = (median(p.wall for p in traced)
                                       - median(p.wall for p in untraced))
        units = per_layer_units()
        metrics = {name: metrics[name] for name in units}
    else:
        metrics = {
            "wall_s": sum(typical),
            "items_per_s": median(p.items for p in untraced) / sum(typical),
            "latency_ms_p50": 1000 * median(typical),
            "latency_ms_p95": 1000 * percentile(typical, 95),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": units,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "latency_samples": len(commands),
        "unscaled_wall_s": median(p.wall for p in untraced),
        "error_rate": failed / attempted,
        "verdict_sha256": sorted(digests),
        "inputs_sha256": hashlib.sha256(
            json.dumps(commands).encode()).hexdigest(),
        "failures": [f for p in passes for f in p.failures][:3],
        "untraced_walls": [p.wall for p in untraced],
        "traced_walls": [p.wall for p in traced],
        "spans": [p.tracer.spans for p in traced],
        "trace_missing": sorted({m for p in traced for m in p.tracer.missing}),
    }


# ---------------------------------------------------------------------------
# set-up, machine, output


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    os.environ.pop("PERIODLAB_CATALOG", None)


def import_cli():
    """Import periodlab from this checkout's ``src`` and return ``main``."""
    if not (SRC / "periodlab" / "__init__.py").is_file():
        raise SetupError(f"no periodlab source under {SRC}")
    sys.path.insert(0, str(SRC))
    import periodlab
    from periodlab import cli
    if SRC not in Path(periodlab.__file__).resolve().parents:
        raise SetupError(f"imported periodlab from {periodlab.__file__}, "
                         f"not from {SRC}")
    return cli.main


def build_models() -> None:
    from periodlab import group_models
    group_models.builtin_catalog()
    for k in range(1, 7):
        group_models.sl2_surrogate(k)


def setup_seconds(probes: int) -> list[tuple[float, float]]:
    """Cold-start times of ``probes`` fresh processes, each as (scaled by the
    calibration kernel run before and after it, unscaled)."""
    times = []
    before = calibration.calibrate()
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py")], cwd=ROOT,
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SetupError(f"setup probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if SRC not in Path(probe["module"]).resolve().parents:
            raise SetupError(f"setup probe imported {probe['module']}")
        after = calibration.calibrate()
        speed = calibration.NOMINAL_S / ((before + after) / 2)
        times.append((speed * probe["setup_s"], probe["setup_s"]))
        before = after
    return times


def machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def write_spans(result: dict) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{result['workload']}-seed{result['seed']}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["layer", "start", "end", "parent", "mark"],
                   "passes": result["spans"]}, f)
    return path


def print_result(result: dict, extra: dict) -> None:
    print(f"periodbench {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])}: {result['passes']}, "
          f"{result['attempted']} commands, {result['failed']} failed, "
          f"error_rate {result['error_rate']:.4g}, "
          f"{result['latency_samples']} latency samples")
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    for name, value in result["metrics"].items():
        print(f"  {name:52} {value:>14.6g} {result['units'][name]}")
    detail = {k: result[k] for k in (
        "error_rate", "latency_samples", "unscaled_wall_s", "verdict_sha256",
        "inputs_sha256", "untraced_walls", "traced_walls", "trace_missing")}
    print("detail: " + json.dumps({**detail, **extra}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_environment()
    try:
        cli_main = import_cli()
        setup = [] if args.trace else setup_seconds(SETUP_PROBES)
    except SetupError as exc:
        print(f"periodbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     cli_main, build_models)
    extra = {"machine": machine()}
    if setup:
        result["metrics"]["setup_s"] = statistics.median(
            scaled for scaled, _ in setup)
        extra["unscaled_setup_s"] = [seconds for _, seconds in setup]
    if args.trace:
        extra["spans_file"] = os.path.relpath(write_spans(result), ROOT)
    print_result(result, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
