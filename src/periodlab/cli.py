"""Command-line front end: classify, verify-matrices, sweep.

Exit codes are a total function of the emitted report: 0 all checks pass,
1 some check failed, 2 expression syntax error, 3 catalog problem,
4 oracle disagreement (which signals an implementation bug, never a
mathematical outcome).  A command-line bound out of range emits no report
and also exits 2.  ``--json`` switches to a schema-stable JSON rendering of
the same report.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from .distinction import (
    FORM_ORACLE_DIM_BOUND,
    TAG_DISTINGUISHED,
    TAG_RDS,
    add_sp_checks,
    add_tempered_check,
    is_linear_distinguished,
)
from .errors import CatalogError, ParseError, PeriodLabError
from .group_models import Catalog, builtin_catalog
from .matrix_lab import (
    Symmetry,
    conjugator_for_partition,
    invariant_form_sl2,
    symplectic_J,
    w_plus,
)
from .notation import load_catalog, parse_param, print_param
from .param_core import WDParameter, segment_self_duality
from .reporting import CATALOG_CHECK, ERROR, PARSE_CHECK, PASS, Report
from .sweep import conjecture_sweep

CATALOG_ENV = "PERIODLAB_CATALOG"

TAG_GRAMMAR = "rule:grammar"
TAG_CATALOG = "rule:catalog-load"
TAG_J_FORM = "identity:symplectic-form"
TAG_CONJUGATOR = "identity:partition-conjugator"
TAG_W_PLUS = "identity:w-plus"
TAG_FORM_PARITY = "identity:form-parity"

# The largest bounds verify-matrices accepts.  At both caps the suites take
# about 0.2 s on a 2-vCPU VM, and the whole command about 0.6 s.
VERIFY_MAX_N = 12
VERIFY_MAX_K = 24


class UsageError(ValueError):
    """A command-line bound out of range; ``main`` maps it to exit code 2."""


def _resolve_catalog(path: str | None) -> tuple[Catalog, str]:
    if path is None:
        path = os.environ.get(CATALOG_ENV) or None
    if path is None:
        return builtin_catalog(), "built-in"
    text = Path(path).read_text(encoding="utf-8")
    return load_catalog(text), path


# ---------------------------------------------------------------------------
# classify


def run_classify(expr: str, catalog_path: str | None = None,
                 use_oracle: bool = False) -> Report:
    """Parse one expression and report every rule verdict for it."""
    report = Report(input=expr)
    try:
        catalog, source = _resolve_catalog(catalog_path)
    except (OSError, UnicodeDecodeError, PeriodLabError) as exc:
        report.add(CATALOG_CHECK, ERROR, TAG_CATALOG, str(exc))
        return report
    try:
        p = parse_param(expr, catalog)
    except ParseError as exc:
        report.add(PARSE_CHECK, ERROR, TAG_GRAMMAR, str(exc))
        return report
    except CatalogError as exc:
        report.add(CATALOG_CHECK, ERROR, TAG_CATALOG, str(exc))
        return report
    report.add(PARSE_CHECK, PASS, TAG_GRAMMAR,
               f"{len(p.segments)} segment(s); catalog: {source}")
    report.add("dimension", PASS, TAG_RDS, f"dim = {p.dim}")
    add_tempered_check(report, p)
    for i, s in enumerate(p.segments):
        text = print_param(WDParameter.of([s]))
        sd = segment_self_duality(s)
        try:
            ok = is_linear_distinguished(s)
            note = ("linearly distinguished" if ok
                    else "not linearly distinguished")
        except PeriodLabError as exc:
            ok = False
            note = f"not linearly distinguished ({exc})"
        report.add_outcome(f"segment[{i}]", ok, TAG_DISTINGUISHED,
                           f"{text}: {sd.value} type; {note}")
    add_sp_checks(report, p, catalog, use_oracle)
    return report


# ---------------------------------------------------------------------------
# verify-matrices


def _even_partitions(total: int, max_part: int | None = None):
    """All partitions of ``total`` into even parts, descending."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    first = min(total, max_part)
    if first % 2:
        first -= 1
    for part in range(first, 0, -2):
        for rest in _even_partitions(total - part, part):
            yield (part, *rest)


def run_verify_matrices(max_n: int = 6, max_k: int = 8) -> Report:
    """Run the exact matrix identity suites and report counts."""
    if max_n < 1 or max_k < 1:
        raise UsageError("max_n and max_k must be positive")
    if max_n > VERIFY_MAX_N or max_k > VERIFY_MAX_K:
        raise UsageError(f"max_n must be at most {VERIFY_MAX_N} and max_k "
                         f"at most {VERIFY_MAX_K}")
    report = Report(input=f"verify-matrices max_n={max_n} max_k={max_k}")

    def suite(name, tag, fn):
        try:
            ok, details = fn()
        except PeriodLabError as exc:
            report.add(name, ERROR, tag, str(exc))
            return
        report.add_outcome(name, ok, tag, details)

    def forms_suite():
        for m in range(1, max_n + 1):
            f = symplectic_J(2 * m)
            if f.symmetry is not Symmetry.SKEW or not f.nondegenerate:
                return False, f"J'_{2 * m} is not a symplectic form"
        return True, (f"J'_2 .. J'_{2 * max_n} all skew and "
                      f"nondegenerate (exact arithmetic)")

    def conjugator_suite():
        count = 0
        for m in range(1, max_n + 1):
            for part in _even_partitions(2 * m):
                conjugator_for_partition(part)
                count += 1
        return True, (f"{count} even partitions of 2 .. {2 * max_n}; "
                      f"P^T J' P = J'' holds exactly for each")

    def w_plus_suite():
        for m in range(1, max_n + 1):
            if conjugator_for_partition((2,) * m) != w_plus(m):
                return False, f"conjugator differs from w_+ at n={m}"
        return True, (f"conjugator equals the w_+ permutation matrix for "
                      f"the all-2 partition, n = 1 .. {max_n}")

    def parity_suite():
        cells = []
        ok = True
        for k in range(1, max_k + 1):
            f = invariant_form_sl2(k)
            want = Symmetry.SYMMETRIC if k % 2 == 1 else Symmetry.SKEW
            if f.symmetry is not want or not f.nondegenerate:
                ok = False
            cells.append(f"k={k}:{f.symmetry.value}")
        return ok, "; ".join(cells)

    suite("symplectic-forms", TAG_J_FORM, forms_suite)
    suite("partition-conjugators", TAG_CONJUGATOR, conjugator_suite)
    suite("w-plus", TAG_W_PLUS, w_plus_suite)
    suite("form-parity", TAG_FORM_PARITY, parity_suite)
    return report


# ---------------------------------------------------------------------------
# sweep


def run_conjecture_sweep(catalog_path: str | None = None,
                         max_dim: int = 8) -> Report:
    """Check every regular discrete sum up to ``max_dim``; see
    :func:`periodlab.sweep.conjecture_sweep`.  ``max_dim`` is bounded by
    the form oracle's bound, ``FORM_ORACLE_DIM_BOUND``: a cold run there
    takes about 6 s on a 2-vCPU VM."""
    if not 2 <= max_dim <= FORM_ORACLE_DIM_BOUND:
        raise UsageError(
            f"max_dim must be between 2 and {FORM_ORACLE_DIM_BOUND}")
    try:
        catalog, source = _resolve_catalog(catalog_path)
    except (OSError, UnicodeDecodeError, PeriodLabError) as exc:
        report = Report(input=f"sweep max_dim={max_dim}")
        report.add(CATALOG_CHECK, ERROR, TAG_CATALOG, str(exc))
        return report
    return conjecture_sweep(catalog, source, max_dim)


# ---------------------------------------------------------------------------
# entry point


@cache
def _build_argparser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="periodlab",
        description=("Rules and matrix oracles for symplectic-period "
                     "parameter classification."))
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="check one parameter expression")
    c.add_argument("expr", help="expression, e.g. 'St(3,q8) (+) q8b'")
    c.add_argument("--catalog", metavar="PATH",
                   help=f"catalog file (default: ${CATALOG_ENV} or built-in)")
    c.add_argument("--oracle", action="store_true",
                   help="cross-check the rules against the matrix oracle")
    c.add_argument("--json", action="store_true", help="JSON output")

    v = sub.add_parser("verify-matrices",
                       help="run the exact matrix identity suites")
    v.add_argument("--max-n", type=int, default=6, metavar="N",
                   help=f"verify forms and conjugators up to GL(2N), "
                        f"1..{VERIFY_MAX_N} (default 6)")
    v.add_argument("--max-k", type=int, default=8, metavar="K",
                   help=f"verify form parity up to S(K), 1..{VERIFY_MAX_K} "
                        f"(default 8)")
    v.add_argument("--json", action="store_true", help="JSON output")

    s = sub.add_parser("sweep",
                       help="enumerate regular discrete sums and "
                            "cross-check the oracle")
    s.add_argument("--catalog", metavar="PATH",
                   help=f"catalog file (default: ${CATALOG_ENV} or built-in)")
    s.add_argument("--max-dim", type=int, default=8, metavar="D",
                   help=f"total dimension cap, 2..{FORM_ORACLE_DIM_BOUND} "
                        f"(default 8)")
    s.add_argument("--json", action="store_true", help="JSON output")
    return ap


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.command == "classify":
            report = run_classify(args.expr, args.catalog, args.oracle)
        elif args.command == "verify-matrices":
            report = run_verify_matrices(args.max_n, args.max_k)
        else:
            report = run_conjecture_sweep(args.catalog, args.max_dim)
    except UsageError as exc:
        print(f"periodlab: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
