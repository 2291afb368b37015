"""The three periodlab benchmark workloads: their commands and output checks.

Each workload is a list of ``periodlab`` command lines, run in order by one
closed-loop client.  The program only ever sees these argument lists; the
benchmark builds them itself, so this module imports nothing from periodlab.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

# The built-in catalog's labels as (name, dimension, exact matrix model,
# self-duality sign: +1 orthogonal, -1 symplectic, 0 neither).  Kept here so
# that the expressions are generated without the program; test_periodbench.py
# checks the table against builtin_catalog().
BUILTIN_LABELS = (
    ("chi3", 1, False, 0),
    ("chi3bar", 1, False, 0),
    ("d4", 2, True, 1),
    ("q8", 2, True, -1),
    ("q8b", 2, True, -1),
    ("s3", 2, True, 1),
    ("trivial", 1, True, 1),
)
CLASSIFY_MAX_DIM = 8
# The isotropy oracle handles block lengths up to SL2_SURROGATE_BOUND = 6 and
# refuses longer blocks by design, so the mix stays inside that documented
# range.  The refusal itself (St(8,trivial)) is pinned by the acceptance tests.
CLASSIFY_MAX_K = 6
CLASSIFY_COUNT = 300
# The mix's largest peak RSS (57 MB against 49 MB for a typical sample).
# Warming up on it keeps peak_rss_mb from depending on whether the seed's
# sample happens to contain it.
CLASSIFY_WARMUP = "q8 (+) q8b (+) s3 (+) St(2,chi3bar)"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``commands(seed)`` gives the timed command lines; ``warmup`` is one
    untimed command on the same code path.  ``check(code, report)`` says
    whether one command's output is correct, and ``items(report)`` how many
    user-visible items it handled (specs, expressions or suites).
    ``passes`` is how many times the commands are timed: a constant, so that
    every commit summarizes each command over the same number of tries, and
    small enough that a run, set-up included, stays within 40 s even when a
    shared machine runs 1.5 times slower than usual.
    """

    name: str
    why: str
    commands: Callable[[int], list[list[str]]]
    warmup: list[str]
    check: Callable[[int | None, dict | None], bool]
    items: Callable[[dict], int]
    passes: int


# ---------------------------------------------------------------------------
# sweep


def sweep_workload(max_dim: int = 6, specs: int = 22) -> Workload:
    """``sweep --max-dim`` once; ``specs`` is the enumeration count."""

    def check(code: int | None, report: dict | None) -> bool:
        if code != 0 or report is None \
                or report.get("oracle_agreement") is not True:
            return False
        enumeration = next((c for c in report["checks"]
                            if c["name"] == "enumeration"), None)
        if enumeration is None or not str(
                enumeration.get("details")).startswith(f"{specs} valid specs"):
            return False
        return all(c["verdict"] == "pass" for c in report["checks"])

    return Workload(
        f"sweep-d{max_dim}",
        f"{specs} exact-path symplectic specs and the controls: exact form "
        f"verification (is_in_sp) and exact invariant forms dominate",
        lambda seed: [["sweep", "--max-dim", str(max_dim), "--json"]],
        ["sweep", "--max-dim", "4", "--json"],
        check,
        lambda report: sum(c["name"].startswith("rds ")
                           for c in report["checks"]),
        20)


# ---------------------------------------------------------------------------
# classify-mix


class Seg(NamedTuple):
    """St(k, label), with what the benchmark knows of its label."""

    label: str
    dim: int
    k: int
    exact: bool
    sign: int

    @property
    def self_duality(self) -> int:
        """The segment's sign: the label's times +1 for odd k, -1 for even."""
        return self.sign * (1 if self.k % 2 else -1)


def classify_universe() -> list[tuple[Seg, ...]]:
    """Every nonempty multiset of built-in segments St(k, label) with
    multiplicity <= 2, total dimension <= 8 and k <= 6."""
    pool = [Seg(name, dim, k, exact, sign)
            for name, dim, exact, sign in BUILTIN_LABELS
            for k in range(1, min(CLASSIFY_MAX_DIM // dim, CLASSIFY_MAX_K) + 1)]
    out = []

    def rec(i, remaining, acc):
        if i == len(pool):
            if acc:
                out.append(tuple(acc))
            return
        seg = pool[i]
        for copies in range(3):
            if copies * seg.dim * seg.k > remaining:
                break
            rec(i + 1, remaining - copies * seg.dim * seg.k, acc + [seg] * copies)

    rec(0, CLASSIFY_MAX_DIM, [])
    return out


def expression(multiset) -> str:
    """The text ``print_param`` gives for an untwisted multiset."""
    ordered = sorted(multiset, key=lambda s: (s.dim * s.k, s.k, s.label))
    return " (+) ".join(s.label if s.k == 1 else f"St({s.k},{s.label})"
                        for s in ordered)


def _stratum(multiset) -> tuple:
    """Cost class: total dimension, arithmetic path, how many segments are of
    orthogonal, symplectic or neither type, and how many appear twice (a
    repeated segment makes the oracle's commutant and forms larger)."""
    types = Counter(s.self_duality for s in multiset)
    doubled = sum(n == 2 for n in Counter(multiset).values())
    return (sum(s.dim * s.k for s in multiset), all(s.exact for s in multiset),
            types[1], types[-1], types[0], doubled)


def classify_sample(seed: int, count: int = CLASSIFY_COUNT) -> list:
    """``count`` distinct multisets drawn with ``seed``.

    The draw is uniform within each cost class, and each class gets its
    proportional share (largest remainder), so every seed has the same mix of
    dimensions, arithmetic paths, segment types and repeated segments.  Over
    200 seeds, with each expression's time fixed at one measurement of the
    whole universe, a plain uniform draw of 300 spreads the total time by 13%
    and the p95 latency by 24% (quartile distance over median); this draw, by
    2% and 4%.
    """
    strata: dict[tuple, list] = {}
    for ms in classify_universe():
        strata.setdefault(_stratum(ms), []).append(ms)
    total = sum(len(v) for v in strata.values())
    quota = {k: count * len(v) / total for k, v in strata.items()}
    share = {k: int(q) for k, q in quota.items()}
    left = count - sum(share.values())
    for k in sorted(quota, key=lambda k: (share[k] - quota[k], k))[:left]:
        share[k] += 1
    rng = random.Random(seed)
    picked = []
    for k in sorted(strata):
        picked.extend(rng.sample(strata[k], share[k]))
    rng.shuffle(picked)
    return picked


def classify_expressions(seed: int, count: int = CLASSIFY_COUNT) -> list[str]:
    return [expression(ms) for ms in classify_sample(seed, count)]


def classify_check(code: int | None, report: dict | None) -> bool:
    """Exit 0 or 1, rules and oracle agree, and no check is an error
    (a documented refusal included)."""
    return (code in (0, 1) and report is not None
            and report.get("oracle_agreement") is True
            and all(c["verdict"] != "error" for c in report["checks"]))


def classify_workload(count: int = CLASSIFY_COUNT) -> Workload:
    """``classify EXPR --oracle`` for each seeded expression."""
    return Workload(
        "classify-mix",
        "300 seeded multiplicity<=2 expressions, mostly float path and "
        "non-factoring: the exhaustive skew search and float forms dominate",
        lambda seed: [["classify", e, "--oracle", "--json"]
                      for e in classify_expressions(seed, count)],
        ["classify", CLASSIFY_WARMUP, "--oracle", "--json"],
        classify_check,
        lambda report: 1,
        3)


# ---------------------------------------------------------------------------
# verify-matrices

VERIFY_SUITES = ("symplectic-forms", "partition-conjugators", "w-plus",
                 "form-parity")


def verify_workload(max_n: int = 6, max_k: int = 8) -> Workload:
    """``verify-matrices`` once; all four suites must pass."""

    def check(code: int | None, report: dict | None) -> bool:
        if code != 0 or report is None:
            return False
        verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
        return all(verdicts.get(s) == "pass" for s in VERIFY_SUITES)

    return Workload(
        f"verify-n{max_n}k{max_k}",
        "standalone exact identities (partition conjugators, sl2 forms) "
        "with no realization, skew search or isotropy",
        lambda seed: [["verify-matrices", "--max-n", str(max_n), "--max-k",
                       str(max_k), "--json"]],
        ["verify-matrices", "--max-n", "2", "--max-k", "3", "--json"],
        check,
        lambda report: len(report["checks"]),
        16)


WORKLOADS = {w.name: w for w in (sweep_workload(), classify_workload(),
                                 verify_workload())}
