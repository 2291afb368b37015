"""Spans around periodlab's public functions, recorded from outside.

``from .x import f`` binds ``f`` in the caller's module, so a function is
wrapped under every name a periodlab module holds it by, not only where it is
defined.  Spans live in memory as (layer, start, end, parent, mark) and are
aggregated when the pass ends: a layer's self time is its spans' time minus
the part of it that child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

ROOT = "cli"

# layer -> functions it owns, as (defining module, name)
LAYERS = {
    "matrix_lab.realize": [("matrix_lab", "realize")],
    "matrix_lab.invariant_forms": [("matrix_lab", "invariant_forms")],
    "matrix_lab.find_nondegenerate_skew": [
        ("matrix_lab", "find_nondegenerate_skew")],
    "matrix_lab.is_in_sp": [("matrix_lab", "is_in_sp")],
    "matrix_lab.conjugator_for_partition": [
        ("matrix_lab", "conjugator_for_partition")],
    "matrix_lab.invariant_form_sl2": [("matrix_lab", "invariant_form_sl2")],
    "group_models.invariant_isotropic_exists": [
        ("group_models", "invariant_isotropic_exists")],
    "group_models.commutant_dimension": [
        ("group_models", "commutant_dimension")],
    "distinction.oracle_verdicts": [("distinction", "oracle_verdicts")],
    "distinction.rules": [
        ("distinction", "is_linear_distinguished"),
        ("distinction", "factors_through_sp_symbolic"),
        ("distinction", "is_x_elliptic_symbolic"),
        ("param_core", "is_tempered"),
        ("distinction", "validate_rds"),
    ],
    "notation.parse_param": [("notation", "parse_param")],
}
# methods wrapped on their class
METHOD_LAYERS = {
    "reporting.render": [("reporting", "Report", "to_json"),
                         ("reporting", "Report", "render")],
}
# called inside the skew search, classify_form counts its candidates
SKEW = "matrix_lab.find_nondegenerate_skew"
CANDIDATE = ("matrix_lab", "classify_form")

EXACT, FOUND, REFUSED = "exact", "found", "refused"


def _mark(layer: str, args, result, refused: bool) -> str | None:
    """What the per-layer ratios count for one call."""
    if layer == "matrix_lab.is_in_sp":
        gram = getattr(args[1], "gram", args[1])
        return EXACT if args[0].exact and gram.exact else None
    if layer == "matrix_lab.invariant_forms":
        return EXACT if getattr(args[0], "exact", False) else None
    if layer == "matrix_lab.realize":
        return EXACT if result is not None and result.exact else None
    if layer == SKEW:
        return FOUND if result is not None else None
    if layer == "group_models.invariant_isotropic_exists":
        return REFUSED if refused else None
    return None


class Tracer:
    """Records spans for one traced pass; ``install`` wraps, ``uninstall``
    restores every binding it replaced."""

    def __init__(self):
        from periodlab.errors import PeriodLabError
        self._refusal = PeriodLabError  # a documented refusal, not a crash
        self.spans: list = []
        self.candidates = 0
        self.missing: set[str] = set()
        self._stack: list[tuple[int, str]] = []
        self._patched: list = []

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((idx, layer))
        result = exc = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as e:
            exc = e
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            mark = _mark(layer, args, result, isinstance(exc, self._refusal))
            self.spans[idx] = (layer, start, end, parent, mark)

    def _span_wrapper(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _candidate_wrapper(self, fn):
        def counted(*args, **kwargs):
            if self._stack and self._stack[-1][1] == SKEW:
                self.candidates += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def _lookup(self, mod: str, *path: str):
        obj = sys.modules.get(f"periodlab.{mod}")
        for name in path:
            obj = getattr(obj, name, None)
        if obj is None:
            self.missing.add(".".join((mod, *path)))
        return obj

    def install(self) -> None:
        targets = {}
        for layer, funcs in LAYERS.items():
            for mod, name in funcs:
                fn = self._lookup(mod, name)
                if fn is not None:
                    targets[id(fn)] = (fn, self._span_wrapper(layer, fn))
        fn = self._lookup(*CANDIDATE)
        if fn is not None:
            targets[id(fn)] = (fn, self._candidate_wrapper(fn))
        for name, module in list(sys.modules.items()):
            if name != "periodlab" and not name.startswith("periodlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for layer, methods in METHOD_LAYERS.items():
            for mod, cls_name, name in methods:
                cls = self._lookup(mod, cls_name)
                fn = vars(cls).get(name) if cls is not None else None
                if fn is None:
                    continue
                self._patched.append((cls, name, fn))
                setattr(cls, name, self._span_wrapper(layer, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()


def layer_totals(spans) -> dict[str, dict]:
    """Calls, self seconds and marks per layer."""
    covered = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for i, (layer, start, end, _, mark) in enumerate(spans):
        row = out.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                     "marks": Counter()})
        row["calls"] += 1
        row["self_s"] += (end - start) - covered[i]
        if mark is not None:
            row["marks"][mark] += 1
    return out


def root_seconds(spans) -> float:
    return sum(end - start for _, start, end, parent, _ in spans
               if parent < 0)
