"""Span tracer for gridcode's layers, installed from outside the package.

Each layer entry point is replaced by a wrapper that records one span
(name, parent span, start, end) in flat in-memory arrays.  The wrapper is
bound in place of every module-level reference inside ``gridcode.*`` (and on
the class for methods), so by-name imports such as ``from .rand import
derive_rng`` are traced too.  Self time is computed after the run as a
span's duration minus the durations of its direct children; spans of one
thread nest strictly, so that is the part of the interval children cover.

Metrics are taken over a range of spans between two ``mark()`` calls, such
as the set-up or the traced passes.  Totals (unit ``s`` or ``count``) are
divided by the number of passes in the range, so they read per pass and do
not grow with the number of passes a faster program fits into a run.

Entry points that do not exist are skipped and listed in ``missing``, so a
later refactor that deletes one drops only its metrics.
"""

from __future__ import annotations

import array
import fnmatch
import functools
import math
import statistics
import sys
import time

import numpy as np

# (span name, module, attribute); an attribute may be "Class.method" or a
# glob over module attributes.  The layer is the span name's first part.
ENTRY_POINTS = (
    ("cli", "gridcode.cli", "main"),
    ("rand.derive_rng", "gridcode.rand", "derive_rng"),
    ("cube.build", "gridcode.cube", "CubeFunction.__init__"),
    ("cube.corrupt", "gridcode.cube", "corrupt"),
    ("cube.query_masks", "gridcode.cube", "restriction_query_masks"),
    ("poly.truth_table", "gridcode.poly", "MultilinearPoly.truth_table"),
    ("poly.moebius", "gridcode.poly", "from_truth_table"),
    ("poly.random_poly", "gridcode.poly", "random_poly"),
    ("restrict.sample", "gridcode.restrict", "sample_restriction_*"),
    ("restrict.sample", "gridcode.restrict", "sample_buckets_*"),
    ("tester", "gridcode.tester", "run_test_once"),
    ("decoder", "gridcode.decoder", "local_decode"),
    ("tolerant", "gridcode.tolerant", "tolerant_test"),
    ("oracle.exact_delta_d", "gridcode.oracle", "exact_delta_d"),
    ("oracle.certify_far", "gridcode.oracle", "certify_far"),
    ("oracle.min_disagreement", "gridcode.oracle", "_min_disagreement"),
    ("lowerbound.span", "gridcode.lowerbound", "t_span_contains"),
    ("lowerbound.vectors", "gridcode.lowerbound", "sample_balanced_vectors"),
    ("dualwitness.build", "gridcode.dualwitness", "build_witness"),
    ("dualwitness.verify", "gridcode.dualwitness", "verify_witness"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.weighted_spans: list[int] = []
        self.oracle_keys: list[tuple[int, tuple]] = []
        self.missing: list[str] = []
        # (owner, attribute, original, wrapper)
        self._patches: list[tuple[object, str, object, object]] = []
        self.hooks = {
            "cube.build": self._on_build,
            "poly.truth_table": self._on_truth_table,
            "tester": self._on_test,
            "decoder": self._on_decode,
            "tolerant": self._on_tolerant,
            "oracle.exact_delta_d": self._on_exact,
            "oracle.min_disagreement": self._on_scan,
            "lowerbound.span": self._on_span,
        }

    # --- counters recorded at the layer boundaries -----------------------

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _on_build(self, idx, args, kwargs, result):
        self._add("cube.points_built", 1 << _arg(args, kwargs, 1, "n"))

    def _on_truth_table(self, idx, args, kwargs, result):
        n = args[0].n
        self._add("poly.zeta_ops", n << n)

    def _on_test(self, idx, args, kwargs, result):
        self._add("tester.queries", result.query_count)
        self._add("tester.rejections", 0 if result.accepted else 1)

    def _on_decode(self, idx, args, kwargs, result):
        params = _arg(args, kwargs, 2, "params")
        log = result[1]
        tail = ~((1 << (params.k + params.d)) - 1)
        self._add("decoder.queries", log.query_count)
        self._add("decoder.useful_queries", sum(1 for y, _ in log.queries if not y & tail))

    def _on_tolerant(self, idx, args, kwargs, result):
        self._add("tolerant.queries", result.queries_used)
        self._add("tolerant.screened", 0 if result.intolerant_accepted else 1)

    def _on_exact(self, idx, args, kwargs, result):
        f = args[0]
        self.oracle_keys.append((idx, (f.n, _arg(args, kwargs, 1, "d"), f.field.p)))

    def _on_scan(self, idx, args, kwargs, result):
        self._add("oracle.codewords_scanned", args[0].size)
        weights = args[3] if len(args) > 3 else kwargs.get("weights")
        if weights is not None:
            self.weighted_spans.append(idx)

    def _on_span(self, idx, args, kwargs, result):
        count = len(_arg(args, kwargs, 1, "candidates"))
        t = _arg(args, kwargs, 2, "t")
        self._add("lowerbound.span.subsets_budgeted",
                  sum(math.comb(count, u) for u in range(1, t + 1)))
        self._add("lowerbound.span.found", 1 if result.found else 0)

    # --- installation ----------------------------------------------------

    def _wrap(self, fn, name):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = self.hooks.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Bind the wrappers; the first call finds the entry points and records
        the ones that are missing."""
        if not self._patches:
            self._find()
        for owner, key, _, traced in self._patches:
            setattr(owner, key, traced)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _find(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gridcode" or key.startswith("gridcode."))]
        for name, module_name, attr in ENTRY_POINTS:
            module = sys.modules.get(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(method) if isinstance(cls, type) else None
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patches.append((cls, method, fn, self._wrap(fn, name)))
                continue
            found = [a for a in sorted(vars(module) if module else ())
                     if fnmatch.fnmatchcase(a, attr) and callable(getattr(module, a))]
            if not found:
                self.missing.append(f"{module_name}.{attr}")
            for a in found:
                fn = getattr(module, a)
                traced = self._wrap(fn, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, key, fn, traced))

    def write(self, path):
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    # --- metrics ----------------------------------------------------------

    def mark(self):
        """A point between spans: the span count and the counters so far."""
        return len(self.span_name), dict(self.counters)

    def metrics(self, lo, hi=None, passes=1) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the spans between marks ``lo`` and ``hi``
        (default: the end), leaving out entry points that were not called
        there.  Totals are divided by ``passes``; per-call medians are of whole
        spans, children included; ``attributed_s`` is the time inside any
        top-level span."""
        hi = hi or self.mark()
        count = len(self.span_name)
        name_all = np.frombuffer(self.span_name, dtype=np.int32)
        parent_all = np.frombuffer(self.span_parent, dtype=np.int64)
        dur_all = (np.frombuffer(self.span_end, dtype=np.float64)
                   - np.frombuffer(self.span_start, dtype=np.float64))
        nested_all = parent_all >= 0
        covered = np.bincount(parent_all[nested_all], weights=dur_all[nested_all],
                              minlength=count)
        # Spans never cross a mark, so children of the range are in the range.
        window = slice(lo[0], hi[0])
        name, parent, dur = name_all[window], parent_all[window], dur_all[window]
        self_time = (dur_all - covered)[window]
        nested = parent >= 0
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        self_by_name = np.bincount(name, weights=self_time, minlength=width)
        used = {s: i for s, i in self.name_ids.items() if calls[i]}
        c = {k: v - lo[1].get(k, 0) for k, v in hi[1].items()}
        out: dict[str, tuple[float, str]] = {}

        def put(key, span, value, unit):
            if span in used and value is not None:
                out[key] = (value, unit)

        def self_s(*spans):
            return float(sum(self_by_name[used[s]] for s in spans if s in used))

        def p50(span, scale):
            sel = dur[name == used.get(span, -1)]
            return float(np.median(sel)) * scale if len(sel) else None

        def ratio(num, span):
            return c.get(num, 0) / int(calls[used[span]]) if span in used else None

        for layer in ("cli", "tester", "decoder", "tolerant", "oracle"):
            spans = [s for s in used if s.split(".")[0] == layer]
            if spans:
                out[f"{layer}.self_s"] = (self_s(*spans), "s")
        for span in ("poly.truth_table", "poly.moebius", "poly.random_poly", "cube.build",
                     "cube.corrupt", "cube.query_masks", "restrict.sample", "rand.derive_rng",
                     "lowerbound.span", "lowerbound.vectors", "dualwitness.build",
                     "dualwitness.verify"):
            put(f"{span}.self_s", span, self_s(span), "s")
        for span in ("poly.truth_table", "poly.moebius", "restrict.sample",
                     "rand.derive_rng", "decoder", "tolerant", "lowerbound.span"):
            put(f"{span}.calls", span, int(calls[used.get(span, 0)]), "count")

        put("poly.truth_table.call_ms_p50", "poly.truth_table", p50("poly.truth_table", 1e3), "ms")
        put("poly.zeta_ops", "poly.truth_table", c.get("poly.zeta_ops"), "count")
        put("cube.tables_built", "cube.build", int(calls[used.get("cube.build", 0)]), "count")
        put("cube.points_built", "cube.build", c.get("cube.points_built"), "count")

        put("tester.runs", "tester", int(calls[used.get("tester", 0)]), "count")
        put("tester.run_us_p50", "tester", p50("tester", 1e6), "us")
        put("tester.queries", "tester", c.get("tester.queries"), "count")
        put("tester.reject_ratio", "tester", ratio("tester.rejections", "tester"), "ratio")

        put("decoder.call_us_p50", "decoder", p50("decoder", 1e6), "us")
        put("decoder.queries", "decoder", c.get("decoder.queries"), "count")
        if c.get("decoder.queries"):
            out["decoder.useful_query_ratio"] = (
                c["decoder.useful_queries"] / c["decoder.queries"], "ratio")

        oracle_ids = [used[s] for s in used if s.startswith("oracle.")]
        if oracle_ids:
            parent_name = np.where(nested, name_all[np.maximum(parent, 0)], -1)
            entry = np.isin(name, oracle_ids) & ~np.isin(parent_name, oracle_ids)
            out["oracle.calls"] = (int(entry.sum()), "count")
        put("oracle.codewords_scanned", "oracle.min_disagreement",
            c.get("oracle.codewords_scanned"), "count")
        weighted = [i for i in self.weighted_spans if lo[0] <= i < hi[0]]
        put("oracle.weighted.self_s", "oracle.min_disagreement",
            float((dur_all - covered)[weighted].sum()), "s")
        first: dict[tuple, float] = {}
        repeats: dict[tuple, list[float]] = {}
        for idx, key in self.oracle_keys:
            if not lo[0] <= idx < hi[0]:
                continue
            if key not in first:
                first[key] = float(dur_all[idx])
            else:
                repeats.setdefault(key, []).append(float(dur_all[idx]))
        if first:
            out["oracle.first_call_ms"] = (sum(first.values()) * 1e3, "ms")
        pooled = [v for values in repeats.values() for v in values]
        if pooled:
            out["oracle.repeat_call_ms_p50"] = (statistics.median(pooled) * 1e3, "ms")
        for key in sorted(first):
            tag = "n{}.d{}.p{}".format(*key)
            out[f"oracle.first_call_ms.{tag}"] = (first[key] * 1e3, "ms")
            if key in repeats:
                out[f"oracle.repeat_call_ms_p50.{tag}"] = (
                    statistics.median(repeats[key]) * 1e3, "ms")

        put("tolerant.queries", "tolerant", c.get("tolerant.queries"), "count")
        put("tolerant.screened_ratio", "tolerant", ratio("tolerant.screened", "tolerant"), "ratio")

        put("lowerbound.span.subsets_budgeted", "lowerbound.span",
            c.get("lowerbound.span.subsets_budgeted"), "count")
        put("lowerbound.span.found_ratio", "lowerbound.span",
            ratio("lowerbound.span.found", "lowerbound.span"), "ratio")

        out["attributed_s"] = (float(self_time.sum()), "s")
        return {key: (value / passes if unit in ("s", "count") else value, unit)
                for key, (value, unit) in out.items()}
