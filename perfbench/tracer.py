"""Span tracer for qpart, installed from outside the package.

``Tracer.install()`` replaces each layer's public functions with a wrapper
that records one span per call: name, start, end and the enclosing span.
``from .series import pochhammer_finite`` binds a second name for the same
function in the importing module, so the wrapper is put into every ``qpart``
module namespace that holds the original, and methods are patched on the
class.  ``uninstall()`` puts the originals back.

Spans are kept in flat arrays while the workload runs and are reduced to the
per-layer metrics in ``PER_LAYER`` afterwards.  Self time is a span's
duration minus the durations of its direct children.  An ``_s`` metric of a
group (``series.mul_s``, ``counting.gf_s``, ...) is the inclusive time of the
group's outermost spans, so recursion inside a group is not counted twice.
Hit ratios come from the public ``cache_info()`` of the ``lru_cache``d
functions ``gf``, ``gf_parity_difference`` and ``count_by_enumeration``.

Calibration bursts (``calibration.py``) that interrupt a span are recorded
with ``record_burst`` and taken out of every span that contains them, and
every time is reported in reference seconds, like the end-to-end times.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

from qpart import bijections, cli, counting, partitions, series, verify
from qpart.series import TruncatedSeries

from metrics import LAYERS, TASK_IDS

# Public entry points per layer, with the metric group of their spans.
# Constructors and trivial accessors (``coefficient``, ``order``) are left
# alone: they do no work worth a span and are called per cell.
_SERIES_METHODS = {
    "__add__": "series.arith", "__sub__": "series.arith", "__neg__": "series.arith",
    "scale": "series.arith", "shift": "series.arith", "halve": "series.arith",
    "__mul__": "series.mul", "reciprocal": "series.reciprocal",
}
_FUNCTIONS = (
    (series, "pochhammer_finite", "series.pochhammer"),
    (series, "pochhammer_infinite", "series.pochhammer"),
    (series, "pochhammer_infinite_starts", "series.pochhammer"),
    (series, "series_sum", "series.arith"),
    (series, "compare_series", "series.arith"),
    (partitions, "is_member", "partitions.is_member"),
    (partitions, "anchor_decompositions", "partitions.other"),
    (counting, "count_by_enumeration", "counting.enum"),
    (counting, "enumerate_class", "counting.enum"),
    (counting, "gf", "counting.gf"),
    (counting, "gf_parity_difference", "counting.gf"),
    (counting, "count_by_series", "counting.other"),
    (counting, "count_ak_doubled", "counting.other"),
    (counting, "count_table", "counting.other"),
    (counting, "c_family_ambiguity", "counting.other"),
    (counting, "derive_dk_relation", "counting.other"),
    (counting, "pentagonal_indicator", "counting.other"),
    (bijections, "glaisher_merge", "bijections.forward"),
    (bijections, "akdk_map", "bijections.forward"),
    (bijections, "dk_recurrence_map", "bijections.forward"),
    (bijections, "base_bc_map", "bijections.forward"),
    (bijections, "bkck_map", "bijections.forward"),
    (bijections, "glaisher_split", "bijections.inverse"),
    (bijections, "akdk_inverse", "bijections.inverse"),
    (bijections, "dk_recurrence_inverse", "bijections.inverse"),
    (bijections, "base_bc_inverse", "bijections.inverse"),
    (bijections, "bkck_inverse", "bijections.inverse"),
    (bijections, "dk_recurrence_subrange", "bijections.other"),
    (bijections, "sketch_harness", "bijections.other"),
    (verify, "run_all", "verify.other"),
    (verify, "reports_to_junit", "verify.other"),
    (cli, "main", "cli.main"),
)
# Functions whose span group depends on an argument.
_EF_DIRECTION_GROUP = {"B->F": "bijections.forward", "B->E": "bijections.forward",
                       "F->B": "bijections.inverse", "E->B": "bijections.inverse"}


def _coeff_bits(s: TruncatedSeries) -> int:
    return max(max(s.coeffs), -min(s.coeffs)).bit_length()


class Tracer:
    """Records spans of qpart's public calls; one instance per traced run."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.span_groups: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.burst_parent = array("q")
        self.burst_s = array("d")
        self._patched: list[tuple[object, str, object]] = []
        self.max_coeff_bits = 0
        self.mul_coeff_ops = 0
        self.members_enumerated = 0
        self.gf_coeffs = 0
        self.verify_cells = 0
        self._caches = {"gf": counting.gf, "gf_parity_difference": counting.gf_parity_difference,
                        "count_by_enumeration": counting.count_by_enumeration}
        self._seen_misses = {name: fn.cache_info().misses for name, fn in self._caches.items()}

    # -- recording --------------------------------------------------------

    def _intern(self, name: str, group: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.span_groups.append(group)
        return nid

    def _wrap(self, fn, name, group, label=None, after=None):
        """Wrapper recording a span; ``label(args)`` picks (name, group) per call."""
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter
        fixed = self._intern(name, group)
        intern = self._intern

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(fixed if label is None else intern(*label(args)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def record_burst(self, start: float, end: float) -> None:
        """A calibration burst ran inside the innermost open span."""
        self.burst_parent.append(self._stack[-1])
        self.burst_s.append(end - start)

    def _after_series(self, args, result) -> None:
        if isinstance(result, TruncatedSeries):
            self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result))

    def _after_mul(self, args, result) -> None:
        n = args[0].order
        self.mul_coeff_ops += (n + 1) * (n + 2) // 2
        self._after_series(args, result)

    def _missed(self, cache: str) -> bool:
        misses = self._caches[cache].cache_info().misses
        missed = misses != self._seen_misses[cache]
        self._seen_misses[cache] = misses
        return missed

    def _after_gf(self, cache: str):
        def after(args, result) -> None:
            if self._missed(cache):
                self.gf_coeffs += result.order + 1
                self._after_series(args, result)
        return after

    def _after_count(self, args, result) -> None:
        if self._missed("count_by_enumeration"):
            self.members_enumerated += result

    def _after_enumerate(self, args, result) -> None:
        self.members_enumerated += len(result)

    def _after_run_task(self, args, result) -> None:
        self.verify_cells += result.checked_cells

    # -- installing -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qpart" and not mod_name.startswith("qpart."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for method, group in _SERIES_METHODS.items():
            original = getattr(TruncatedSeries, method)
            after = self._after_mul if method == "__mul__" else self._after_series
            self._patched.append((TruncatedSeries, method, original))
            setattr(TruncatedSeries, method, self._wrap(
                original, f"series.TruncatedSeries.{method}", group, after=after))
        hooks = {
            "count_by_enumeration": self._after_count,
            "enumerate_class": self._after_enumerate,
            "gf": self._after_gf("gf"),
            "gf_parity_difference": self._after_gf("gf_parity_difference"),
        }
        for module, attr, group in _FUNCTIONS:
            original = getattr(module, attr)
            after = hooks.get(attr, self._after_series if module is series else None)
            name = f"{module.__name__.rpartition('.')[2]}.{attr}"
            self._replace_everywhere(original, self._wrap(original, name, group, after=after))
        self._replace_everywhere(verify.run_task, self._wrap(
            verify.run_task, "verify.run_task", "verify.other",
            label=lambda a: (f"verify.run_task[{a[0]}]", f"verify.task.{a[0]}"),
            after=self._after_run_task))
        self._replace_everywhere(bijections.ef_shift, self._wrap(
            bijections.ef_shift, "bijections.ef_shift", "bijections.other",
            label=lambda a: (f"bijections.ef_shift[{a[0]}]",
                             _EF_DIRECTION_GROUP.get(a[0], "bijections.other"))))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reducing ---------------------------------------------------------

    def hit_ratios(self) -> dict[str, float]:
        """Cache hit ratio of the GF builders together and of enumeration."""
        def ratio(infos):
            hits = sum(i.hits for i in infos)
            total = hits + sum(i.misses for i in infos)
            return hits / total if total else 0.0
        gf_infos = [self._caches[c].cache_info() for c in ("gf", "gf_parity_difference")]
        enum = self._caches["count_by_enumeration"].cache_info()
        return {"gf": ratio(gf_infos), "enum": ratio([enum]), "enum_misses": enum.misses}

    def reduce(self) -> dict:
        """Per-layer self time, and per-group call counts and outermost time.

        Durations are net of the calibration bursts inside a span.
        """
        n = len(self.start)
        groups = self.span_groups
        group_bit = {g: 1 << i for i, g in enumerate(dict.fromkeys(groups))}
        name_id, parent = self.name_id, self.parent
        own_bursts = [0.0] * n  # burst time directly inside span i
        for p, b in zip(self.burst_parent, self.burst_s):
            if p >= 0:
                own_bursts[p] += b
        # Children follow their parent, so one backward pass sums subtrees.
        net = [self.end[i] - self.start[i] for i in range(n)]
        bursts_below = own_bursts[:]
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                bursts_below[p] += bursts_below[i]
        child = [0.0] * n
        ancestors = [0] * n  # bit mask of the groups of every enclosing span
        calls: dict[str, int] = {}
        outer: dict[str, float] = {}
        for i in range(n):
            net[i] -= bursts_below[i]
            group = groups[name_id[i]]
            p = parent[i]
            if p >= 0:
                child[p] += net[i]
                ancestors[i] = ancestors[p] | group_bit[groups[name_id[p]]]
            calls[group] = calls.get(group, 0) + 1
            if not ancestors[i] & group_bit[group]:
                outer[group] = outer.get(group, 0.0) + net[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            layer_self[groups[name_id[i]].partition(".")[0]] += net[i] - child[i]
        return {"spans": n, "calls": calls, "outer_s": outer, "self_s": layer_self}

    def metrics(self, scale: float) -> dict[str, float]:
        """Every ``PER_LAYER`` metric the tracer measures itself.

        ``scale`` turns seconds on this machine into reference seconds.

        ``bijections.roundtrips``, ``bijections.roundtrip_failures``,
        ``cli.output_bytes`` and ``trace.overhead_s`` come from the workload
        and the run, not from spans.
        """
        r = self.reduce()
        calls = r["calls"]
        outer = {g: t * scale for g, t in r["outer_s"].items()}
        self_s = {layer: t * scale for layer, t in r["self_s"].items()}
        ratios = self.hit_ratios()
        series_calls = sum(c for g, c in calls.items() if g.startswith("series."))
        enum_s = outer.get("counting.enum", 0.0)
        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m.update({
            "series.calls": series_calls,
            "series.mul_calls": calls.get("series.mul", 0),
            "series.mul_s": outer.get("series.mul", 0.0),
            "series.mul_coeff_ops": self.mul_coeff_ops,
            "series.reciprocal_calls": calls.get("series.reciprocal", 0),
            "series.reciprocal_s": outer.get("series.reciprocal", 0.0),
            "series.pochhammer_s": outer.get("series.pochhammer", 0.0),
            "series.max_coeff_bits": self.max_coeff_bits,
            "counting.enum_calls": calls.get("counting.enum", 0),
            "counting.enum_misses": ratios["enum_misses"],
            "counting.enum_hit_ratio": ratios["enum"],
            "counting.members_enumerated": self.members_enumerated,
            "counting.enum_s": enum_s,
            "counting.members_per_s": self.members_enumerated / enum_s if enum_s else 0.0,
            "counting.gf_calls": calls.get("counting.gf", 0),
            "counting.gf_hit_ratio": ratios["gf"],
            "counting.gf_s": outer.get("counting.gf", 0.0),
            "counting.gf_coeffs": self.gf_coeffs,
            "partitions.is_member_calls": calls.get("partitions.is_member", 0),
            "partitions.is_member_s": outer.get("partitions.is_member", 0.0),
            "bijections.forward_calls": calls.get("bijections.forward", 0),
            "bijections.forward_s": outer.get("bijections.forward", 0.0),
            "bijections.inverse_s": outer.get("bijections.inverse", 0.0),
            "verify.cells": self.verify_cells,
        })
        m.update({f"verify.task_s.{t}": outer.get(f"verify.task.{t}", 0.0) for t in TASK_IDS})
        m["trace.spans"] = r["spans"]
        return m
