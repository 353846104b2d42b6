"""Spans around the calls one mlfourier module makes into another.

The tracer replaces module-level names (for example `radial_fourier.ml_eval`,
the name radial_fourier uses to call into mittag_leffler) with wrappers that
time each call and restores them afterwards; src/ is not touched.  Spans stay
in memory and are written out when the run ends.  A span's self time is its
duration minus the time covered by its child spans.

The wrappers keep one call stack, so the traced run must be single-threaded
(the benchmark runs with MLF_THREADS=1).
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name).  Several call sites may share a span name.
SPANS = (
    ("mlfourier.cli", "main", "cli.main"),
    ("mlfourier.asymptotics", "verify_small_xi", "asymptotics.verify_small_xi"),
    ("mlfourier.cli", "ml_transform", "radial_fourier.ml_transform"),
    ("mlfourier.asymptotics", "ml_transform", "radial_fourier.ml_transform"),
    ("mlfourier.radial_fourier", "compute_M", "radial_fourier.compute_M"),
    ("mlfourier.radial_fourier", "compute_N", "radial_fourier.compute_N"),
    ("mlfourier.radial_fourier", "accelerated_limit", "special_core.accel"),
    ("mlfourier.radial_fourier", "ml_eval", "mittag_leffler.ml_eval"),
    ("mlfourier.mittag_leffler", "ml_eval", "mittag_leffler.ml_eval"),
    ("mlfourier.mittag_leffler", "ml_series", "mittag_leffler.series"),
    ("mlfourier.mittag_leffler", "_series_mpmath", "mittag_leffler.series_mp"),
    ("mlfourier.mittag_leffler", "ml_on_ray", "mittag_leffler.contour"),
    ("mlfourier.mittag_leffler", "_sector_sum_adaptive", "mittag_leffler.sector"),
    ("mlfourier.radial_fourier", "jbar", "bessel.jbar"),
    ("mlfourier.bessel", "jbar", "bessel.jbar"),
    ("mlfourier.bessel", "_series_mpmath", "bessel.series_mp"),
    ("mlfourier.special_core", "quad", "special_core.quad"),
)

# Calls too cheap and too many to time: counted only.
COUNTERS = (
    ("mlfourier.mittag_leffler", "reciprocal_gamma", "special_core.gamma"),
    ("mlfourier.bessel", "reciprocal_gamma", "special_core.gamma"),
    ("mlfourier.bessel", "complex_gamma", "special_core.gamma"),
)

SPAN_CAP = 200_000  # spans kept for the trace file; totals cover every span


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()  # counters and hook tallies
        self.transform_s: list[float] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.unit = -1  # index of the workload unit being run
        self._stack: list[list] = []  # [span id, child seconds, last child name]
        self._next_id = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, self._span(name))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, self._counter(name))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def _counter(self, name: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _span(self, name: str):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        on_open = _ON_OPEN.get(name)
        on_close = _ON_CLOSE.get(name)
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else None
                if on_open is not None:
                    on_open(tracer, parent)
                span_id = tracer._next_id
                tracer._next_id += 1
                frame = [span_id, 0.0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    tracer.calls[name] += 1
                    tracer.total_s[name] += dur
                    tracer.self_s[name] += dur - frame[1]
                    if parent is not None:
                        parent[1] += dur
                        parent[2] = name
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append(
                            (span_id, parent[0] if parent else -1, tracer.unit, index, t0, t1)
                        )
                    else:
                        tracer.dropped += 1
                if on_close is not None:
                    on_close(tracer, out, dur)
                return out

            return traced

        return make

    def write(self, path: Path) -> None:
        body = {
            "fields": ["id", "parent", "unit", "name", "t0", "t1"],
            "names": self.names,
            "spans": self.spans,
            "dropped": self.dropped,
        }
        path.write_text(json.dumps(body), encoding="utf-8")


def _contour_open(tracer: Tracer, parent) -> None:
    # ml_eval tried the sector sum first and it missed its tolerance.
    if parent is not None and parent[2] == "mittag_leffler.sector":
        tracer.counts["sector.fell_through"] += 1


def _quad_close(tracer: Tracer, out, dur) -> None:
    if len(out) >= 3 and isinstance(out[2], dict):
        tracer.counts["quad.evals"] += out[2].get("neval", 0)


def _accel_close(tracer: Tracer, out, dur) -> None:
    tracer.counts["accel.terms"] += out[2]


def _transform_close(tracer: Tracer, out, dur) -> None:
    tracer.transform_s.append(dur)


_ON_OPEN = {"mittag_leffler.contour": _contour_open}
_ON_CLOSE = {
    "special_core.quad": _quad_close,
    "special_core.accel": _accel_close,
    "radial_fourier.ml_transform": _transform_close,
}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of a traced run, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def calls_and_cost(prefix: str, span: str) -> None:
        m[f"{prefix}.calls"] = (t.calls[span], "count")
        m[f"{prefix}.us_per_call"] = (1e6 * _per(t.total_s[span], t.calls[span]), "us")

    for short in ("ml_eval", "series", "series_mp", "contour", "sector"):
        calls_and_cost(f"mittag_leffler.{short}", f"mittag_leffler.{short}")
    m["mittag_leffler.series_mp.ratio"] = (
        _per(t.calls["mittag_leffler.series_mp"], t.calls["mittag_leffler.series"]), "ratio")
    sector = t.calls["mittag_leffler.sector"]
    m["mittag_leffler.sector.accept_ratio"] = (
        _per(sector - t.counts["sector.fell_through"], sector), "ratio")
    calls_and_cost("bessel.jbar", "bessel.jbar")
    calls_and_cost("bessel.series_mp", "bessel.series_mp")
    m["special_core.quad.calls"] = (t.calls["special_core.quad"], "count")
    m["special_core.quad.evals"] = (t.counts["quad.evals"], "count")
    m["special_core.quad.self_s"] = (t.self_s["special_core.quad"], "s")
    m["special_core.accel.calls"] = (t.calls["special_core.accel"], "count")
    m["special_core.accel.terms"] = (t.counts["accel.terms"], "count")
    m["special_core.gamma.calls"] = (t.counts["special_core.gamma"], "count")
    transforms = t.calls["radial_fourier.ml_transform"]
    durs = sorted(t.transform_s)
    m["radial_fourier.ml_transform.calls"] = (transforms, "count")
    m["radial_fourier.ml_transform.s_p50"] = (statistics.median(durs) if durs else 0.0, "s")
    m["radial_fourier.ml_transform.s_p90"] = (
        statistics.quantiles(durs, n=10)[8] if len(durs) >= 2 else (durs[0] if durs else 0.0), "s")
    for part in ("compute_M", "compute_N"):
        m[f"radial_fourier.{part}.self_s"] = (t.self_s[f"radial_fourier.{part}"], "s")
        m[f"radial_fourier.{part}.total_s"] = (t.total_s[f"radial_fourier.{part}"], "s")
    m["radial_fourier.ml_eval_per_transform"] = (
        _per(t.calls["mittag_leffler.ml_eval"], transforms), "count")
    m["radial_fourier.jbar_per_transform"] = (_per(t.calls["bessel.jbar"], transforms), "count")
    m["radial_fourier.chunks_per_transform"] = (_per(t.counts["accel.terms"], transforms), "count")
    m["asymptotics.verify_small_xi.self_s"] = (t.self_s["asymptotics.verify_small_xi"], "s")
    m["cli.main.self_s"] = (t.self_s["cli.main"], "s")
    return m
