"""How each metric is computed from a run. Names and units are those
``BENCHMARK.json`` lists; ``run.py`` reports exactly those.

End-to-end metrics come from the untraced run (``--trace 0``): medians
and p99s over the run's samples, and rates per second. Every time is at
reference host speed (see ``hostspeed.py``). The record line states the
sample counts and the unscaled values. Per-layer metrics come from the
traced run (``--trace 1``) and are rolled up from its spans (see
``tracing.py``); every one whose unit is ``ms`` is at reference host
speed too.

Per-layer ``*_ms`` metrics are the mean self-time per call of the named
entry points, except ``net.request_ms`` and ``net.router_ms`` (whole
calls), ``wal.barrier_ms`` (whole waits) and ``refresh.ms_per_commit``.
``share.<layer>`` is the layer's self-time as a share of all interaction
wall time; with ``trace.unattributed_ratio`` the shares sum to 1.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Callable

from tracing import LAYER_NAMES, Span, has_ancestor, layer_of, self_times

BROWSER_KINDS = ("connect", "class", "instance", "render", "close")


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; fails loudly on no samples."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(tally, start: float, wall: float, setups: list[float],
               window_s: float,
               scale: Callable[[float, float], float]) -> dict[str, float]:
    """The untraced run's metrics, at reference host speed.

    The measured phase is cut into windows of about ``window_s``; each
    sample is multiplied by ``scale(lo, hi)`` of the window it ended in
    (see ``hostspeed.py``), and rates count operations per reference
    second. Percentiles are then taken over the whole run.
    """
    count = max(1, round(wall / window_s))
    width = wall / count
    factors = [scale(start + w * width,
                     start + (w + 1) * width if w < count - 1
                     else float("inf"))
               for w in range(count)]

    def scaled(kind: str) -> list[float]:
        return [ms * factors[min(count - 1, max(0, int((end - start)
                                                       / width)))]
                for ms, end in zip(tally.samples[kind], tally.ends[kind])]

    seconds = sum(width * factor for factor in factors)
    cycle, query, commit = scaled("cycle"), scaled("query"), scaled("commit")
    interactions = [ms for kind in BROWSER_KINDS for ms in scaled(kind)]
    return {
        "setup_s": statistics.median(setups),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "cycle_p50_ms": quantile(cycle, 0.5),
        "cycle_p95_ms": quantile(cycle, 0.95),
        "schema_p50_ms": quantile(scaled("connect"), 0.5),
        "class_p50_ms": quantile(scaled("class"), 0.5),
        "instance_p50_ms": quantile(scaled("instance"), 0.5),
        "render_p50_ms": quantile(scaled("render"), 0.5),
        "interaction_p95_ms": quantile(interactions, 0.95),
        "interactions_per_s": len(interactions) / seconds,
        "query_p50_ms": quantile(query, 0.5),
        "query_p95_ms": quantile(query, 0.95),
        "queries_per_s": len(query) / seconds,
        "commit_p50_ms": quantile(commit, 0.5),
        # The rest is kept for the record only, not in BENCHMARK.json.
        # A p99 is the worst few dozen operations of a run, and on a
        # shared host those are mostly where another tenant took the
        # CPU: three runs in a row read 35-60% above their neighbours
        # with the same p50s and host speed. The commit tail is also a
        # few dozen rare events (about 1% of updates restructure the
        # R-tree, 10-30 ms against 0.5 ms, and 50-100 ms collector pauses
        # land in some commits); its p99 and mean moved 30-90% between
        # seeds.
        "cycle_p99_ms": quantile(cycle, 0.99),
        "interaction_p99_ms": quantile(interactions, 0.99),
        "query_p99_ms": quantile(query, 0.99),
        "commit_p99_ms": quantile(commit, 0.99),
        "commit_mean_ms": statistics.fmean(commit),
    }


def overhead_ratio(untraced: dict[str, list[float]],
                   traced: dict[str, list[float]]) -> float:
    """Traced wall time of the main loop's operations over what the same
    mix of operations took untraced."""
    spent = expected = 0.0
    for kind in BROWSER_KINDS + ("query",):
        if traced[kind] and untraced[kind]:
            spent += sum(traced[kind])
            expected += len(traced[kind]) * statistics.fmean(untraced[kind])
    return _ratio(spent, expected)


def per_layer(spans: list[Span], frame_counts: dict[str, float],
              extra: dict[str, Any]) -> dict[str, float]:
    """The traced run's rollup. ``extra`` carries what the program's own
    counters and the benchmark measured outside the spans."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def named(*prefixes: str) -> list[Span]:
        return [s for name, group in by_name.items()
                if name.startswith(prefixes) for s in group]

    def mean_self_ms(group: list[Span]) -> float:
        return _ratio(sum(selfs[s.sid] for s in group) * 1e3, len(group))

    def mean_ms(group: list[Span]) -> float:
        return _ratio(sum(s.duration for s in group) * 1e3, len(group))

    def mean_meta(group: list[Span], key: str) -> float:
        return _ratio(sum(s.meta[key] for s in group if s.meta), len(group))

    roots = [s for s in spans if s.parent is None]
    browser_iids = {s.iid for s in roots
                    if s.name.split(".", 1)[1] in BROWSER_KINDS}
    commits = sum(1 for s in roots if s.name == "interaction.commit")
    wall = sum(s.duration for s in roots)

    def per_interaction(group: list[Span]) -> float:
        return _ratio(sum(1 for s in group if s.iid in browser_iids),
                      len(browser_iids))

    layer_self: dict[str, float] = defaultdict(float)
    for span in spans:
        layer_self[layer_of(span.name)] += selfs[span.sid]

    engine = by_name["query.engine"]
    cache = by_name["query.cache"]
    refresh = [s for s in named("dispatch.") if has_ancestor(s, "commit")]
    refresh_top = [s for s in refresh if not has_ancestor(s, "dispatch.")]

    out = {
        "net.request_ms": mean_ms(by_name["net.request"]),
        "net.router_ms": mean_ms(by_name["net.router"]),
        "net.wire_ms": mean_self_ms(by_name["net.request"]),
        "net.frame_bytes": _ratio(frame_counts.get("net.frame_bytes", 0),
                                  frame_counts.get("net.frames", 0)),
        "net.loop_errors": extra["loop_errors"],
        "dispatch.self_ms": mean_self_ms(named("dispatch.")),
        "reads.self_ms": mean_self_ms(named("reads.")),
        "reads.objects_per_class": mean_meta(by_name["reads.get_class"],
                                             "objects"),
        "rules.publish_ms": mean_self_ms(by_name["rules.publish"]),
        "rules.decision_ms": mean_self_ms(by_name["rules.decision"]),
        "rules.events_per_interaction":
            per_interaction(by_name["rules.publish"]),
        "builder.schema_ms": mean_self_ms(by_name["builder.schema"]),
        "builder.class_ms": mean_self_ms(by_name["builder.class"]),
        "builder.instance_ms": mean_self_ms(by_name["builder.instance"]),
        "builder.widgets_per_class_window":
            mean_meta(by_name["builder.class"], "widgets"),
        "render.self_ms": mean_self_ms(by_name["render"]),
        "render.calls_per_interaction": per_interaction(by_name["render"]),
        "render.chars": mean_meta(by_name["render"], "chars"),
        "query.cache_ms": mean_self_ms(cache),
        "query.engine_ms": mean_self_ms(engine),
        "query.cache_hit_ratio": _ratio(
            sum(1 for s in cache if s.meta and s.meta["cache"] == "hit"),
            len(cache)),
        "query.candidates_per_row": _ratio(
            sum(s.meta["candidates"] for s in engine if s.meta),
            sum(s.meta["matches"] for s in engine if s.meta)),
        "query.column_path_ratio": _ratio(
            sum(s.meta["column_plans"] for s in engine if s.meta),
            sum(s.meta["plans"] for s in engine if s.meta)),
        "query.repeated_share": extra["repeated_share"],
        "commit.self_ms": mean_self_ms(by_name["commit"]),
        "wal.barrier_ms": mean_ms(by_name["wal.barrier"]),
        "wal.flushes_per_commit": _ratio(extra["wal_flushes"], commits),
        "refresh.ms_per_commit": _ratio(
            sum(s.duration for s in refresh_top) * 1e3, commits),
        "refresh.windows_per_commit": _ratio(len(refresh), commits),
        "live.pushes_per_commit": _ratio(extra["live_pushes"], commits),
        "live.fallbacks": extra["live_fallbacks"],
        "trace.unattributed_ratio": _ratio(layer_self["unattributed"], wall),
        "trace.overhead_ratio": extra["overhead_ratio"],
        "bench.writer_late_p99_ms": extra["writer_late_p99_ms"],
    }
    for layer in LAYER_NAMES:
        out[f"share.{layer}"] = _ratio(layer_self[layer], wall)
    return out
