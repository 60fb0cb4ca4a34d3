"""End-to-end interaction benchmark of the customizable GIS interface.

Run from the repository root::

    python3 e2ebench/run.py --workload browse --seed 1 --seconds 25 --trace 0

``--workload`` is ``browse``, ``remote_edit`` or ``analysis`` (see
``workloads.py``). The seed fixes the generated database and every
choice the actors make. With ``--trace 0`` the run sets the system up
several times (``setup_s`` is the median), then measures for
``--seconds`` and prints the end-to-end metrics. With ``--trace 1`` it
sets up once, measures half the time untraced and half traced, and
prints the per-layer metrics. ``--tiny`` shrinks the database and runs a
few operations per phase; the self-test uses it.

Output: one ``{"record": ...}`` line (seed, scale, WAL sync mode, host,
revision, sample counts, failure reasons), then, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``. Both,
and the traced run's spans, are also written under ``e2ebench/out/``.
Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: set-ups per untraced run; setup_s is their median
SETUPS = 3
#: seconds per window of the measured phase whose samples share one
#: host-speed factor (see metrics.end_to_end)
WINDOW_S = 1.0
#: operations per measured phase in tiny mode
TINY_STEPS = {"browse": 3, "remote_edit": 3, "analysis": 40}


def measure(workload, tally, seconds: float, tracer, limit: int | None,
            calibration) -> tuple[float, float]:
    """Repeat the workload's step for ``seconds``, timing a calibration
    burst between steps now and then; returns when it started and the
    wall seconds it took."""
    from tracing import now

    calibration.take()
    start = now()
    deadline = start + seconds
    steps = 0
    while now() < deadline and (limit is None or steps < limit):
        workload.step(tally, tracer)
        calibration.maybe()
        steps += 1
    wall = now() - start
    calibration.take()
    return start, wall


def set_up(cls, seed: int, tiny: bool, repeats: int, calibration):
    """Build the workload ``repeats`` times, keeping the last; returns it
    with each set-up's seconds at reference host speed and unscaled."""
    from tracing import now

    scaled: list[float] = []
    unscaled: list[float] = []
    for i in range(repeats):
        gc.collect()
        lo = now()
        for __ in range(3):
            calibration.take()
        start = now()
        workload = cls(seed, tiny, OUT)
        unscaled.append(now() - start)
        for __ in range(3):
            calibration.take()
        scaled.append(unscaled[-1] * calibration.scale(lo, now()))
        if i < repeats - 1:
            workload.close()
    return workload, scaled, unscaled


def execute(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Set up, measure, check; returns (record, result)."""
    from hostspeed import Calibration
    from metrics import end_to_end, overhead_ratio, per_layer, quantile
    from tracing import Tracer
    from workloads import WORKLOADS, Tally

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    os.makedirs(OUT, exist_ok=True)
    cls = WORKLOADS[name]
    limit = TINY_STEPS[name] if tiny else None
    calibration = Calibration()
    workload, setups, unscaled_setups = set_up(
        cls, seed, tiny, 1 if (trace or tiny) else SETUPS, calibration)
    calibration.quiet = workload.quiet
    tally = Tally()
    try:
        workload.prepare()
        gc.collect()
        workload.start()
        try:
            if not trace:
                start, wall = measure(workload, tally, seconds, None, limit,
                                      calibration)
            else:
                untraced = Tally()
                u_start, u_wall = measure(workload, untraced, seconds / 2,
                                          None, limit, calibration)
                before = workload.counters()
                tracer = Tracer()
                tracer.install(workload.kernel)
                workload.set_tracer(tracer)
                try:
                    start, wall = measure(workload, tally, seconds / 2,
                                          tracer, limit, calibration)
                finally:
                    workload.set_tracer(None)
                    tracer.uninstall()
                after = workload.counters()
        finally:
            workload.stop(tally)
        workload.finish(tally)
    finally:
        workload.close()

    if not trace:
        values = end_to_end(tally, start, wall, setups, WINDOW_S,
                            calibration.scale)
        unscaled = end_to_end(tally, start, wall, unscaled_setups, WINDOW_S,
                              lambda lo, hi: 1.0)
    else:
        factor = calibration.scale(start, start + wall)
        late = workload.writer_late_ms()
        extra = {
            key: after[key] - before[key]
            for key in ("live_fallbacks", "wal_flushes", "live_pushes")
        }
        extra.update(
            loop_errors=len(workload.loop_errors()),
            repeated_share=workload.repeated_share(),
            overhead_ratio=overhead_ratio(untraced.samples, tally.samples)
            * factor / calibration.scale(u_start, u_start + u_wall),
            writer_late_p99_ms=quantile(late, 0.99) if late else 0.0,
        )
        unscaled = per_layer(tracer.spans, tracer.counts, extra)
        values = {key: value * factor if units.get(key) == "ms" else value
                  for key, value in unscaled.items()}
        tally.merge(untraced)
        tracer.dump(os.path.join(OUT, f"{name}-seed{seed}.spans.jsonl"))

    record = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == name),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "poles": workload.poles,
        "wal_sync_mode": cls.sync_mode or "none (in-memory database)",
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "setup_s_runs": unscaled_setups,
        "host_scale": calibration.scale(),
        "tails": {key: values[key] for key in
                  ("cycle_p99_ms", "interaction_p99_ms", "query_p99_ms",
                   "commit_p99_ms", "commit_mean_ms") if key in values},
        "unscaled": unscaled,
        "samples": {kind: len(v) for kind, v in sorted(tally.samples.items())},
        "failures": dict(tally.reasons),
        "loop_errors": workload.loop_errors(),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"record": record, "result": result}, out, indent=1)
    return record, result


def pin_to_one_cpu() -> None:
    """Keep every thread of the run on one CPU.

    The program runs its Python under one interpreter lock, so a second
    CPU adds no throughput; it only adds cross-CPU wake-ups at every
    thread hand-off (client, event loop, executor), which made identical
    remote_edit runs differ by 2x.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def git_revision() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the program's source files, names and contents."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs.sort()
        for file in sorted(files):
            if file.endswith(".py"):
                path = os.path.join(folder, file)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as src:
                    digest.update(src.read())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("browse", "remote_edit", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()
    record, result = execute(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.tiny)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
