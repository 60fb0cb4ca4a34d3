"""Self-test of the benchmark, in its tiny mode.

Run from the repository root::

    python3 e2ebench/selftest.py

Checks that

* every workload, traced and untraced, exits 0 and prints as its last
  line a result whose metrics are exactly those ``BENCHMARK.json`` names
  for that mode, each with its unit;
* each oracle fires on a deliberately corrupted output;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits non-zero without printing a result.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from workloads import (  # noqa: E402  (needs the paths above)
    QUERY_POOL,
    SCHEMA,
    WORKLOADS,
    Tally,
)


class Failed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


def bench_command(workload: str, trace: int, cwd: str = ROOT, *extra: str):
    return subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "5",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_outputs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = bench_command(workload, trace, ROOT, "--tiny")
            check(done.returncode == 0,
                  f"{workload} trace={trace} exited {done.returncode}:\n"
                  f"{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {result['failed']} failed")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted,
                  f"{workload} trace={trace}: metrics/units differ from "
                  f"BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()),
                  f"{workload} trace={trace}: a value is not a number")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def fired(tally: Tally, label: str) -> bool:
    return any(label in reason for reason in tally.reasons)


def check_local_oracles() -> None:
    browse = WORKLOADS["browse"](3, True, OUT)
    try:
        browse.prepare()
        tally = Tally()
        browse.step(tally, None)
        check(tally.failed == 0, f"browse failed before corruption: "
                                 f"{dict(tally.reasons)}")
        browse.browser.references.corrupt()
        browse.step(tally, None)
        check(fired(tally, "render oracle"),
              "render oracle missed a one-character change")
        browse.editor.acked[next(iter(browse.editor.acked))] = "corrupted"
        browse.finish(tally)
        check(fired(tally, "commit oracle"),
              "commit oracle missed a wrong acknowledged value")
    finally:
        browse.close()
    print("ok  render and commit oracles fire")

    analysis = WORKLOADS["analysis"](3, True, OUT)
    try:
        analysis.prepare()
        analyst = analysis.analyst
        analyst.SAMPLE_SHARE = 1.0
        cache = analysis.kernel.query_cache
        execute = cache.execute
        wrong = analysis.kernel.query(SCHEMA, QUERY_POOL[-1]).query
        cache.execute = lambda schema, query: execute(schema, wrong)
        tally = Tally()
        for __ in range(3):
            analyst.query(tally, None)
        check(fired(tally, "query oracle"),
              "query oracle missed a wrong cached answer")
    finally:
        analysis.close()
    print("ok  query oracle fires")


def check_remote_oracles() -> None:
    remote = WORKLOADS["remote_edit"](3, True, OUT)
    tally = Tally()
    try:
        remote.prepare()
        remote.start()
        router = remote._server.server.router
        handle = router.handle

        def renamed(state, doc):
            response = handle(state, doc)
            if doc.get("op") == "select_instance":
                response = {**response, "window": "instance_elsewhere"}
            return response

        router.handle = renamed
        remote.step(tally, None)
        router.handle = handle
        check(fired(tally, "instance oracle"),
              "response oracle missed a wrongly named window")

        # A handler that raises makes the server hang up on its client:
        # the browser and the editor count the step, reconnect, go on.
        faults = {"select_class": 1, "txn": 1}

        def faulty(state, doc):
            key = doc.get("op") or doc.get("kind")
            if faults.get(key):
                faults[key] -= 1
                raise RuntimeError("injected handler fault")
            return handle(state, doc)

        router.handle = faulty
        lost = Tally()
        remote.step(lost, None)
        remote.step(lost, None)
        deadline = time.monotonic() + 10
        while faults["txn"] and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)
        router.handle = handle
        check(lost.failed == 1 and fired(lost, "class: ")
              and len(lost.samples["cycle"]) == 1,
              f"the browser did not survive a dropped connection: "
              f"{dict(lost.reasons)}")
        editor = remote.editor.tally
        check(fired(editor, "commit: ") and editor.failed == 1
              and editor.attempted > 2,
              f"the editor did not survive a dropped connection: "
              f"{dict(editor.reasons)}")
        check(any("injected handler fault" in r
                  for r in remote.loop_errors()),
              f"the server's hang-up was not logged: {remote.loop_errors()}")
        remote.stop(tally)
        browser = remote.browser
        while browser.drain_pushes(browser.client.poll_pushes(timeout=0.3)):
            pass   # the editor has stopped: no push comes after these
        browser.last_push = ([], [])
        remote.editor.acked[next(iter(remote.editor.acked))] = "corrupted"
        remote.finish(tally)
        check(fired(tally, "watch oracle"),
              "watch oracle missed a wrong pushed result")
        check(fired(tally, "commit oracle"),
              "commit oracle missed a wrong acknowledged value")
    finally:
        remote.close()
    print("ok  response, watch and commit oracles fire over the wire; "
          "dropped connections are counted and replaced")


def check_bare_directory() -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = bench_command("browse", 0, bare)
        check(done.returncode != 0,
              "the benchmark succeeded without the program's sources")
        check('"metrics"' not in done.stdout,
              "the benchmark printed a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  a directory without the program exits non-zero")


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    try:
        check_outputs()
        check_local_oracles()
        check_remote_oracles()
        check_bare_directory()
    except Failed as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
