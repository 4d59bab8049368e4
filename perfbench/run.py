#!/usr/bin/env python3
"""zenogeo benchmark: one workload per call, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload survival-curve --seed 1 --seconds 20 --trace 0

Workloads: survival-curve, zeno-ladder, bloch-flow (see README.md).
``--trace 0`` prints the end-to-end metrics setup_s, pass_s, cpu_s and
peak_rss_mb.  ``--trace 1`` runs the traced child and prints, per layer,
calls, self seconds and (for kernels) steps, plus the tracing overhead and
the host reference timing.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.

This script uses the standard library only; each workload runs in a fresh
interpreter (``workloads.py``) that imports zenogeo from ``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import STEP_ARGS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("survival-curve", "zeno-ladder", "bloch-flow")
#: setup_s is the median over this many spawns that stop at ``ready``.
SETUP_SPAWNS = 5
#: What reference_loop_s takes on this benchmark's reference host at its
#: fast level.  Set-up times are scaled to a host on which the loop takes
#: this long, as the child scales its pass times (see workloads.py).
REF_NOMINAL_S = 0.008
#: A run must end within 180 s; children get this long in total.
CHILD_BUDGET_S = 150.0


class ChildError(RuntimeError):
    pass


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str, float]:
    """Run workloads.py; return seconds from spawn to its ``ready`` line,
    its stdout, and its own peak resident set in MB (from wait4)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, bufsize=0,
    )
    try:
        fd = proc.stdout.fileno()
        data, ready_s = b"", None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError("workload child ran out of time")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if ready_s is None and b"\n" in data + chunk:
                ready_s = time.perf_counter() - start
            if not chunk:
                break
            data += chunk
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    text = data.decode()
    if proc.returncode != 0 or not text.startswith("ready\n"):
        raise ChildError(f"workload child exited with {proc.returncode}")
    return ready_s, text, usage.ru_maxrss / 1024.0


def reference_loop_s() -> float:
    """Time a fixed pure-Python loop three times, to sample the host's
    speed, and return the fastest: a stall shorter than the three loops is
    not the host's speed."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return min(times)


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zenogeo" / "__init__.py").is_file():
        print(f"error: no zenogeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    deadline = time.monotonic() + CHILD_BUDGET_S
    workdir = OUT / f"work-{os.getpid()}"
    name = f"{args.workload}-seed{args.seed}"
    child_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if args.trace:
        child_args += ["--trace-out", str(OUT / f"trace-{name}.json")]
    try:
        setup_s, setup_ref_s = [], []
        if not args.trace:
            for _ in range(SETUP_SPAWNS):
                before = reference_loop_s()
                setup_s.append(spawn(child_args + ["--setup-only"], env, deadline)[0])
                setup_ref_s.append(0.5 * (before + reference_loop_s()))
        _, text, peak_rss_mb = spawn(child_args, env, deadline)
    except ChildError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = json.loads(text.splitlines()[-1])
    record.update(setup_s=setup_s, setup_ref_s=setup_ref_s, peak_rss_mb=peak_rss_mb)
    (OUT / f"run-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    passes = len(record["pass_s"]) + len(record.get("traced_pass_s", []))
    print(f"workload {args.workload} seed {args.seed}: {passes} passes of "
          f"{record['ops_per_pass']} operations, {record['attempted']} attempted, "
          f"{record['failed']} failed ({record['wrong']} with wrong output)")
    for message in record["messages"]:
        print(f"  {message}")
    host_ref_s = median(record["ref_s"])
    if args.trace:
        metrics = {}
        for layer, totals in record["layers"].items():
            metrics[f"{layer}.calls"] = (totals["calls"], "count")
            metrics[f"{layer}.self_s"] = (totals["self_s"], "s")
            if layer in STEP_ARGS:
                metrics[f"{layer}.steps"] = (totals["steps"], "count")
        metrics["trace.overhead_s"] = (median(record["traced_pass_s"]) - median(record["pass_s"]), "s")
        metrics["host.ref_s"] = (host_ref_s, "s")
        unmatched = record["unmatched"]
        # A layer whose functions were not found reads 0, which is not a gain.
        print(f"  patterns that matched no function, so not timed: {', '.join(unmatched) or 'none'}")
    else:
        metrics = {
            "setup_s": (median(t * REF_NOMINAL_S / r for t, r in zip(setup_s, setup_ref_s)), "s"),
            "pass_s": (median(record["pass_s"]), "s"),
            "cpu_s": (median(record["cpu_s"]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"  host.ref_s {host_ref_s:.6f} s (reference loop between chunks or passes, "
              f"{min(record['ref_s']):.6f} to {max(record['ref_s']):.6f})")
        print(f"  unscaled: setup {median(setup_s):.6g} s, pass {median(record['wall_s']):.6g} s, "
              f"cpu {median(record['wall_cpu_s']):.6g} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
