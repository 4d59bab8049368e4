"""One workload in a fresh interpreter: set up, then timed passes.

Started by ``run.py``; not meant to be run by hand.  The child imports
zenogeo, writes the workload's inputs (made from the seed with the
benchmark's own RNG) as JSON files, prints ``ready``, and, unless
``--setup-only`` is given, runs whole passes over the workload's
operations for the given seconds.  Its last stdout line is a JSON record
of the passes.

An operation is one CLI command run in-process through
``zenogeo.cli.main(argv)`` or one call to a function zenogeo exports.
Only the operations are timed; their outputs are checked afterwards
against ``checks``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import zenogeo
from zenogeo import cli

import numpy as np

import checks
from tracing import Tracer, layer_totals


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def cli_op(name: str, argv: list[str], check: Callable[[str], None]) -> Op:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    def check_result(result: CliResult) -> None:
        # Exit 1 is the CLI's "tolerance failure": an output it ran to, but wrong.
        if result.code == 1:
            raise checks.CheckFailed(f"exit 1: {result.out.strip()[-200:]}")
        if result.code != 0:
            raise RuntimeError(f"exit {result.code}: {result.err.strip()}")
        check(result.out)

    return Op(name, run, check_result)


# ----------------------------------------------------------------------
# inputs


def random_hermitian(rng, n: int) -> np.ndarray:
    """Same distribution as the CLI's ``random:n`` preset."""
    R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (R + R.conj().T)


def random_state(rng, n: int) -> np.ndarray:
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def random_projector(rng, n: int, rank: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
    return Q @ Q.conj().T


def write_json(path: Path, a: np.ndarray) -> str:
    """The jsonio interchange format, written without zenogeo."""
    flat = a.reshape(-1)
    path.write_text(json.dumps({"dim": a.shape[0], "re": flat.real.tolist(), "im": flat.imag.tolist()}))
    return str(path)


# ----------------------------------------------------------------------
# workloads: inputs(rng, workdir) -> dict, operations(inputs) -> list[Op]

SURVIVAL_CASES = ((64, 100), (16, 400))  # (dim, time samples)
SURVIVAL_T_MAX = 3.0


def survival_inputs(rng, workdir: Path) -> dict:
    cases = []
    for dim, samples in SURVIVAL_CASES:
        H, psi = random_hermitian(rng, dim), random_state(rng, dim)
        cases.append({
            "dim": dim, "samples": samples, "H": H, "psi": psi,
            "H_path": write_json(workdir / f"H{dim}.json", H),
            "psi_path": write_json(workdir / f"psi{dim}.json", psi),
        })
    return {"cases": cases}


def survival_operations(inputs: dict) -> list[Op]:
    ops = []
    for case in inputs["cases"]:
        ref = checks.survival_reference(case["H"], case["psi"], SURVIVAL_T_MAX, case["samples"])
        files = ["--hamiltonian", case["H_path"], "--state", case["psi_path"]]
        dim = case["dim"]
        ops.append(cli_op(
            f"survival dim {dim}",
            ["survival", *files, "--t-max", repr(SURVIVAL_T_MAX), "--samples", str(case["samples"])],
            lambda out, ref=ref: checks.check_survival_csv(out, ref),
        ))
        ops.append(cli_op(
            f"zeno-time dim {dim}", ["zeno-time", *files],
            lambda out, ref=ref: checks.check_zeno_time_csv(out, ref),
        ))
        ops.append(Op(
            f"short_time_coefficient dim {dim}",
            lambda case=case: zenogeo.short_time_coefficient(case["psi"], case["H"]),
            lambda c, ref=ref: checks.check_short_time_coefficient(c, ref),
        ))
    return ops


LADDER_DIM, LADDER_RANK, LADDER_T = 200, 20, 1.0
LADDER_BASE_SEED = 0
LADDER_N_MAX = 65536
CHAIN_N = 100  # not a power of two: zeno_product takes kernels.matrix_chain
TRAJECTORY_N, TRAJECTORY_SAMPLES = 4096, 64


def haar_unitary(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def ladder_inputs(rng, workdir: Path) -> dict:
    # One fixed draw of (H, P), seen in a basis the seed picks.  Power
    # iteration's iteration count depends on the spectrum of V_N - U_Z:
    # with independent draws per seed one converge pass took 12.7k to 22.1k
    # iterations over seeds 1-10, which made the seed-to-seed spread a
    # measure of the draw.  A unitary change of basis leaves every exact
    # error unchanged, so each seed poses the same problem, in new numbers.
    base = np.random.default_rng(LADDER_BASE_SEED)
    H0 = random_hermitian(base, LADDER_DIM)
    P0 = random_projector(base, LADDER_DIM, LADDER_RANK)
    U = haar_unitary(rng, LADDER_DIM)
    H = U @ H0 @ U.conj().T
    P = U @ P0 @ U.conj().T
    H, P = 0.5 * (H + H.conj().T), 0.5 * (P + P.conj().T)
    psi0 = P @ random_state(rng, LADDER_DIM)
    psi0 /= np.linalg.norm(psi0)
    return {
        "H": H, "P": P, "psi0": psi0,
        "H_path": write_json(workdir / "H.json", H),
        "P_path": write_json(workdir / "P.json", P),
    }


def ladder_operations(inputs: dict) -> list[Op]:
    H, P, psi0 = inputs["H"], inputs["P"], inputs["psi0"]
    ladder = [8]
    while ladder[-1] < LADDER_N_MAX:
        ladder.append(2 * ladder[-1])
    scan_ref = checks.ladder_reference(H, P, LADDER_T, ladder)
    product_ref = checks.product_reference(H, P, LADDER_T, CHAIN_N)
    trajectory_ref = checks.trajectory_reference(H, P, psi0, LADDER_T, TRAJECTORY_N, TRAJECTORY_SAMPLES)
    setup = {}

    def make_setup():
        setup["s"] = zenogeo.ZenoSetup(H, P, psi0)
        return setup["s"]

    return [
        cli_op(
            "converge dim 200",
            ["converge", "--hamiltonian", inputs["H_path"], "--projector", inputs["P_path"],
             "--t", repr(LADDER_T), "--n-max", str(LADDER_N_MAX), "--format", "json"],
            lambda out: checks.check_converge_json(out, scan_ref),
        ),
        Op("ZenoSetup", make_setup, lambda s: checks.check_setup(s, H, P, psi0)),
        Op(
            f"zeno_product N={CHAIN_N}",
            lambda: zenogeo.zeno_product(setup["s"], LADDER_T, CHAIN_N),
            lambda V: checks.check_zeno_product(V, product_ref),
        ),
        Op(
            f"measured_trajectory N={TRAJECTORY_N}",
            lambda: zenogeo.measured_trajectory(setup["s"], LADDER_T, TRAJECTORY_N, TRAJECTORY_SAMPLES),
            lambda traj: checks.check_trajectory(traj, trajectory_ref),
        ),
    ]


FLOW_T, FLOW_SAMPLES = 1000.0, 200
FREEZE_CALLS = 150
BRACKETS_N, BRACKETS_TRIALS = 16, 300


def bloch_inputs(rng, workdir: Path) -> dict:
    # |h0 + hz| = 1 in every draw, so the hidden RK4 step count (and the
    # work) does not depend on the seed.
    h0, hx, hy = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    hz = rng.choice([-1.0, 1.0]) - h0
    d = rng.standard_normal(3)
    x, y, z = (float(v) for v in d / np.linalg.norm(d))
    freeze = [
        (rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
         rng.uniform(-2.0, 2.0), rng.uniform(0.1, 20.0))
        for _ in range(FREEZE_CALLS)
    ]
    return {
        "flow": (float(h0), float(hx), float(hy), float(hz), (1.0, x, y, z)),
        "freeze": [tuple(float(v) for v in f) for f in freeze],
        "brackets_seed": int(rng.integers(2**31)),
    }


def flow_steps(rate: float, t: float, samples: int) -> int:
    """The flow command's documented step rule: |rate| dt <= 1/100, at
    least 1000 steps, rounded up to a whole number of steps per sample."""
    steps = max(1000, math.ceil(100.0 * abs(rate) * abs(t)))
    return samples * math.ceil(steps / samples)


def bloch_operations(inputs: dict) -> list[Op]:
    # Numbers go in as --flag=value: argparse would take "-1e-05" for a flag.
    h0, hx, hy, hz, start = inputs["flow"]
    steps = flow_steps(h0 + hz, FLOW_T, FLOW_SAMPLES)
    ops = [cli_op(
        f"flow t={FLOW_T:g}",
        ["flow", f"--h0={h0!r}", f"--hx={hx!r}", f"--hy={hy!r}", f"--hz={hz!r}",
         "--start=" + ",".join(repr(v) for v in start), f"--t={FLOW_T!r}", f"--samples={FLOW_SAMPLES}"],
        lambda out: checks.check_flow_csv(out, h0 + hz, start, FLOW_T, FLOW_SAMPLES, steps),
    )]
    for f0, fx, fy, fz, t in inputs["freeze"]:
        ops.append(cli_op(
            "freeze",
            ["freeze", f"--h0={f0!r}", f"--hx={fx!r}", f"--hy={fy!r}", f"--hz={fz!r}", f"--t={t!r}"],
            lambda out, f0=f0, fz=fz, t=t: checks.check_freeze_csv(out, f0, fz, t),
        ))
    ops.append(cli_op(
        f"brackets n={BRACKETS_N}",
        ["brackets", "--n", str(BRACKETS_N), "--trials", str(BRACKETS_TRIALS),
         "--seed", str(inputs["brackets_seed"]), "--format", "json"],
        lambda out: checks.check_brackets_json(out, BRACKETS_N, BRACKETS_TRIALS),
    ))
    return ops


WORKLOADS = {
    "survival-curve": (survival_inputs, survival_operations),
    "zeno-ladder": (ladder_inputs, ladder_operations),
    "bloch-flow": (bloch_inputs, bloch_operations),
}
#: Workloads whose pass times are scaled to the nominal host speed (see
#: ``Passes.one``).  Their passes run on one thread, as the reference loop
#: does.  The other two spend most of a pass in OpenBLAS on two threads,
#: whose speed the loop does not track: scaled, their spread over four
#: seeds was wider than unscaled, so they report plain wall and CPU time.
SCALED = {"bloch-flow"}


# ----------------------------------------------------------------------
# passes

MIN_PASSES = 3
#: Traced passes keep every span in memory; this caps that memory.
MAX_TRACED_PASSES = 20


#: What the reference loop takes on this benchmark's reference host (2 vCPU
#: Xeon, family 6 model 143) at its fast level.  Pass times are scaled to a
#: host on which the loop takes this long; the unit stays seconds.
REF_NOMINAL_S = 0.010
#: In a scaled workload, an operation ends a chunk once the chunk has run
#: this long; the host's speed is sampled at both ends of every chunk.
CHUNK_S = 0.25


def reference_loop_s() -> float:
    """Time a fixed loop that touches no zenogeo code: plain Python
    arithmetic and small numpy calls, the two kinds of work a pass spends
    most of its time in.  When it slows down, the host slowed down."""
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    A, v = np.eye(4), np.ones(4)
    for _ in range(2_500):
        v = A @ (0.5 * v + 0.5)
    return time.perf_counter() - start


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),  # None when not imported
        "blas": f"{blas['name']} {blas['version']}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


class Passes:
    """Runs whole passes over the operations and keeps their tallies."""

    def __init__(self, ops: list[Op], chunk_s: float):
        self.ops = ops
        self.chunk_s = chunk_s
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []
        #: Every reference timing, taken at the ends of the chunks, so that
        #: the host's speed is sampled over the same stretch of time as the
        #: operations.  The last one also opens the next pass's first chunk.
        self.ref_s: list[float] = []

    def one(self) -> tuple[float, float, float, float]:
        """Run every operation once.  Return the pass's wall and CPU time,
        then both scaled to the nominal host speed.

        The operations run in chunks of at least ``chunk_s`` (a whole pass
        when it is infinite), and the reference loop runs between chunks,
        outside the timed region.  A chunk's times are scaled by
        ``REF_NOMINAL_S`` over the mean of the two reference timings around
        it.  The host's speed drifts between two levels about 1.6x apart,
        on a scale of seconds, and that drift would otherwise be most of
        the spread between runs of a single-threaded workload."""
        wall = cpu = scaled_wall = scaled_cpu = 0.0
        chunk_wall = chunk_cpu = 0.0
        if not self.ref_s:
            self.ref_s.append(reference_loop_s())
        ref_before = self.ref_s[-1]
        for i, op in enumerate(self.ops):
            self.attempted += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an operation that raises has failed
                error = exc
            chunk_wall += time.perf_counter() - w0
            chunk_cpu += time.process_time() - c0
            if error is None:
                self._check(op, result)
            else:
                self._fail(op, f"raised {error!r}")
            if chunk_wall >= self.chunk_s or i == len(self.ops) - 1:
                ref_after = reference_loop_s()
                self.ref_s.append(ref_after)
                scale = REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
                wall += chunk_wall
                cpu += chunk_cpu
                scaled_wall += chunk_wall * scale
                scaled_cpu += chunk_cpu * scale
                chunk_wall = chunk_cpu = 0.0
                ref_before = ref_after
        return wall, cpu, scaled_wall, scaled_cpu

    def _check(self, op: Op, result: object) -> None:
        try:
            op.check(result)
        except checks.CheckFailed as exc:
            self.wrong += 1
            self._fail(op, f"wrong output: {exc}")
        except Exception as exc:  # e.g. a nonzero exit or unparsable output
            self._fail(op, f"failed: {exc}")

    def _fail(self, op: Op, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{op.name}: {message}")

    def run_for(self, seconds: float) -> list[tuple[float, float, float, float]]:
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_PASSES or time.perf_counter() < deadline:
            times.append(self.one())
        return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    make_inputs, make_operations = WORKLOADS[args.workload]
    rng = np.random.default_rng([args.seed % 2**64, sorted(WORKLOADS).index(args.workload)])
    args.workdir.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(rng, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ops = make_operations(inputs)  # also computes the reference results
    scaled = args.workload in SCALED
    passes = Passes(ops, CHUNK_S if scaled else math.inf)
    record = {"ops_per_pass": len(ops), "env": environment()}
    if args.trace:
        untraced = passes.run_for(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        record["unmatched"] = tracer.unmatched
        traced, per_pass = [], []
        deadline = time.perf_counter() + args.seconds / 2
        while len(traced) < MIN_PASSES or (
            time.perf_counter() < deadline and len(traced) < MAX_TRACED_PASSES
        ):
            first = len(tracer.spans)
            traced.append(passes.one())
            per_pass.append(layer_totals(tracer.spans, first))
        tracer.uninstall()
        record["traced_pass_s"] = [p[2] if scaled else p[0] for p in traced]
        record["layers"] = {
            layer: {
                "calls": statistics.median(p[layer]["calls"] for p in per_pass),
                "self_s": statistics.median(p[layer]["self_s"] for p in per_pass),
                "steps": statistics.median(p[layer]["steps"] for p in per_pass),
            }
            for layer in per_pass[0]
        }
        if args.trace_out is not None:
            args.trace_out.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "fields": ["layer", "function", "start", "end", "parent", "steps"],
                 "spans": tracer.spans}
            ))
        timed = untraced
    else:
        timed = passes.run_for(args.seconds)
    record.update(
        scaled=scaled,
        wall_s=[p[0] for p in timed],
        wall_cpu_s=[p[1] for p in timed],
        pass_s=[p[2] if scaled else p[0] for p in timed],
        cpu_s=[p[3] if scaled else p[1] for p in timed],
        ref_s=passes.ref_s,
        attempted=passes.attempted,
        failed=passes.failed,
        wrong=passes.wrong,
        messages=passes.messages,
    )
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
