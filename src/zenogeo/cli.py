"""Command-line experiment runner.

Subcommands: survival, zeno-time, converge, flow, brackets, freeze.
Inputs are JSON files (see jsonio) or named presets; every randomized
experiment is fully determined by --seed, and outputs are byte-stable.
Exit codes: 0 success, 1 tolerance failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import geometry, jsonio, linalg, qubit, zeno

BRACKET_TOL = 1e-8


class CliInputError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    fmt: str
    seed: int
    out: str | None


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_text(config: ExperimentConfig, text: str) -> None:
    if config.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(config.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError("--out", str(exc)) from exc


def _render_csv(header: list[str], rows: list[list[float]], trailer: list[str]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines += [f"# {t}" for t in trailer]
    return "\n".join(lines) + "\n"


def _render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _emit_table(
    config: ExperimentConfig,
    header: list[str],
    rows: list[list[float]],
    trailer: list[str] | None = None,
    extra: dict | None = None,
) -> None:
    trailer = trailer or []
    if config.fmt == "csv":
        _write_text(config, _render_csv(header, rows, trailer))
        return
    payload: dict = {
        "rows": [
            {k: _jsonable(v) for k, v in zip(header, row)} for row in rows
        ]
    }
    if extra:
        payload.update({k: _jsonable(v) for k, v in extra.items()})
    _write_text(config, _render_json(payload))


# ----------------------------------------------------------------------
# input-spec parsing


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (R + R.conj().T)


def _random_rank_projector(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    R = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    Q, _ = np.linalg.qr(R)
    return Q @ Q.conj().T


def parse_hamiltonian_spec(spec: str, rng: np.random.Generator) -> np.ndarray:
    field = "--hamiltonian"
    presets = {"sigma_x": linalg.SIGMA_X, "sigma_y": linalg.SIGMA_Y, "sigma_z": linalg.SIGMA_Z}
    if spec in presets:
        return presets[spec].copy()
    if spec.startswith("qubit:"):
        parts = spec[len("qubit:") :].split(",")
        if len(parts) != 4:
            raise CliInputError(field, f"qubit preset needs h0,hx,hy,hz, got {spec!r}")
        try:
            h0, hx, hy, hz = (float(p) for p in parts)
        except ValueError as exc:
            raise CliInputError(field, f"non-numeric qubit component in {spec!r}") from exc
        return qubit.QubitHamiltonian(h0, hx, hy, hz).matrix()
    if spec.startswith("random:"):
        try:
            n = int(spec[len("random:") :])
        except ValueError as exc:
            raise CliInputError(field, f"random preset needs a dimension, got {spec!r}") from exc
        if n < 1:
            raise CliInputError(field, f"random dimension must be >= 1, got {n}")
        return _random_hermitian(rng, n)
    try:
        H = jsonio.load_matrix(spec)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise CliInputError(field, f"cannot read matrix from {spec!r}: {exc}") from exc
    try:
        return linalg.require_hermitian(H)
    except ValueError as exc:
        raise CliInputError(field, str(exc)) from exc


def parse_state_spec(spec: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    field = "--state"
    if spec.startswith("e") and spec[1:].isdigit():
        k = int(spec[1:])
        if not 1 <= k <= dim:
            raise CliInputError(field, f"basis index {spec!r} outside 1..{dim}")
        psi = np.zeros(dim, dtype=np.complex128)
        psi[k - 1] = 1.0
        return psi
    if spec == "plus":
        psi = np.zeros(dim, dtype=np.complex128)
        psi[0] = psi[1] = 1.0
        return psi / math.sqrt(2.0)
    if spec == "random":
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return psi / math.sqrt(linalg.norm_sq(psi))
    try:
        psi = jsonio.load_state(spec)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise CliInputError(field, f"cannot read state from {spec!r}: {exc}") from exc
    if psi.size != dim:
        raise CliInputError(field, f"state has dim {psi.size}, Hamiltonian has {dim}")
    return psi


def parse_projector_spec(spec: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    field = "--projector"
    if spec.startswith("e") and spec[1:].isdigit():
        k = int(spec[1:])
        if not 1 <= k <= dim:
            raise CliInputError(field, f"basis index {spec!r} outside 1..{dim}")
        P = np.zeros((dim, dim), dtype=np.complex128)
        P[k - 1, k - 1] = 1.0
        return P
    if spec == "identity":
        return np.eye(dim, dtype=np.complex128)
    if spec.startswith("random:"):
        try:
            r = int(spec[len("random:") :])
        except ValueError as exc:
            raise CliInputError(field, f"random preset needs a rank, got {spec!r}") from exc
        if not 1 <= r <= dim:
            raise CliInputError(field, f"rank {r} outside 1..{dim}")
        return _random_rank_projector(rng, dim, r)
    try:
        P = jsonio.load_matrix(spec)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise CliInputError(field, f"cannot read projector from {spec!r}: {exc}") from exc
    if P.shape[0] != dim:
        raise CliInputError(field, f"projector has dim {P.shape[0]}, Hamiltonian has {dim}")
    try:
        return linalg.require_projector(P)
    except ValueError as exc:
        raise CliInputError(field, str(exc)) from exc


def parse_bloch_start(spec: str) -> qubit.BlochPoint:
    field = "--start"
    named = {
        "north": qubit.BlochPoint(1.0, 0.0, 0.0, 1.0),
        "south": qubit.BlochPoint(1.0, 0.0, 0.0, -1.0),
        "equator": qubit.BlochPoint(1.0, 1.0, 0.0, 0.0),
    }
    if spec in named:
        return named[spec]
    parts = spec.split(",")
    if len(parts) != 4:
        raise CliInputError(field, f"expected u,x,y,z or a named start, got {spec!r}")
    try:
        u, x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise CliInputError(field, f"non-numeric component in {spec!r}") from exc
    return qubit.BlochPoint(u, x, y, z)


def _prepared_state(P: np.ndarray) -> np.ndarray:
    """A unit vector inside the measured subspace (for scans that need one)."""
    diag = np.real(np.diag(P))
    k = int(np.argmax(diag))
    v = P[:, k]
    return v / math.sqrt(linalg.norm_sq(v))


# ----------------------------------------------------------------------
# subcommand handlers


def _config(args, command: str) -> ExperimentConfig:
    return ExperimentConfig(command=command, fmt=args.format, seed=args.seed, out=args.out)


def handle_survival(args) -> int:
    config = _config(args, "survival")
    rng = np.random.default_rng(args.seed)
    H = parse_hamiltonian_spec(args.hamiltonian, rng)
    psi0 = parse_state_spec(args.state, H.shape[0], rng)
    try:
        psi0 = linalg.normalize(psi0)
    except ValueError as exc:
        raise CliInputError("--state", str(exc)) from exc
    if args.t_max <= 0 or args.samples < 2:
        raise CliInputError("--t-max/--samples", "need t-max > 0 and samples >= 2")
    var = linalg.variance(H, psi0)
    ts = np.linspace(0.0, args.t_max, args.samples)
    ps = linalg.survival_probability(psi0, H, ts)
    rows = [[t, p, 1.0 - var * t**2] for t, p in zip(ts.tolist(), ps.tolist())]
    _emit_table(config, ["t", "p", "quadratic_approx"], rows)
    return 0


def handle_zeno_time(args) -> int:
    config = _config(args, "zeno-time")
    rng = np.random.default_rng(args.seed)
    H = parse_hamiltonian_spec(args.hamiltonian, rng)
    psi0 = parse_state_spec(args.state, H.shape[0], rng)
    try:
        var = linalg.variance(H, psi0)
        tau = linalg.zeno_time(psi0, H)
    except ValueError as exc:
        raise CliInputError("--state", str(exc)) from exc
    _emit_table(config, ["variance", "tau_z"], [[var, tau]])
    return 0


def handle_converge(args) -> int:
    config = _config(args, "converge")
    rng = np.random.default_rng(args.seed)
    H = parse_hamiltonian_spec(args.hamiltonian, rng)
    P = parse_projector_spec(args.projector, H.shape[0], rng)
    n_max = args.n_max
    if n_max < 8 or n_max & (n_max - 1) != 0:
        raise CliInputError("--n-max", f"must be a power of two >= 8, got {n_max}")
    psi0 = _prepared_state(P)
    setup = zeno.ZenoSetup(H, P, psi0)
    ladder = [8]
    while ladder[-1] < n_max:
        ladder.append(ladder[-1] * 2)
    points = zeno.convergence_scan(setup, args.t, ladder)
    slope = zeno.fit_convergence_slope(points)
    slope_label = "exact" if slope is None else _fmt(slope)
    rows = [[p.n_measurements, p.error_spectral, p.error_frobenius] for p in points]
    _emit_table(
        config,
        ["N", "error_spectral", "error_frobenius"],
        rows,
        trailer=[f"slope {slope_label}"],
        extra={"slope": "exact" if slope is None else slope},
    )
    if config.out is not None:
        print(f"slope {slope_label}")
    return 0


def handle_flow(args) -> int:
    config = _config(args, "flow")
    hq = qubit.QubitHamiltonian(args.h0, args.hx, args.hy, args.hz)
    start = parse_bloch_start(args.start)
    if args.samples < 1:
        raise CliInputError("--samples", "need samples >= 1")
    try:
        steps = qubit.default_flow_steps(hq, args.t)
    except ValueError as exc:
        raise CliInputError("--t", str(exc)) from exc
    try:
        traj = qubit.integrate_zeno_flow(hq, start, args.t, args.samples, steps)
    except ValueError as exc:
        raise CliInputError("--start", str(exc)) from exc
    times = np.linspace(0.0, args.t, args.samples + 1)
    rows = [
        [float(t), b.u, b.x, b.y, b.z] for t, b in zip(times, traj)
    ]
    u_drift = max(abs(b.u - start.u) for b in traj)
    z_drift = max(abs(b.z - start.z) for b in traj)
    trailer = [f"conserved u_drift {u_drift:.3e} z_drift {z_drift:.3e}"]
    _emit_table(
        config,
        ["t", "u", "x", "y", "z"],
        rows,
        trailer=trailer,
        extra={"u_drift": u_drift, "z_drift": z_drift},
    )
    return 0


def handle_brackets(args) -> int:
    config = _config(args, "brackets")
    n, trials = args.n, args.trials
    if not 1 <= n <= 16:
        raise CliInputError("--n", f"dimension must be in 1..16, got {n}")
    if trials < 1:
        raise CliInputError("--trials", f"need at least one trial, got {trials}")
    rng = np.random.default_rng(args.seed)
    worst = (0.0, -1, "")
    max_poisson = 0.0
    max_jordan = 0.0
    for trial in range(trials):
        A = _random_hermitian(rng, n)
        B = _random_hermitian(rng, n)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= math.sqrt(linalg.norm_sq(psi))
        fA, fB = geometry.QuadraticFunction(A), geometry.QuadraticFunction(B)
        comm = 1j * (A @ B - B @ A)
        anti = 0.5 * (A @ B + B @ A)
        dp = abs(geometry.poisson_bracket(fA, fB, psi) - linalg.expectation_value(comm, psi))
        dj = abs(geometry.jordan_bracket(fA, fB, psi) - linalg.expectation_value(anti, psi))
        max_poisson = max(max_poisson, dp)
        max_jordan = max(max_jordan, dj)
        for dev, kind in ((dp, "poisson"), (dj, "jordan")):
            if dev > worst[0]:
                worst = (dev, trial, kind)
    ok = max(max_poisson, max_jordan) <= BRACKET_TOL
    if config.fmt == "json":
        payload = {
            "n": n,
            "trials": trials,
            "seed": args.seed,
            "max_poisson_deviation": max_poisson,
            "max_jordan_deviation": max_jordan,
            "tolerance": BRACKET_TOL,
            "pass": ok,
        }
        _write_text(config, _render_json(payload))
    else:
        lines = [
            f"bracket identities: n={n} trials={trials} seed={args.seed}",
            f"max poisson deviation {_fmt(max_poisson)}",
            f"max jordan deviation {_fmt(max_jordan)}",
        ]
        if ok:
            lines.append(f"PASS (tolerance {_fmt(BRACKET_TOL)})")
        else:
            lines.append(
                f"FAIL (tolerance {_fmt(BRACKET_TOL)}); worst: trial {worst[1]} "
                f"{worst[2]} deviation {_fmt(worst[0])}"
            )
        _write_text(config, "\n".join(lines) + "\n")
    return 0 if ok else 1


def handle_freeze(args) -> int:
    config = _config(args, "freeze")
    hq = qubit.QubitHamiltonian(args.h0, args.hx, args.hy, args.hz)
    survival, phase = qubit.frozen_state_check(hq, args.t)
    _emit_table(
        config,
        ["t", "survival", "phase_re", "phase_im"],
        [[args.t, survival, phase.real, phase.imag]],
    )
    return 0


# ----------------------------------------------------------------------
# parser


def finite_float(text: str) -> float:
    """argparse type for a finite number; argparse names the flag."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenogeo",
        description="Experiments on survival probabilities and measurement-"
        "induced dynamics; outputs CSV or JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="seed for random presets")

    p = sub.add_parser("survival", help="survival probability p(t) and its quadratic approximation")
    p.add_argument("--hamiltonian", required=True, help="path | sigma_x|sigma_y|sigma_z | qubit:h0,hx,hy,hz | random:n")
    p.add_argument("--state", required=True, help="path | e<k> | plus | random")
    p.add_argument("--t-max", dest="t_max", type=finite_float, required=True)
    p.add_argument("--samples", type=int, default=100)
    common(p)
    p.set_defaults(handler=handle_survival)

    p = sub.add_parser("zeno-time", help="variance of H and the Zeno time")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--state", required=True)
    common(p)
    p.set_defaults(handler=handle_zeno_time)

    p = sub.add_parser("converge", help="distance of the measured product from its limit on a doubling ladder")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--projector", required=True, help="path | e<k> | identity | random:rank")
    p.add_argument("--t", type=finite_float, default=1.0)
    p.add_argument("--n-max", dest="n_max", type=int, required=True, help="largest N, a power of two >= 8")
    common(p)
    p.set_defaults(handler=handle_converge)

    p = sub.add_parser("flow", help="Bloch trajectory of the limit dynamics")
    p.add_argument("--h0", type=finite_float, default=0.0)
    p.add_argument("--hx", type=finite_float, default=0.0)
    p.add_argument("--hy", type=finite_float, default=0.0)
    p.add_argument("--hz", type=finite_float, default=0.0)
    p.add_argument("--start", required=True, help="north | south | equator | u,x,y,z")
    p.add_argument("--t", type=finite_float, required=True)
    p.add_argument("--samples", type=int, default=200)
    common(p)
    p.set_defaults(handler=handle_flow)

    p = sub.add_parser("brackets", help="verify the bracket identities on random draws")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(handler=handle_brackets)

    p = sub.add_parser("freeze", help="survival and phase of the prepared qubit state")
    p.add_argument("--h0", type=finite_float, default=0.0)
    p.add_argument("--hx", type=finite_float, default=0.0)
    p.add_argument("--hy", type=finite_float, default=0.0)
    p.add_argument("--hz", type=finite_float, default=0.0)
    p.add_argument("--t", type=finite_float, required=True)
    common(p)
    p.set_defaults(handler=handle_freeze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except CliInputError as exc:
        print(f"error: {exc.field}: {exc.message}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
