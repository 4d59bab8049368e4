"""Command-line experiment runner.

Subcommands: survival, zeno-time, converge, flow, brackets, freeze.
Inputs are JSON files (see jsonio) or named presets; every randomized
experiment is fully determined by --seed, and outputs are byte-stable.
Exit codes: 0 success, 1 tolerance failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import geometry, jsonio, linalg, qubit, zeno

BRACKET_TOL = 1e-8
#: Work budget: the largest random:<n> dimension (16 MB per n x n complex
#: matrix at the bound) and the largest --n-max.  Past N = 2^25 the ladder's
#: errors sit at the roundoff floor and grow again with N.
RANDOM_DIM_MAX = 1024
N_MAX = 2**20
#: Work budget of the row-per-sample commands: the largest --samples of
#: survival and flow, the largest dimension x --samples of survival (one
#: pass over the sample times per eigenvalue) and the largest --trials of
#: brackets.  Each runs in about 1-3 s at its bound.
SAMPLES_MAX = 100_000
SURVIVAL_WORK_MAX = RANDOM_DIM_MAX * 10_000
TRIALS_MAX = 3000


class CliInputError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_text(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
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
    args,
    header: list[str],
    rows: list[list[float]],
    trailer: list[str] | None = None,
    extra: dict | None = None,
) -> None:
    trailer = trailer or []
    if args.format == "csv":
        _write_text(args, _render_csv(header, rows, trailer))
        return
    payload: dict = {
        "rows": [
            {k: _jsonable(v) for k, v in zip(header, row)} for row in rows
        ]
    }
    if extra:
        payload.update({k: _jsonable(v) for k, v in extra.items()})
    _write_text(args, _render_json(payload))


# ----------------------------------------------------------------------
# input-spec parsing: one parser per flag, returning a validated value; the
# helpers recognise one spec form each and raise ValueError.


@contextlib.contextmanager
def _charged_to(field: str):
    """Report a ValueError, OSError or finite_float error as one of field."""
    try:
        yield
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        raise CliInputError(field, str(exc)) from exc


def finite_float(text: str) -> float:
    """argparse type for a finite number; argparse names the flag."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type for a seed; argparse names the flag."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _four_numbers(spec: str, form: str) -> list[float]:
    """The four finite numbers of a comma-separated spec such as u,x,y,z."""
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected {form}, got {spec!r}")
    return [finite_float(p) for p in parts]


def _basis_index(spec: str, dim: int) -> int | None:
    """k - 1 for an e<k> spec with k in 1..dim; None for any other spec."""
    if not (spec.startswith("e") and spec[1:].isdecimal()):
        return None
    k = int(spec[1:])
    if not 1 <= k <= dim:
        raise ValueError(f"basis index {spec!r} outside 1..{dim}")
    return k - 1


def _random_count(spec: str, what: str, most: int) -> int | None:
    """n for a random:<n> spec with n in 1..most; None for any other spec."""
    if not spec.startswith("random:"):
        return None
    try:
        n = int(spec[len("random:") :])
    except ValueError:
        raise ValueError(f"random preset needs a {what}, got {spec!r}") from None
    if n < 1:
        raise ValueError(f"random {what} must be >= 1, got {n}")
    if n > most:
        raise ValueError(f"random {what} must be <= {most}, got {n}")
    return n


def _load(spec: str, load, what: str, dim: int | None = None) -> np.ndarray:
    """Read a jsonio file, of dimension dim when given, for the parser to
    validate like a preset."""
    try:
        value = load(spec)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {what} from {spec!r}: {exc}") from exc
    if dim is not None and len(value) != dim:
        raise ValueError(f"{what} has dim {len(value)}, Hamiltonian has {dim}")
    return value


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (R + R.conj().T)


def _random_rank_projector(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    R = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    Q, _ = np.linalg.qr(R)
    return Q @ Q.conj().T


_PAULI = {"sigma_x": linalg.SIGMA_X, "sigma_y": linalg.SIGMA_Y, "sigma_z": linalg.SIGMA_Z}
_BLOCH_STARTS = {
    "north": qubit.BlochPoint(1.0, 0.0, 0.0, 1.0),
    "south": qubit.BlochPoint(1.0, 0.0, 0.0, -1.0),
    "equator": qubit.BlochPoint(1.0, 1.0, 0.0, 0.0),
}


def parse_hamiltonian_spec(spec: str, rng: np.random.Generator) -> np.ndarray:
    with _charged_to("--hamiltonian"):
        n = _random_count(spec, "dimension", most=RANDOM_DIM_MAX)
        if spec in _PAULI:
            H = _PAULI[spec]
        elif spec.startswith("qubit:"):
            h = _four_numbers(spec[len("qubit:") :], "h0,hx,hy,hz")
            H = qubit.QubitHamiltonian(*h).matrix()
        elif n is not None:
            H = _random_hermitian(rng, n)
        else:
            H = _load(spec, jsonio.load_matrix, "matrix")
        return linalg.require_hermitian(H)


def parse_state_spec(spec: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    with _charged_to("--state"):
        k = _basis_index(spec, dim)
        if k is not None:
            psi = np.zeros(dim, dtype=np.complex128)
            psi[k] = 1.0
        elif spec == "plus":
            if dim < 2:
                raise ValueError(f"plus needs dimension >= 2, got {dim}")
            psi = np.zeros(dim, dtype=np.complex128)
            psi[:2] = 1.0
        elif spec == "random":
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        else:
            psi = _load(spec, jsonio.load_state, "state", dim)
        return linalg.normalize(psi)


def parse_projector_spec(spec: str, H: np.ndarray, rng: np.random.Generator) -> zeno.ZenoSetup:
    """ZenoSetup of the checked H and the projector of spec, checked there."""
    dim = H.shape[0]
    with _charged_to("--projector"):
        k = _basis_index(spec, dim)
        r = _random_count(spec, "rank", most=dim)
        if k is not None:
            P = np.zeros((dim, dim), dtype=np.complex128)
            P[k, k] = 1.0
        elif spec == "identity":
            P = np.eye(dim, dtype=np.complex128)
        elif r is not None:
            P = _random_rank_projector(rng, dim, r)
        else:
            P = _load(spec, jsonio.load_matrix, "projector", dim)
        return zeno.ZenoSetup(H, P)


def parse_bloch_start(spec: str) -> qubit.BlochPoint:
    with _charged_to("--start"):
        if spec in _BLOCH_STARTS:
            return _BLOCH_STARTS[spec]
        start = qubit.BlochPoint(*_four_numbers(spec, "u,x,y,z or a named start"))
        return qubit.require_on_sphere(start)


# ----------------------------------------------------------------------
# subcommand handlers


def handle_survival(args) -> int:
    rng = np.random.default_rng(args.seed)
    H = parse_hamiltonian_spec(args.hamiltonian, rng)
    psi0 = parse_state_spec(args.state, H.shape[0], rng)
    if args.t_max <= 0:
        raise CliInputError("--t-max", f"must be > 0, got {args.t_max!r}")
    if args.samples < 2:
        raise CliInputError("--samples", f"must be >= 2, got {args.samples}")
    if args.samples > SAMPLES_MAX:
        raise CliInputError("--samples", f"must be <= {SAMPLES_MAX}, got {args.samples}")
    if H.shape[0] * args.samples > SURVIVAL_WORK_MAX:
        raise CliInputError(
            "--samples",
            f"dimension x samples = {H.shape[0]} x {args.samples} exceeds {SURVIVAL_WORK_MAX}",
        )
    var = linalg.variance(H, psi0)
    ts = np.linspace(0.0, args.t_max, args.samples)
    with _charged_to("--t-max"):
        ps = linalg.survival_probability(psi0, H, ts)
    # var * t * t, not t**2: a float ** that overflows raises, a product
    # gives inf, and var = 0 never meets an inf (0 * inf is nan).
    rows = [[t, p, 1.0 - var * t * t] for t, p in zip(ts.tolist(), ps.tolist())]
    _emit_table(args, ["t", "p", "quadratic_approx"], rows)
    return 0


def handle_zeno_time(args) -> int:
    rng = np.random.default_rng(args.seed)
    H = parse_hamiltonian_spec(args.hamiltonian, rng)
    psi0 = parse_state_spec(args.state, H.shape[0], rng)
    var = linalg.variance(H, psi0)
    tau = linalg.zeno_time(psi0, H)
    _emit_table(args, ["variance", "tau_z"], [[var, tau]])
    return 0


def handle_converge(args) -> int:
    n_max = args.n_max
    if not 8 <= n_max <= N_MAX or n_max & (n_max - 1) != 0:
        raise CliInputError("--n-max", f"must be a power of two in 8..{N_MAX}, got {n_max}")
    rng = np.random.default_rng(args.seed)
    H = parse_hamiltonian_spec(args.hamiltonian, rng)
    setup = parse_projector_spec(args.projector, H, rng)
    ladder = [8]
    while ladder[-1] < n_max:
        ladder.append(ladder[-1] * 2)
    with _charged_to("--t"):
        points = zeno.convergence_scan(setup, args.t, ladder)
    # N |V_N - U_Z| tends to c_inf = (t^2 / 2) |K o Phi|_2, at most
    # t^2 leakage^2 / 2 since |Phi_jk| <= 1.  At or below EXACT_TOL the
    # limit is exact and every error in the scan is roundoff.
    tl = abs(args.t) * setup.leakage
    exact = tl * tl / 2 <= zeno.EXACT_TOL
    slope = None if exact else zeno.fit_convergence_slope(points)
    slope_label = "exact" if slope is None else _fmt(slope)
    rows = [[p.n_measurements, p.error_spectral, p.error_frobenius] for p in points]
    _emit_table(
        args,
        ["N", "error_spectral", "error_frobenius"],
        rows,
        trailer=[f"slope {slope_label}"],
        extra={"slope": "exact" if slope is None else slope},
    )
    if args.out is not None:
        print(f"slope {slope_label}")
    return 0


def handle_flow(args) -> int:
    hq = qubit.QubitHamiltonian(args.h0, args.hx, args.hy, args.hz)
    start = parse_bloch_start(args.start)
    if not 1 <= args.samples <= SAMPLES_MAX:
        raise CliInputError("--samples", f"must be in 1..{SAMPLES_MAX}, got {args.samples}")
    rate = qubit.zeno_rotation_rate(hq)
    if not math.isfinite(rate):
        raise CliInputError("--h0/--hz", f"rotation rate h0 + hz = {rate!r} is not finite")
    with _charged_to("--t"):
        traj = qubit.integrate_zeno_flow(hq, start, args.t, args.samples)
    times = np.linspace(0.0, args.t, args.samples + 1)
    rows = [
        [float(t), b.u, b.x, b.y, b.z] for t, b in zip(times, traj)
    ]
    u_drift = max(abs(b.u - start.u) for b in traj)
    z_drift = max(abs(b.z - start.z) for b in traj)
    trailer = [f"conserved u_drift {u_drift:.3e} z_drift {z_drift:.3e}"]
    _emit_table(
        args,
        ["t", "u", "x", "y", "z"],
        rows,
        trailer=trailer,
        extra={"u_drift": u_drift, "z_drift": z_drift},
    )
    return 0


def handle_brackets(args) -> int:
    n, trials = args.n, args.trials
    if not 1 <= n <= 16:
        raise CliInputError("--n", f"dimension must be in 1..16, got {n}")
    if not 1 <= trials <= TRIALS_MAX:
        raise CliInputError("--trials", f"must be in 1..{TRIALS_MAX}, got {trials}")
    rng = np.random.default_rng(args.seed)
    worst = (0.0, -1, "")
    max_poisson = 0.0
    max_jordan = 0.0
    for trial in range(trials):
        # One draw per trial, sliced in the order of the six draws of
        # _random_hermitian for A, then B, then the state's real and
        # imaginary parts: the same bits.  A and B are Hermitian by
        # construction, so nothing checks them again.
        x = rng.standard_normal(4 * n * n + 2 * n)
        m = x[: 4 * n * n].reshape(4, n, n)
        A, B = (0.5 * (R + R.conj().T) for R in (m[0] + 1j * m[1], m[2] + 1j * m[3]))
        v = x[4 * n * n :].reshape(2, n)
        psi = v[0] + 1j * v[1]
        psi /= math.sqrt(linalg.norm_sq(psi))
        # One differential per function serves both brackets.
        dA = geometry._differential(A, psi)
        dB = geometry._differential(B, psi)
        AB, BA = A @ B, B @ A
        comm = 1j * (AB - BA)
        anti = 0.5 * (AB + BA)
        dp = abs(geometry.symplectic_Omega(dA, dB) - linalg.expectation_value(comm, psi))
        dj = abs(geometry.metric_G(dA, dB) - linalg.expectation_value(anti, psi))
        max_poisson = max(max_poisson, dp)
        max_jordan = max(max_jordan, dj)
        for dev, kind in ((dp, "poisson"), (dj, "jordan")):
            if dev > worst[0]:
                worst = (dev, trial, kind)
    ok = max(max_poisson, max_jordan) <= BRACKET_TOL
    if args.format == "json":
        payload = {
            "n": n,
            "trials": trials,
            "seed": args.seed,
            "max_poisson_deviation": max_poisson,
            "max_jordan_deviation": max_jordan,
            "tolerance": BRACKET_TOL,
            "pass": ok,
        }
        _write_text(args, _render_json(payload))
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
        _write_text(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def handle_freeze(args) -> int:
    hq = qubit.QubitHamiltonian(args.h0, args.hx, args.hy, args.hz)
    with _charged_to("--h0/--hx/--hy/--hz"):
        H = linalg.require_hermitian(hq.matrix())
    with _charged_to("--t"):
        survival, phase = qubit._frozen_state(H, args.t)
    _emit_table(
        args,
        ["t", "survival", "phase_re", "phase_im"],
        [[args.t, survival, phase.real, phase.imag]],
    )
    return 0


# ----------------------------------------------------------------------
# parser


# Built on the first call and shared after: parse_args leaves the parser
# unchanged and returns a fresh Namespace, so every call of main in one
# process parses with this one parser.
@functools.cache
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
        p.add_argument("--seed", type=non_negative_int, default=0, help="seed for random presets")

    def qubit_field(p: argparse.ArgumentParser) -> None:
        for flag in ("--h0", "--hx", "--hy", "--hz"):
            p.add_argument(flag, type=finite_float, default=0.0)

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
    qubit_field(p)
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
    qubit_field(p)
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
