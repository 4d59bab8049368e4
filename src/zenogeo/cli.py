"""Command-line experiment runner.

Subcommands: survival, zeno-time, converge, flow, brackets, freeze.
Inputs are JSON files (see jsonio) or presets, random ones fixed by --seed
unless a thread variable sets more than one thread; outputs are byte-stable
below linalg.PARALLEL_DIM, and from it their digits follow its BLAS threads.
Exit codes: 0 success, 1 tolerance failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
import threading

import numpy as np

from . import geometry, jsonio, linalg, qubit, zeno

BRACKET_TOL = 1e-8
#: Work budget: the largest dimension of a random:<n> preset or an input
#: file (16 MB per n x n complex matrix at the bound) and the largest
#: --n-max.  Past N = 2^25 the ladder's errors sit at the roundoff floor
#: and grow again with N.
RANDOM_DIM_MAX = 1024
N_MAX = 2**20
#: Work budget of the row-per-sample commands: the largest --samples of
#: survival and flow, the largest dimension x --samples of survival (one
#: pass over the sample times per eigenvalue) and the largest --trials of
#: brackets.  Each runs in under 2 s at its bound.
SAMPLES_MAX = 100_000
SURVIVAL_WORK_MAX = RANDOM_DIM_MAX * 10_000
TRIALS_MAX = 3000
#: brackets evaluates its trials in blocks, each stacked n x n complex
#: matrix at most this many bytes: 16 trials at n = 16, more at smaller n.
#: The block keeps the peak memory that of a few trials, whatever --trials.
BRACKET_BLOCK_BYTES = 64 * 1024


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
    # One % format for the whole table: "%.17g" % v is the text of _fmt(v)
    # for every double and int.
    row = ",".join(["%.17g"] * len(header)) + "\n"
    body = row * len(rows) % tuple(itertools.chain.from_iterable(rows))
    return ",".join(header) + "\n" + body + "".join(f"# {t}\n" for t in trailer)


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
# input-spec parsing: one parser per flag returns the plain value of a
# well-formed spec; the first library call to use a matrix or start checks it.
# The helpers recognise one spec form each and raise ValueError.


@contextlib.contextmanager
def _charged_to(field: str, *inputs):
    """Report a ValueError, OSError or finite_float error as one of field,
    or of the first (flag, check, value) of inputs, in flag order, whose
    value fails its check: only a failing run pays for these checks."""
    try:
        yield
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        for flag, check, value in inputs:
            try:
                check(value)
            except ValueError as own:
                raise CliInputError(flag, str(own)) from exc
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
    """Read a jsonio file, of dimension at most RANDOM_DIM_MAX and dim when
    given, for the parser to validate like a preset."""
    try:
        value = load(spec, RANDOM_DIM_MAX)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {what} from {spec!r}: {exc}") from exc
    if dim is not None and len(value) != dim:
        raise ValueError(f"{what} has dim {len(value)}, Hamiltonian has {dim}")
    return value


def _hermitian_part(parts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(R + R^H) / 2 for R = re + i im, into out (..., n, n), from
    parts (..., 2, n, n) holding re and im.  A part at a time: re + re^T
    and im - im^T are the bits of the complex sum, then halved in place."""
    re, im = parts[..., 0, :, :], parts[..., 1, :, :]
    np.add(re, re.swapaxes(-1, -2), out=out.real)
    np.subtract(im, im.swapaxes(-1, -2), out=out.imag)
    out *= 0.5
    return out


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    # One (2, n, n) draw: the stream of an (n, n) draw of re, then of im.
    out = np.empty((n, n), dtype=np.complex128)
    return _hermitian_part(rng.standard_normal((2, n, n)), out)


def _random_rank_projector(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    R = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    Q, _ = np.linalg.qr(R)
    return Q @ Q.conj().T


def _draw_blocks(rng, draws, sizes, free, full) -> None:
    """Draw a block of k rows for each k of sizes, in order, into
    draws[buf, :k] for the next buffer index buf that free gives, and put
    buf on full; stop at a None from free.  What a draw raises is put on
    full in place of an index, for the caller to raise."""
    try:
        for k in sizes:
            buf = free.get()
            if buf is None:
                return
            rng.standard_normal(out=draws[buf, :k])
            full.put(buf)
    except BaseException as exc:  # raised again by the caller
        full.put(exc)


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
        return H


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


def parse_projector_spec(spec: str, dim: int, rng: np.random.Generator) -> np.ndarray:
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
        return P


def parse_bloch_start(spec: str) -> qubit.BlochPoint:
    with _charged_to("--start"):
        if spec in _BLOCH_STARTS:
            return _BLOCH_STARTS[spec]
        return qubit.BlochPoint(*_four_numbers(spec, "u,x,y,z or a named start"))


# ----------------------------------------------------------------------
# subcommand handlers


def handle_survival(args) -> int:
    rng = np.random.default_rng(args.seed)
    H = parse_hamiltonian_spec(args.hamiltonian, rng)
    psi0 = parse_state_spec(args.state, H.shape[0], rng)
    with _charged_to("--hamiltonian"):
        var = linalg.variance(H, psi0)
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
    with _charged_to("--hamiltonian"):
        var = linalg.variance(H, psi0)
    tau = linalg.zeno_time_of_variance(var)
    _emit_table(args, ["variance", "tau_z"], [[var, tau]])
    return 0


def handle_converge(args) -> int:
    n_max = args.n_max
    if not 8 <= n_max <= N_MAX or n_max & (n_max - 1) != 0:
        raise CliInputError("--n-max", f"must be a power of two in 8..{N_MAX}, got {n_max}")
    rng = np.random.default_rng(args.seed)
    H = parse_hamiltonian_spec(args.hamiltonian, rng)
    P = parse_projector_spec(args.projector, H.shape[0], rng)
    inputs = ("--hamiltonian", linalg.require_hermitian, H), ("--projector", linalg.require_projector, P)
    with _charged_to("--projector", *inputs):
        setup = zeno.ZenoSetup(H, P)
    ladder = [2**k for k in range(3, n_max.bit_length())]
    with _charged_to("--t"):
        points = zeno.convergence_scan(setup, args.t, ladder)
    slope = zeno.fit_convergence_slope(points)
    slope, label = ("exact", "exact") if slope is None else (slope, _fmt(slope))
    rows = [[p.n_measurements, p.error_spectral, p.error_frobenius] for p in points]
    _emit_table(
        args,
        ["N", "error_spectral", "error_frobenius"],
        rows,
        trailer=[f"slope {label}"],
        extra={"slope": slope},
    )
    if args.out is not None:
        print(f"slope {label}")
    return 0


def handle_flow(args) -> int:
    hq = qubit.QubitHamiltonian(args.h0, args.hx, args.hy, args.hz)
    start = parse_bloch_start(args.start)
    if not 1 <= args.samples <= SAMPLES_MAX:
        raise CliInputError("--samples", f"must be in 1..{SAMPLES_MAX}, got {args.samples}")
    rate = qubit.zeno_rotation_rate(hq)
    if not math.isfinite(rate):
        raise CliInputError("--h0/--hz", f"rotation rate h0 + hz = {rate!r} is not finite")
    with _charged_to("--t", ("--start", qubit.require_on_sphere, start)):
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
    peak = np.zeros(2)  # the largest poisson and jordan deviations
    block = min(trials, max(1, BRACKET_BLOCK_BYTES // (16 * n * n)))
    sizes = [min(block, trials - first) for first in range(0, trials, block)]
    # Blocks are drawn into two buffers in turn, and built in pairs; devs
    # holds a block's |poisson| and |jordan| deviations, a row per trial.
    # A draw of k rows into the first k rows of a buffer is the same
    # stream as a fresh (k, 4n^2 + 2n) draw, and each row is sliced in the
    # order of the draws of _random_hermitian for A, then B, then the
    # state's real and imaginary parts: the same bits as one draw per
    # trial.  Block 0 is drawn here.  A run of more blocks starts one
    # helper thread, and from block 1 on only it touches rng: it draws the
    # blocks in order, each into the buffer the caller gave back after its
    # last read, while the caller evaluates the block before.  numpy fills
    # a draw with the GIL released, and the helper makes no BLAS call, so
    # linalg's thread rule holds.
    draws = np.empty((2, block, 4 * n * n + 2 * n))
    pairs = np.empty((block, 2, n, n), dtype=np.complex128)
    devs = np.empty((block, 2))
    rng.standard_normal(out=draws[0])
    # Imported here: at module load it raised the peak RSS of every
    # command, brackets or not, by about 0.25 MB.
    import queue

    free, full = queue.SimpleQueue(), queue.SimpleQueue()
    helper = None
    if len(sizes) > 1:
        free.put(1)
        helper = threading.Thread(target=_draw_blocks, args=(rng, draws, sizes[1:], free, full), daemon=True)
        helper.start()
    try:
        buf = 0
        for j, k in enumerate(sizes):
            if j:
                buf = full.get()
                if isinstance(buf, BaseException):
                    raise buf
            x = draws[buf, :k]
            m = x[:, : 4 * n * n].reshape(k, 2, 2, n, n)
            v = x[:, 4 * n * n :].reshape(k, 2, n)
            # A and B are Hermitian by construction, so nothing checks them again.
            mats = _hermitian_part(m, pairs[:k])
            A, B = mats[:, 0], mats[:, 1]
            psi = v[:, 0] + 1j * v[:, 1]
            free.put(buf)  # after the last read of buffer buf
            psi /= np.sqrt(linalg.norm_sq(psi))[:, None]
            # One differential per function serves both brackets.
            dA = geometry._differential(A, psi)
            dB = geometry._differential(B, psi)
            # comm = i(AB - BA) and anti = (AB + BA) / 2, in place.
            comm, BA = A @ B, B @ A
            anti = comm + BA
            anti *= 0.5
            comm -= BA
            comm *= 1j
            d = devs[:k]
            np.subtract(geometry.symplectic_Omega(dA, dB), linalg.expectation_value(comm, psi), out=d[:, 0])
            np.subtract(geometry.metric_G(dA, dB), linalg.expectation_value(anti, psi), out=d[:, 1])
            np.abs(d, out=d)
            np.maximum(peak, d.max(axis=0), out=peak)
            # The first largest deviation in trial order, poisson before jordan.
            i = int(np.argmax(d))
            if d.flat[i] > worst[0]:
                worst = (float(d.flat[i]), j * block + i // 2, ("poisson", "jordan")[i % 2])
    finally:
        if helper is not None:
            free.put(None)
            helper.join()
    max_poisson, max_jordan = peak.tolist()
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
    # At t = 0 the call's time check passes, so it raises for the field only.
    field = ("--h0/--hx/--hy/--hz", lambda h: qubit.frozen_state_check(h, 0.0), hq)
    with _charged_to("--t", field):
        survival, phase = qubit.frozen_state_check(hq, args.t)
    _emit_table(
        args,
        ["t", "survival", "phase_re", "phase_im"],
        [[args.t, survival, phase.real, phase.imag]],
    )
    return 0


# ----------------------------------------------------------------------
# parser


class _StoreOne(argparse.Action):
    """argparse's store, refusing the empty list that argparse up to Python
    3.12 stores for "--f=--" (it drops the "--"): no handler takes a list."""

    def __call__(self, parser, namespace, values, option_string=None):
        if isinstance(values, list):
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


# Built on the first call and shared after: parsing leaves the parsers
# unchanged and returns a fresh Namespace, so every call of main in one
# process uses this one tree.  Its commands attribute maps each command
# name to that command's flag table, recorded from the actions its
# add_argument calls return: each flag string to its action, and the
# names that parse_args sets without a flag (command and the handler).
# main reads an argv straight from the table when every token after the
# command is an exact flag, given once, as --f=v or as --f v with v
# non-empty and not "-"-leading.  argparse parses every other argv:
# help, abbreviations, "-"-leading values in the space form, duplicates,
# bad values, missing flags and unknown tokens.  It stays the one
# definition of the flags, and of every message.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenogeo",
        description="Experiments on survival probabilities and measurement-"
        "induced dynamics; outputs CSV or JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name: str, handler, help: str):
        """Add a command's parser; return its add_argument, which also
        records the flag's action in the command's table."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        flags: dict[str, argparse.Action] = {}
        parser.commands[name] = (flags, {"command": name, "handler": handler})

        def add(*names, **kwargs) -> None:
            action = p.add_argument(*names, action=_StoreOne, **kwargs)
            flags.update(dict.fromkeys(action.option_strings, action))

        return add

    def common(add) -> None:
        add("--format", choices=["csv", "json"], default="csv")
        add("--out", default=None, help="output path (default stdout)")
        add("--seed", type=non_negative_int, default=0, help="seed for random presets")

    def qubit_field(add) -> None:
        for flag in ("--h0", "--hx", "--hy", "--hz"):
            add(flag, type=finite_float, default=0.0)

    add = command("survival", handle_survival, "survival probability p(t) and its quadratic approximation")
    add("--hamiltonian", required=True, help="path | sigma_x|sigma_y|sigma_z | qubit:h0,hx,hy,hz | random:n")
    add("--state", required=True, help="path | e<k> | plus | random")
    add("--t-max", dest="t_max", type=finite_float, required=True)
    add("--samples", type=int, default=100)
    common(add)

    add = command("zeno-time", handle_zeno_time, "variance of H and the Zeno time")
    add("--hamiltonian", required=True)
    add("--state", required=True)
    common(add)

    add = command("converge", handle_converge, "distance of the measured product from its limit on a doubling ladder")
    add("--hamiltonian", required=True)
    add("--projector", required=True, help="path | e<k> | identity | random:rank")
    add("--t", type=finite_float, default=1.0)
    add("--n-max", dest="n_max", type=int, required=True, help="largest N, a power of two >= 8")
    common(add)

    add = command("flow", handle_flow, "Bloch trajectory of the limit dynamics")
    qubit_field(add)
    add("--start", required=True, help="north | south | equator | u,x,y,z")
    add("--t", type=finite_float, required=True)
    add("--samples", type=int, default=200)
    common(add)

    add = command("brackets", handle_brackets, "verify the bracket identities on random draws")
    add("--n", type=int, default=2)
    add("--trials", type=int, default=100)
    common(add)

    add = command("freeze", handle_freeze, "survival and phase of the prepared qubit state")
    qubit_field(add)
    add("--t", type=finite_float, required=True)
    common(add)

    return parser


def _read_flags(tokens: list[str], flags: dict, fixed: dict) -> argparse.Namespace | None:
    """The namespace parse_args gives a command's tokens, read straight from
    its flag table; None when a token is not an exact flag, a flag comes
    twice, a space-form value is empty or "-"-leading (argparse's to
    classify), a value fails its type or choices, or a required flag is
    missing.  "--f=--" is declined too: argparse up to 3.12 reads its value
    as [], 3.13 as "--"."""
    given = {}
    pairs = iter(tokens)
    for token in pairs:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(pairs, "")
            if not value or value[0] == "-":
                return None
        elif value == "--":
            return None
        action = flags.get(flag)
        if action is None or action in given:
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    values = dict(fixed)
    for action in flags.values():
        if action in given:
            values[action.dest] = given[action]
        elif action.required:
            return None
        else:
            values[action.dest] = action.default
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    table = parser.commands.get(argv[0]) if argv else None
    args = None if table is None else _read_flags(argv[1:], *table)
    if args is None:
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
