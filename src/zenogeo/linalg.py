"""Finite-dimensional complex Hilbert-space kernel.

States are plain 1-D complex128 arrays, operators plain 2-D complex128
arrays; validation lives in the ``require_*`` / ``as_*`` helpers instead of
wrapper classes.  Every function is pure and leaves its inputs untouched.

Every eigh of the package goes through _eigh, which keeps copies of the
last _EIGH_MEMO_SIZE = 2 matrices of at most _EIGH_MEMO_BYTES (n <= 256)
it decomposed, with their eigenpairs, and returns copies of the held
pair for a matrix equal to one of them bit for bit: in one process, a
study that sweeps P or psi0 with a fixed H of that size decomposes H
once.  A larger H is decomposed on every call and never held.

BLAS threads: importing the module sets the OpenBLAS that numpy ships to
one thread, process-wide, and records the count it had.  blas_threads(n)
gives a block of work on dimension n >= PARALLEL_DIM the recorded count
and then puts back the count in force before it; _eigh and the library
calls on a Hamiltonian (ZenoSetup, the scan, products and trajectories
of zeno, the propagator, survival, variance and zeno_time here) run their
work after the checks in it.
The count is a setting of the whole process: a large eigh must not run
alongside BLAS work in other Python threads.  The one thread the package
starts, the draw helper of the CLI's brackets, only fills normal draws
and makes no BLAS call.  The rule stands aside when
the user sets OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS,
and where numpy's BLAS is not an OpenBLAS found in numpy's wheel directories.
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import os
import threading
from pathlib import Path

import numpy as np

HERMITIAN_TOL = 1e-12
PROJECTOR_TOL = 1e-10
NORMALIZED_TOL = 1e-12
#: Variance below this is treated as zero (the state is an eigenvector for
#: all practical purposes) and the Zeno time becomes infinite.
VARIANCE_FLOOR = 1e-14
#: States with |psi|^2 at or below this have no ray: _nonzero_state rejects them.
NORM_SQ_FLOOR = 1e-14
#: Operators whose dimension n times their largest real or imaginary part
#: exceeds this are rejected: the bound keeps |A psi|^2 and the variance
#: finite.
OPERATOR_SCALE_MAX = 1e150

#: The smallest dimension whose work runs on more than one BLAS thread:
#: the size from which a second thread saves 25% of the wall time, as it
#: costs about twice the CPU time.  Medians of eigh wall time on a 2-core
#: host, one thread -> two, each in its own process: n = 200 14.5 -> 13.7
#: ms, 256 25.1 -> 21.1, 320 43.1 -> 40.8, 384 82.8 -> 63.2, 512 201 -> 141.
PARALLEL_DIM = 384
#: Environment variables by which OpenBLAS takes a thread count from the
#: user; when any is set, the thread rule leaves OpenBLAS alone.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


class ExtrapolationError(RuntimeError):
    """Raised when the short-time fit does not look quadratic."""


def _openblas_api():
    """(get_num_threads, set_num_threads) of the OpenBLAS in numpy's wheel,
    opened with ctypes, or None where no such library or symbol is found.

    numpy has loaded the library already, so ctypes returns the loaded
    copy.  The symbols carry the prefix scipy_openblas (numpy >= 2) or
    openblas, and the suffix 64_ in 64-bit integer builds.
    """
    root = Path(np.__file__).parent
    for path in [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_%s64_", "openblas_%s64_", "scipy_openblas_%s", "openblas_%s"):
            get = getattr(lib, name % "get_num_threads", None)
            set_ = getattr(lib, name % "set_num_threads", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _one_blas_thread():
    """Set OpenBLAS to one thread; return its API and the count it had,
    or (None, 1) where the user set a thread variable or there is no API."""
    api = None if any(v in os.environ for v in THREAD_VARIABLES) else _openblas_api()
    if api is None:
        return None, 1
    get, set_ = api
    threads = get()
    set_(1)
    return api, threads


_BLAS_API, _BLAS_THREADS = _one_blas_thread()


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the block on the recorded BLAS thread count when n >=
    PARALLEL_DIM, and afterwards, also when it raises, on the count in
    force before it; without the rule, or below PARALLEL_DIM, change
    nothing."""
    if _BLAS_API is None or n < PARALLEL_DIM:
        yield
        return
    get, set_ = _BLAS_API
    before = get()
    set_(_BLAS_THREADS)
    try:
        yield
    finally:
        set_(before)


#: The last _EIGH_MEMO_SIZE matrices _eigh decomposed and held, least
#: recently used first: (bits of H, E, V), all three the memo's own copies.
_eigh_memo: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
_EIGH_MEMO_SIZE = 2
#: The largest H, in bytes, that _eigh holds: n = 256 in complex128.  The
#: memo then keeps at most 2 (H + V + E), about 4 MiB, alive between calls.
_EIGH_MEMO_BYTES = 1 << 20
_eigh_lock = threading.Lock()


def _eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(H), taken once for a complex128 matrix of at most
    _EIGH_MEMO_BYTES that is bit for bit one of the last _EIGH_MEMO_SIZE
    held; any other H is decomposed with no lookup and nothing held.

    The key is the entries' bits in C order, whatever H's layout, so
    -0.0 and 0.0 differ and a nan matches its own bits.  The memo keeps
    its own copies and a hit returns fresh copies of them, so H, E and V
    stay the caller's, writable, as without the memo.
    """
    if H.dtype != np.complex128 or H.nbytes > _EIGH_MEMO_BYTES:
        return _decompose(H)
    key = np.ascontiguousarray(H).view(np.uint64)
    with _eigh_lock:
        for i, (bits, E, V) in enumerate(_eigh_memo):
            if np.array_equal(bits, key):
                _eigh_memo.append(_eigh_memo.pop(i))
                return E.copy(), V.copy()
    E, V = _decompose(H)
    with _eigh_lock:
        _eigh_memo.append((key.copy(), E.copy(), V.copy()))
        del _eigh_memo[:-_EIGH_MEMO_SIZE]
    return E, V


def _decompose(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(H), the one eigh call, under blas_threads(n)."""
    with blas_threads(H.shape[0]):
        return np.linalg.eigh(H)


def as_state(psi) -> np.ndarray:
    """Coerce to a finite 1-D complex128 vector (always a fresh copy)."""
    out = np.array(psi, dtype=np.complex128, copy=True)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"state must be a non-empty 1-D vector, got shape {out.shape}")
    if not np.all(np.isfinite(out.view(np.float64))):
        raise ValueError("state contains non-finite entries")
    return out


def _dot(u: np.ndarray, v: np.ndarray):
    """sum_k u_k v_k along the last axis, row by row over any leading axes.

    Each row is one (1, n) @ (n, 1) product, a single BLAS dot, so a row of
    a stack gives the bits of the same vector on its own.  1-D input gives
    a numpy scalar.
    """
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _value(x):
    """A float for one vector's result, the array of results for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def norm_sq(psi):
    """|psi|^2 along the last axis: a float for one state, an array for a
    stack of states."""
    psi = np.asarray(psi)
    return _value(np.real(_dot(psi.conj(), psi)))


def _nonzero_state(psi) -> tuple[np.ndarray, float]:
    """as_state(psi) and |psi|^2, above NORM_SQ_FLOOR: the one zero-state
    rule of the ray functions.  A psi whose |psi|^2 overflows (to inf, or
    to nan where the complex dot meets inf - inf) is divided by its
    largest real or imaginary part, a rescaling within its ray."""
    psi = as_state(psi)
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = norm_sq(psi)
    if not math.isfinite(n2):
        psi /= abs(psi.view(np.float64)).max()
        n2 = norm_sq(psi)
    if n2 <= NORM_SQ_FLOOR:
        raise ValueError(f"state is (near-)zero: |psi|^2 = {n2:.3e} <= {NORM_SQ_FLOOR:.0e}")
    return psi, n2


def _require_fits(psi: np.ndarray, A: np.ndarray) -> None:
    """Raise unless A acts on psi: an (n, n) A on an (n,) psi, or a stack
    A (..., n, n) on psi (..., n).  The one state-operator shape rule."""
    if psi.ndim == 0 or A.ndim < 2 or A.shape[-2:] != (psi.shape[-1],) * 2:
        raise ValueError(f"dimension mismatch: state has shape {psi.shape}, operator {A.shape}")


def _require_count(value, what: str) -> int:
    """int(value), at least 1: the one rule for counts."""
    n = int(value)
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    return n


def normalize(psi) -> np.ndarray:
    psi, n2 = _nonzero_state(psi)
    return psi / math.sqrt(n2)


def require_normalized(psi) -> np.ndarray:
    psi = as_state(psi)
    if abs(norm_sq(psi) - 1.0) > NORMALIZED_TOL:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq(psi)!r}")
    return psi


def require_hermitian(A, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Coerce to a square complex128 matrix and check A = A^dagger entrywise."""
    # C order: a float64 view of an F-ordered copy would raise.
    out = np.array(A, dtype=np.complex128, order="C")
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {out.shape}")
    # Parts, not |A_ij|, which can overflow; |A_ij| <= sqrt(2) max part.
    # The max propagates nan, so a finite peak means finite entries.
    peak = float(abs(out.view(np.float64)).max(initial=0.0))
    if not math.isfinite(peak):
        raise ValueError("operator contains non-finite entries")
    scale = out.shape[0] * peak
    if scale > OPERATOR_SCALE_MAX:
        raise ValueError(
            f"operator scale n max|Re, Im A_ij| = {scale:.3e} exceeds {OPERATOR_SCALE_MAX:.0e}"
        )
    # out - out.conj().T in place in a contiguous copy of out.T: less memory, faster.
    d = out.T.copy()
    np.conjugate(d, out=d)
    np.subtract(out, d, out=d)
    dev = abs(d).max()
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return out


def require_projector(P) -> tuple[np.ndarray, np.ndarray]:
    """Check Hermiticity, idempotence and rank >= 1; return P and Q, an
    orthonormal basis of range P, of rank r = round(trace P).

    Pivoted Cholesky P ~ L L^dagger, L of size n x r, stops at a pivot below
    1/(2n): a projector's are >= 1/n, as the residual of rank r - k has trace
    r - k.  Q = qr(P L), or I at r = n, spans the nearest orthogonal
    projector.  P is idempotent when |P - QQ^dagger|_F, which is |P^2 - P|_F
    to first order, is at most PROJECTOR_TOL; with Q of rank below r it is not."""
    P = require_hermitian(P, tol=PROJECTOR_TOL)
    n = P.shape[0]
    tr = float(np.real(np.trace(P)))
    r = max(round(tr), 0)
    if r >= n:
        Q = np.eye(n, dtype=np.complex128)
        resid = np.linalg.norm(P - Q)
    else:
        L = np.zeros((n, r), dtype=np.complex128)
        d = np.real(P.diagonal()).copy()
        for k in range(r):
            j = int(np.argmax(d))
            if d[j] < 0.5 / n:
                L = L[:, :k]
                break
            L[:, k] = (P[:, j] - L[:, :k] @ L[j, :k].conj()) / math.sqrt(d[j])
            d -= np.abs(L[:, k]) ** 2
        Q = np.linalg.qr(P @ L)[0] if L.size else L
        resid = np.linalg.norm(P - Q @ Q.conj().T)
    if not resid <= PROJECTOR_TOL:
        raise ValueError(f"matrix is not idempotent (|P - QQ^dagger|_F = {resid:.3e})")
    if r < 1:
        raise ValueError(f"projector trace {tr!r} is not an integer rank in [1, n]")
    return P, Q


def _require_finite_phases(E: np.ndarray, t) -> None:
    """Raise unless every phase E_k t is finite, checked as max|E| max|t| in
    Python floats, where an overflow gives inf and no warning.  The one
    time check: a nan or infinite t fails even at E = 0, as 0 * inf is nan."""
    phase = float(abs(E).max(initial=0.0)) * float(np.abs(t).max(initial=0.0))
    if not math.isfinite(phase):
        raise ValueError(f"phase max|E| max|t| = {phase!r} is not finite")


def _propagator(E: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:
    """V diag(exp(-i E t)) V^dagger: exp(-i H t) for the eigenpairs (E, V) of
    H, or Q^dagger exp(-i H t) Q for V = Q^dagger V.  The one propagator."""
    _require_finite_phases(E, t)
    return (V * np.exp(-1j * E * t)) @ V.conj().T


def _hermitian_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian part (A + A^dagger)/2 of a compression A.

    A 1 x 1 A is its own eigenpair: the eigenvalue Re A and the eigenvector
    1, the bits that LAPACK's zheevd returns for N = 1, here without the
    call.  Below OPERATOR_SCALE_MAX, (a + conj a)/2 is Re a exactly.
    """
    if A.shape == (1, 1):
        return A.real[0].copy(), np.array([[1 + 0j]])
    return _eigh(0.5 * (A + A.conj().T))


def expm_antihermitian(H, t: float) -> np.ndarray:
    """Return exp(-i H t) for Hermitian H.

    Eigenvector method for normal matrices: with H = V diag(E) V^dagger,
    exp(-i H t) = V diag(exp(-i E t)) V^dagger, unitary up to the roundoff
    of ``eigh`` for any t with finite phases E t.
    """
    H = require_hermitian(H)
    with blas_threads(H.shape[0]):
        return _propagator(*_eigh(H), float(t))


@contextlib.contextmanager
def _eigen(psi0, H):
    """Eigenpairs (E, V) of a checked H, from one eigh, and the checked
    normalized state psi0 of the same dimension, for a block that runs on
    blas_threads(n)."""
    psi0 = require_normalized(psi0)
    H = require_hermitian(H)
    _require_fits(psi0, H)
    with blas_threads(H.shape[0]):
        yield (*_eigh(H), psi0)


def evolve(psi0, H, t: float) -> np.ndarray:
    """Propagate a normalized state: psi(t) = exp(-i H t) psi0."""
    with _eigen(psi0, H) as (E, V, psi0):
        return _propagator(E, V, float(t)) @ psi0


def expectation_value(A, psi):
    """Unnormalized quadratic form Re <psi|A|psi> (real for Hermitian A).

    A float for an (n, n) A and a state psi; for a stack A (..., n, n) and
    psi (..., n), the array of the row-by-row values.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    A = np.asarray(A, dtype=np.complex128)
    _require_fits(psi, A)
    return _value(np.real(_dot(psi.conj(), (A @ psi[..., None])[..., 0])))


def _times(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    return t


def _amplitudes(E: np.ndarray, V: np.ndarray, psi0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k |<v_k|psi0>|^2 exp(-i E_k t) over the eigenpairs (E_k, v_k)
    of H, for every time in t."""
    _require_finite_phases(E, t)
    weights = np.abs(V.conj().T @ psi0) ** 2
    # One pass per eigenpair keeps memory at the size of t.
    a = np.zeros(t.shape, dtype=np.complex128)
    for E_k, w_k in zip(E, weights):
        a += w_k * np.exp(-1j * E_k * t)
    return a


def _probabilities(E: np.ndarray, V: np.ndarray, psi0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """survival_probability from the eigenpairs and state of _eigen."""
    a = _amplitudes(E, V, psi0, np.append(0.0, t))
    return np.minimum(np.abs(a[1:]) ** 2 / abs(a[0]) ** 2, 1.0)


def survival_amplitude(psi0, H, t):
    """Overlap <psi0| exp(-i H t) |psi0> of the evolved state with itself;
    a complex for a scalar t, an array for a 1-D array of times."""
    t = _times(t)
    with _eigen(psi0, H) as spectrum:
        a = _amplitudes(*spectrum, t)
    return complex(a) if t.ndim == 0 else a


def survival_probability(psi0, H, t):
    """p(t) = |a(t)|^2 / |a(0)|^2 with a the survival amplitude, clipped to
    [0, 1] against roundoff; a float for a scalar t, an array otherwise.

    a(0) comes from the same sum as a(t), so p(0) is exactly 1.
    """
    t = _times(t)
    with _eigen(psi0, H) as spectrum:
        p = _probabilities(*spectrum, t)
    return float(p[0]) if t.ndim == 0 else p


def variance(H, psi) -> float:
    """Homogeneous variance <H^2>/|psi|^2 - (<H>/|psi|^2)^2.

    The explicit norms make the value depend only on the ray of psi, so the
    input need not be normalized.
    """
    psi, n2 = _nonzero_state(psi)
    H = require_hermitian(H)
    _require_fits(psi, H)
    with blas_threads(H.shape[0]):
        Hpsi = H @ psi
        mean = float(np.real(np.vdot(psi, Hpsi))) / n2
        second = float(np.real(np.vdot(Hpsi, Hpsi))) / n2
    return second - mean * mean


def zeno_time_of_variance(var: float) -> float:
    """Zeno time 1/sqrt(var); +inf at or below VARIANCE_FLOOR (an eigenstate)."""
    return math.inf if var <= VARIANCE_FLOOR else 1.0 / math.sqrt(var)


def zeno_time(psi0, H) -> float:
    """Inverse standard deviation of H in psi0; +inf for an eigenstate.

    Sets the quadratic short-time decay scale of the survival probability,
    p(t) ~ 1 - t^2 * variance.
    """
    return zeno_time_of_variance(variance(H, psi0))


def short_time_coefficient(psi0, H) -> float:
    """Fit c in p(t) = 1 - c t^2 + O(t^4) by Richardson extrapolation.

    Evaluates g(t) = (1 - p(t)) / t^2 on t0 / 2^k and extrapolates in t^2;
    the survival probability is even in t, so g has a pure t^2 expansion.
    Raises ExtrapolationError when the tableau does not settle, i.e. the
    leading behavior is not quadratic to the expected accuracy.
    """
    with _eigen(psi0, H) as (E, V, psi0):
        # The spectral radius max|E| is the spectral norm of Hermitian H.
        scale = float(np.max(np.abs(E)))
        if scale == 0.0:
            return 0.0
        t0 = 0.1 / scale
        levels = 5
        ts = t0 / 2.0 ** np.arange(levels)
        # Richardson tableau in the variable h = t^2 (step ratio 4 per level).
        tab = ((1.0 - _probabilities(E, V, psi0, ts)) / ts**2).tolist()
    best = [tab[0]]
    for m in range(1, levels):
        for k in range(levels - m):
            tab[k] = (4**m * tab[k + 1] - tab[k]) / (4**m - 1)
        best.append(tab[0])
    c, second_best = best[-1], best[-2]
    if abs(c - second_best) > max(1e-7 * abs(c), 1e-8 * scale**2):
        raise ExtrapolationError(
            f"short-time fit did not converge: last two estimates "
            f"{second_best!r} and {c!r} differ beyond tolerance"
        )
    return c
