"""Finite-dimensional complex Hilbert-space kernel.

States are plain 1-D complex128 arrays, operators plain 2-D complex128
arrays; validation lives in the ``require_*`` / ``as_*`` helpers instead of
wrapper classes.  Every function is pure and leaves its inputs untouched.
"""
from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-12
PROJECTOR_TOL = 1e-10
NORMALIZED_TOL = 1e-12
#: Variance below this is treated as zero (the state is an eigenvector for
#: all practical purposes) and the Zeno time becomes infinite.
VARIANCE_FLOOR = 1e-14
#: Squared norms below this are rejected by the homogeneous formulas.
NORM_SQ_FLOOR = 1e-14
#: Operators whose dimension n times their largest real or imaginary part
#: exceeds this are rejected: the bound keeps |A psi|^2 and the variance
#: finite.
OPERATOR_SCALE_MAX = 1e150

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


class ExtrapolationError(RuntimeError):
    """Raised when the short-time fit does not look quadratic."""


def as_state(psi) -> np.ndarray:
    """Coerce to a finite 1-D complex128 vector (always a fresh copy)."""
    out = np.array(psi, dtype=np.complex128, copy=True)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"state must be a non-empty 1-D vector, got shape {out.shape}")
    if not np.all(np.isfinite(out.view(np.float64))):
        raise ValueError("state contains non-finite entries")
    return out


def norm_sq(psi) -> float:
    psi = np.asarray(psi)
    return float(np.real(np.vdot(psi, psi)))


def normalize(psi) -> np.ndarray:
    psi = as_state(psi)
    n2 = norm_sq(psi)
    if n2 <= NORM_SQ_FLOOR:
        raise ValueError("cannot normalize a (near-)zero vector")
    return psi / math.sqrt(n2)


def require_normalized(psi) -> np.ndarray:
    psi = as_state(psi)
    if abs(norm_sq(psi) - 1.0) > NORMALIZED_TOL:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq(psi)!r}")
    return psi


def require_hermitian(A, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Coerce to a square complex128 matrix and check A = A^dagger entrywise."""
    out = np.array(A, dtype=np.complex128, copy=True)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out.view(np.float64))):
        raise ValueError("operator contains non-finite entries")
    # Parts, not |A_ij|, which can overflow; |A_ij| <= sqrt(2) max part.
    scale = out.shape[0] * float(np.max(np.abs(out.view(np.float64)), initial=0.0))
    if scale > OPERATOR_SCALE_MAX:
        raise ValueError(
            f"operator scale n max|Re, Im A_ij| = {scale:.3e} exceeds {OPERATOR_SCALE_MAX:.0e}"
        )
    dev = np.max(np.abs(out - out.conj().T))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return out


def require_projector(P) -> np.ndarray:
    """Check Hermiticity, idempotence (Frobenius) and integer trace."""
    P = require_hermitian(P, tol=PROJECTOR_TOL)
    idem = np.linalg.norm(P @ P - P)
    if idem > PROJECTOR_TOL:
        raise ValueError(f"matrix is not idempotent (|P^2 - P|_F = {idem:.3e})")
    tr = float(np.real(np.trace(P)))
    if abs(tr - round(tr)) > PROJECTOR_TOL or not (1 <= round(tr) <= P.shape[0]):
        raise ValueError(f"projector trace {tr!r} is not an integer rank in [1, n]")
    return P


def _require_finite_phases(E: np.ndarray, t) -> None:
    """Raise unless every phase E_k t is finite, checked as max|E| max|t| in
    Python floats, where an overflow gives inf and no warning.  The one
    time check: a nan or infinite t fails even at E = 0, as 0 * inf is nan."""
    phase = float(np.max(np.abs(E), initial=0.0)) * float(np.max(np.abs(t), initial=0.0))
    if not math.isfinite(phase):
        raise ValueError(f"phase max|E| max|t| = {phase!r} is not finite")


def _propagator(E: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:
    """V diag(exp(-i E t)) V^dagger: exp(-i H t) for the eigenpairs (E, V) of
    H, or Q^dagger exp(-i H t) Q for V = Q^dagger V.  The one propagator."""
    _require_finite_phases(E, t)
    return (V * np.exp(-1j * E * t)) @ V.conj().T


def expm_antihermitian(H, t: float) -> np.ndarray:
    """Return exp(-i H t) for Hermitian H.

    Eigenvector method for normal matrices: with H = V diag(E) V^dagger,
    exp(-i H t) = V diag(exp(-i E t)) V^dagger, unitary up to the roundoff
    of ``eigh`` for any t with finite phases E t.
    """
    return _propagator(*np.linalg.eigh(require_hermitian(H)), float(t))


def _eigen(psi0, H) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs (E, V) of a checked H, from one eigh, and the checked
    normalized state psi0 of the same dimension."""
    psi0 = require_normalized(psi0)
    H = require_hermitian(H)
    if H.shape[0] != psi0.size:
        raise ValueError(
            f"dimension mismatch: state has dim {psi0.size}, operator {H.shape[0]}"
        )
    return (*np.linalg.eigh(H), psi0)


def evolve(psi0, H, t: float) -> np.ndarray:
    """Propagate a normalized state: psi(t) = exp(-i H t) psi0."""
    E, V, psi0 = _eigen(psi0, H)
    return _propagator(E, V, float(t)) @ psi0


def expectation_value(A, psi) -> float:
    """Unnormalized quadratic form <psi|A|psi> (real for Hermitian A)."""
    psi = np.asarray(psi, dtype=np.complex128)
    A = np.asarray(A, dtype=np.complex128)
    if A.shape[0] != psi.size:
        raise ValueError(
            f"dimension mismatch: state has dim {psi.size}, operator {A.shape[0]}"
        )
    return float(np.real(np.vdot(psi, A @ psi)))


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
    """survival_probability from the output of _eigen."""
    a = _amplitudes(E, V, psi0, np.append(0.0, t))
    return np.minimum(np.abs(a[1:]) ** 2 / abs(a[0]) ** 2, 1.0)


def survival_amplitude(psi0, H, t):
    """Overlap <psi0| exp(-i H t) |psi0> of the evolved state with itself;
    a complex for a scalar t, an array for a 1-D array of times."""
    t = _times(t)
    a = _amplitudes(*_eigen(psi0, H), t)
    return complex(a) if t.ndim == 0 else a


def survival_probability(psi0, H, t):
    """p(t) = |a(t)|^2 / |a(0)|^2 with a the survival amplitude, clipped to
    [0, 1] against roundoff; a float for a scalar t, an array otherwise.

    a(0) comes from the same sum as a(t), so p(0) is exactly 1.
    """
    t = _times(t)
    p = _probabilities(*_eigen(psi0, H), t)
    return float(p[0]) if t.ndim == 0 else p


def variance(H, psi) -> float:
    """Homogeneous variance <H^2>/|psi|^2 - (<H>/|psi|^2)^2.

    The explicit norms make the value depend only on the ray of psi, so the
    input need not be normalized.
    """
    psi = as_state(psi)
    H = require_hermitian(H)
    n2 = norm_sq(psi)
    if n2 <= NORM_SQ_FLOOR:
        raise ValueError("variance undefined for a (near-)zero vector")
    Hpsi = H @ psi
    mean = float(np.real(np.vdot(psi, Hpsi))) / n2
    second = float(np.real(np.vdot(Hpsi, Hpsi))) / n2
    return second - mean * mean


def zeno_time(psi0, H) -> float:
    """Inverse standard deviation of H in psi0; +inf for an eigenstate.

    Sets the quadratic short-time decay scale of the survival probability,
    p(t) ~ 1 - t^2 * variance.
    """
    var = variance(H, psi0)
    if var <= VARIANCE_FLOOR:
        return math.inf
    return 1.0 / math.sqrt(var)


def short_time_coefficient(psi0, H) -> float:
    """Fit c in p(t) = 1 - c t^2 + O(t^4) by Richardson extrapolation.

    Evaluates g(t) = (1 - p(t)) / t^2 on t0 / 2^k and extrapolates in t^2;
    the survival probability is even in t, so g has a pure t^2 expansion.
    Raises ExtrapolationError when the tableau does not settle, i.e. the
    leading behavior is not quadratic to the expected accuracy.
    """
    E, V, psi0 = _eigen(psi0, H)
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
