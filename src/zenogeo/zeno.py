"""Measurement-induced dynamics: repeated projections and their limit.

The central objects are the product V_N(t) = (P exp(-iHt/N) P)^N describing
N equally spaced projective measurements during free evolution, its
N -> infinity limit exp(-i PHP t) P, and diagnostics for the 1/N approach
to that limit.  Bounded H and finite-dimensional P throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _propagator, as_state, require_hermitian, require_projector

#: Scan errors below this are reported as exactly converged ("exact").
EXACT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ZenoSetup:
    """Hamiltonian, measured subspace and, optionally, a prepared initial
    state: convergence_scan needs none, measured_trajectory needs one.

    State preparation means P psi0 = psi0: the initial state lies inside
    the measured subspace.

    The measured dynamics lives on range P, of rank r, so the setup
    decomposes its inputs once for every product taken from it:
    ``basis`` is Q, an n x r orthonormal basis of range P (see
    _range_basis), ``energies`` is E and ``overlaps`` is W = Q^dagger V,
    with H = V diag(E) V^dagger, the one n x n eigendecomposition.  One
    measured step is then the r x r matrix
    S_N = Q^dagger exp(-iHt/N) Q = (W * exp(-iEt/N)) W^dagger, and
    ``compression`` is the r x r matrix A = Q^dagger H Q: S_N^N tends to
    exp(-iAt).
    P is idempotent only to PROJECTOR_TOL, so Q spans the nearest
    orthogonal projector QQ^dagger, with |QQ^dagger - P|_F about |P^2 - P|_F.
    ``leakage`` is |HQ - Q Q^dagger H Q|_F = |(I - P) H P|_F, how far H
    moves range P out of itself: for a rank-one P = |psi><psi| its square
    is the variance of H in psi, 1/tau_Z^2.

    Setups compare and hash by identity.
    """

    hamiltonian: np.ndarray
    projector: np.ndarray
    initial_state: np.ndarray | None = None
    basis: np.ndarray = field(init=False, repr=False)
    energies: np.ndarray = field(init=False, repr=False)
    overlaps: np.ndarray = field(init=False, repr=False)
    compression: np.ndarray = field(init=False, repr=False)
    leakage: float = field(init=False, repr=False)

    def __post_init__(self):
        H = require_hermitian(self.hamiltonian)
        P = require_projector(self.projector)
        if H.shape != P.shape:
            raise ValueError(f"dimension mismatch: H {H.shape[0]}, P {P.shape[0]}")
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "projector", P)
        Q = _range_basis(P)
        E, V = np.linalg.eigh(H)
        HQ = H @ Q
        A = Q.conj().T @ HQ
        object.__setattr__(self, "basis", Q)
        object.__setattr__(self, "energies", E)
        object.__setattr__(self, "overlaps", Q.conj().T @ V)
        object.__setattr__(self, "compression", A)
        object.__setattr__(self, "leakage", float(np.linalg.norm(HQ - Q @ A)))
        if self.initial_state is None:
            return
        psi0 = as_state(self.initial_state)
        if psi0.size != H.shape[0]:
            raise ValueError(f"dimension mismatch: H {H.shape[0]}, state {psi0.size}")
        resid = float(np.linalg.norm(P @ psi0 - psi0))
        if resid > 1e-10:
            raise ValueError(
                f"initial state is not prepared in the measured subspace "
                f"(|P psi0 - psi0| = {resid:.3e})"
            )
        object.__setattr__(self, "initial_state", psi0)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _range_basis(P: np.ndarray) -> np.ndarray:
    """Orthonormal n x r basis of range P for a validated projector P.

    r = trace P steps of diagonal-pivoted Cholesky give P ~ L L^dagger with
    L of size n x r; every pivot is >= 1/n, since the residual of rank
    r - k has trace r - k.  One subspace step P L then damps the part of P
    that is not idempotent, so Q = qr(P L) spans the nearest orthogonal
    projector.  The only rank-n orthogonal projector is I.
    """
    n = P.shape[0]
    r = round(float(np.real(np.trace(P))))
    if r == n:
        return np.eye(n, dtype=np.complex128)
    L = np.zeros((n, r), dtype=np.complex128)
    d = np.real(P.diagonal()).copy()
    for k in range(r):
        j = int(np.argmax(d))
        L[:, k] = (P[:, j] - L[:, :k] @ L[j, :k].conj()) / math.sqrt(d[j])
        d -= np.abs(L[:, k]) ** 2
    return np.linalg.qr(P @ L)[0]


@dataclass(frozen=True)
class ZenoTrajectory:
    """Sampled states under repeated measurement; states are unnormalized,
    their squared norms are the survival probabilities."""

    times: np.ndarray
    states: np.ndarray
    survival_probs: np.ndarray
    n_measurements: int


@dataclass(frozen=True)
class ScanPoint:
    n_measurements: int
    error_spectral: float
    error_frobenius: float


def _step_power(setup: ZenoSetup, t: float, N: int, k: int) -> np.ndarray:
    """S_N^k for the r x r measured step S_N = Q^dagger exp(-iHt/N) Q.

    Raises ValueError, as expm_antihermitian does, unless every phase E t/N
    is finite.
    """
    S = _propagator(setup.energies, setup.overlaps, float(t) / N)
    return np.linalg.matrix_power(S, k)


def zeno_product(setup: ZenoSetup, t: float, N: int) -> np.ndarray:
    """V_N(t) = (P exp(-iHt/N) P)^N, the evolution with N measurements.

    Computed as Q S_N^N Q^dagger in the measured subspace (see ZenoSetup).
    The result is a contraction.
    """
    N = int(N)
    if N < 1:
        raise ValueError("measurement count N must be >= 1")
    Q = setup.basis
    return Q @ _step_power(setup, t, N, N) @ Q.conj().T


def zeno_hamiltonian(H, P) -> np.ndarray:
    """Compression PHP of the Hamiltonian to the measured subspace."""
    return _compress(require_hermitian(H), require_projector(P))


def _compress(H: np.ndarray, P: np.ndarray) -> np.ndarray:
    """PHP for a validated Hamiltonian H and projector P."""
    if H.shape != P.shape:
        raise ValueError("H and P have mismatched dimensions")
    HZ = P @ H @ P
    # Symmetrize away the last-bit Hermiticity loss from the two products.
    return 0.5 * (HZ + HZ.conj().T)


def zeno_limit_unitary(H, P, t: float) -> np.ndarray:
    """Limit of V_N(t) for N -> infinity: exp(-i PHP t) P.

    Unitary on the measured subspace, zero on its complement.
    """
    H, P = require_hermitian(H), require_projector(P)
    return _propagator(*np.linalg.eigh(_compress(H, P)), float(t)) @ P


def convergence_scan(setup: ZenoSetup, t: float, N_values) -> list[ScanPoint]:
    """Distance of V_N(t) from the limit evolution for each N.

    Reports the operator (spectral) norm, the topology in which the limit
    statement is checked, plus the Frobenius norm for debugging.  Both are
    taken in the measured subspace, on S_N^N - exp(-i Q^dagger H Q t): the
    isometry Q leaves either norm of V_N - exp(-i PHP t) P unchanged.
    """
    Ns = [int(N) for N in N_values]
    if not Ns:
        raise ValueError("N_values must be non-empty")
    if any(N < 1 for N in Ns) or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N_values must be ascending positive integers")
    A = setup.compression
    UZ = _propagator(*np.linalg.eigh(0.5 * (A + A.conj().T)), float(t))
    points = []
    for N in Ns:
        diff = _step_power(setup, t, N, N) - UZ
        points.append(
            ScanPoint(N, float(np.linalg.norm(diff, 2)), float(np.linalg.norm(diff)))
        )
    return points


def fit_convergence_slope(points: list[ScanPoint]) -> float | None:
    """Least-squares slope of log error vs log N; None when the scan sits
    at roundoff (errors all below EXACT_TOL, e.g. [H, P] = 0), nan when
    fewer than two errors are usable."""
    if all(p.error_spectral <= EXACT_TOL for p in points):
        return None
    logs = [
        (math.log(p.n_measurements), math.log(p.error_spectral))
        for p in points
        if p.error_spectral > 0.0
    ]
    if len(logs) < 2:
        return math.nan
    xs = np.array([a for a, _ in logs])
    ys = np.array([b for _, b in logs])
    xm, ym = xs.mean(), ys.mean()
    return float(((xs - xm) @ (ys - ym)) / ((xs - xm) @ (xs - xm)))


def measured_trajectory(
    setup: ZenoSetup, t: float, N: int, samples: int
) -> ZenoTrajectory:
    """States and survival probabilities at sample times k t / samples.

    Sample times are restricted to whole measurement periods, so samples
    must divide N; mixing measurements with partial free evolution would be
    a different protocol.  The recorded states carry their decayed norms.
    Raises ValueError on a setup without an initial state.
    """
    if setup.initial_state is None:
        raise ValueError("measured_trajectory needs a setup with an initial state")
    N = int(N)
    samples = int(samples)
    if N < 1:
        raise ValueError("measurement count N must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if N % samples != 0:
        raise ValueError(
            f"samples = {samples} is not commensurate with N = {N}: choose "
            f"samples dividing N so every sample falls on a measurement"
        )
    S = _step_power(setup, t, N, N // samples)
    Q = setup.basis
    y = Q.conj().T @ setup.initial_state
    states = np.empty((samples + 1, setup.dim), dtype=np.complex128)
    states[0] = setup.initial_state
    for k in range(samples):
        y = S @ y
        states[k + 1] = Q @ y
    times = np.linspace(0.0, t, samples + 1)
    probs = np.sum(np.abs(states) ** 2, axis=1)
    return ZenoTrajectory(times, states, probs, N)
