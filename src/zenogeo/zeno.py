"""Measurement-induced dynamics: repeated projections and their limit.

The central objects are the product V_N(t) = (P exp(-iHt/N) P)^N describing
N equally spaced projective measurements during free evolution, its
N -> infinity limit exp(-i PHP t) P, and diagnostics for the 1/N approach
to that limit.  Bounded H and finite-dimensional P throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_state,
    expm_antihermitian,
    norm_sq,
    require_hermitian,
    require_projector,
)

#: Scan errors below this are reported as exactly converged ("exact").
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class ZenoSetup:
    """Hamiltonian, measured subspace and a prepared initial state.

    State preparation means P psi0 = psi0: the initial state lies inside
    the measured subspace.
    """

    hamiltonian: np.ndarray
    projector: np.ndarray
    initial_state: np.ndarray

    def __post_init__(self):
        H = require_hermitian(self.hamiltonian)
        P = require_projector(self.projector)
        psi0 = as_state(self.initial_state)
        if not (H.shape[0] == P.shape[0] == psi0.size):
            raise ValueError(
                f"dimension mismatch: H {H.shape[0]}, P {P.shape[0]}, state {psi0.size}"
            )
        resid = float(np.linalg.norm(P @ psi0 - psi0))
        if resid > 1e-10:
            raise ValueError(
                f"initial state is not prepared in the measured subspace "
                f"(|P psi0 - psi0| = {resid:.3e})"
            )
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "projector", P)
        object.__setattr__(self, "initial_state", psi0)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


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


def projector_from_basis(vectors, tol: float = 1e-8) -> np.ndarray:
    """Build sum_k |v_k><v_k| from a nearly orthonormal family.

    Small deviations (Gram matrix within tol of the identity) are repaired
    by modified Gram-Schmidt; anything worse is rejected.
    """
    vs = [as_state(v) for v in vectors]
    if not vs:
        raise ValueError("need at least one basis vector")
    n = vs[0].size
    if any(v.size != n for v in vs):
        raise ValueError("basis vectors have mismatched dimensions")
    V = np.column_stack(vs)
    gram = V.conj().T @ V
    if np.max(np.abs(gram - np.eye(len(vs)))) > tol:
        raise ValueError(
            "vectors are not orthonormal within tolerance; supply an "
            "orthonormal family or an explicit projector matrix"
        )
    for k in range(len(vs)):
        for j in range(k):
            vs[k] = vs[k] - np.vdot(vs[j], vs[k]) * vs[j]
        vs[k] = vs[k] / math.sqrt(norm_sq(vs[k]))
    V = np.column_stack(vs)
    return V @ V.conj().T


def measured_step(setup: ZenoSetup, t: float, N: int) -> np.ndarray:
    """One measurement period P exp(-iHt/N) P."""
    P = setup.projector
    return P @ expm_antihermitian(setup.hamiltonian, t / N) @ P


def zeno_product(setup: ZenoSetup, t: float, N: int) -> np.ndarray:
    """V_N(t) = (P exp(-iHt/N) P)^N, the evolution with N measurements.

    Built by binary powering of the step, i.e. repeated squaring for powers
    of two.  The result is a contraction.
    """
    N = int(N)
    if N < 1:
        raise ValueError("measurement count N must be >= 1")
    return np.linalg.matrix_power(measured_step(setup, t, N), N)


def zeno_hamiltonian(H, P) -> np.ndarray:
    """Compression PHP of the Hamiltonian to the measured subspace."""
    H = require_hermitian(H)
    P = require_projector(P)
    if H.shape != P.shape:
        raise ValueError("H and P have mismatched dimensions")
    HZ = P @ H @ P
    # Symmetrize away the last-bit Hermiticity loss from the two products.
    return 0.5 * (HZ + HZ.conj().T)


def zeno_limit_unitary(H, P, t: float) -> np.ndarray:
    """Limit of V_N(t) for N -> infinity: exp(-i PHP t) P.

    Unitary on the measured subspace, zero on its complement.
    """
    HZ = zeno_hamiltonian(H, P)
    return expm_antihermitian(HZ, t) @ require_projector(P)


def convergence_scan(setup: ZenoSetup, t: float, N_values) -> list[ScanPoint]:
    """Distance of V_N(t) from the limit evolution for each N.

    Reports the operator (spectral) norm, the topology in which the limit
    statement is checked, plus the Frobenius norm for debugging.
    """
    Ns = [int(N) for N in N_values]
    if not Ns:
        raise ValueError("N_values must be non-empty")
    if any(N < 1 for N in Ns) or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N_values must be ascending positive integers")
    UZ = zeno_limit_unitary(setup.hamiltonian, setup.projector, t)
    points = []
    for N in Ns:
        diff = zeno_product(setup, t, N) - UZ
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
    """
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
    W = np.linalg.matrix_power(measured_step(setup, t, N), N // samples)
    states = np.empty((samples + 1, setup.dim), dtype=np.complex128)
    states[0] = setup.initial_state
    for k in range(samples):
        states[k + 1] = W @ states[k]
    times = np.linspace(0.0, t, samples + 1)
    probs = np.sum(np.abs(states) ** 2, axis=1)
    return ZenoTrajectory(times, states, probs, N)
