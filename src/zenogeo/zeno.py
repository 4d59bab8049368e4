"""Measurement-induced dynamics: repeated projections and their limit.

The central objects are the product V_N(t) = (P exp(-iHt/N) P)^N describing
N equally spaced projective measurements during free evolution, its
N -> infinity limit exp(-i PHP t) P, and diagnostics for the 1/N approach
to that limit.  Bounded H and finite-dimensional P throughout.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PROJECTOR_TOL,
    _eigh,
    _hermitian_eigh,
    _propagator,
    _require_count,
    _require_finite_phases,
    _require_fits,
    as_state,
    blas_threads,
    require_hermitian,
    require_projector,
)

#: A scan bound (t leakage)^2 / 2 at or below this is an exact limit:
#: convergence_scan, its one reader, reports every rung as (N, 0, 0).
EXACT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ZenoSetup:
    """Hamiltonian, measured subspace and, optionally, a prepared initial
    state: convergence_scan needs none, measured_trajectory needs one.

    State preparation means P psi0 = psi0: the initial state lies inside
    the measured subspace.

    The measured dynamics lives on range P, of rank r, so the setup
    decomposes its inputs once for every product taken from it:
    ``basis`` is Q, the n x r orthonormal basis of range P that
    linalg.require_projector returns, ``energies`` is E and ``overlaps``
    is W = Q^dagger V, with H = V diag(E) V^dagger, the one n x n
    eigendecomposition.  One measured step is then the r x r matrix
    S_N = Q^dagger exp(-iHt/N) Q = (W * exp(-iEt/N)) W^dagger, and
    ``compression`` is the r x r matrix A = Q^dagger H Q: S_N^N tends to
    exp(-iAt).
    P is idempotent only to PROJECTOR_TOL, so Q spans the nearest
    orthogonal projector QQ^dagger, with |QQ^dagger - P|_F <= PROJECTOR_TOL.
    ``leakage`` is |HQ - Q Q^dagger H Q|_F = |(I - P) H P|_F, how far H
    moves range P out of itself: for a rank-one P = |psi><psi| its square
    is the variance of H in psi, 1/tau_Z^2.  convergence_scan reads it to
    tell an exact limit.  At full rank, Q = I: A is H, W is V and the
    leakage is 0, with no product formed.

    The constructor, the one way to build a setup, checks H and P once
    each and keeps the checked copies.  Setups compare and hash by identity.
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
        with _compression(self.hamiltonian, self.projector) as (H, P, Q, HQ, A):
            E, V = _eigh(H)
            full = A is H  # Q = I: _compression formed no product
            object.__setattr__(self, "hamiltonian", H)
            object.__setattr__(self, "projector", P)
            object.__setattr__(self, "basis", Q)
            object.__setattr__(self, "energies", E)
            object.__setattr__(self, "overlaps", V if full else Q.conj().T @ V)
            object.__setattr__(self, "compression", A)
            object.__setattr__(self, "leakage", 0.0 if full else float(np.linalg.norm(HQ - Q @ A)))
            if self.initial_state is None:
                return
            psi0 = as_state(self.initial_state)
            _require_fits(psi0, H)
            resid = float(np.linalg.norm(P @ psi0 - psi0))
            if resid > PROJECTOR_TOL:
                raise ValueError(
                    f"initial state is not prepared in the measured subspace "
                    f"(|P psi0 - psi0| = {resid:.3e})"
                )
            object.__setattr__(self, "initial_state", psi0)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@contextlib.contextmanager
def _compression(H, P):
    """Checked H and P, the check's basis Q of range P, HQ and A = Q^dagger H Q,
    for a block that runs, as the check of P does, on blas_threads(n).

    At full rank, where require_projector returns Q = I, HQ and A are H
    itself, and no product with I is formed.
    """
    H = require_hermitian(H)
    with blas_threads(H.shape[0]):
        P, Q = require_projector(P)
        if H.shape != P.shape:
            raise ValueError(f"dimension mismatch: H {H.shape[0]}, P {P.shape[0]}")
        if Q.shape[1] == H.shape[0]:
            HQ = A = H
        else:
            HQ = H @ Q
            A = Q.conj().T @ HQ
        yield H, P, Q, HQ, A


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
    N = _require_count(N, "measurement count N")
    Q = setup.basis
    with blas_threads(setup.dim):
        return Q @ _step_power(setup, t, N, N) @ Q.conj().T


def zeno_hamiltonian(H, P) -> np.ndarray:
    """Compression PHP = Q (A + A^dagger)/2 Q^dagger to the measured subspace."""
    with _compression(H, P) as (_, _, Q, _, A):
        return Q @ (0.5 * (A + A.conj().T)) @ Q.conj().T


def zeno_limit_unitary(H, P, t: float) -> np.ndarray:
    """Limit of V_N(t) for N -> infinity: exp(-i PHP t) P = Q exp(-iAt) Q^dagger.

    Unitary on the measured subspace, zero on its complement.
    """
    with _compression(H, P) as (_, _, Q, _, A):
        a, Z = _hermitian_eigh(A)
        return _propagator(a, Q @ Z, float(t))


def convergence_scan(setup: ZenoSetup, t: float, N_values) -> list[ScanPoint]:
    """Distance of V_N(t) from the limit evolution for each N.

    Reports the operator (spectral) norm, the topology in which the limit
    statement is checked, plus the Frobenius norm for debugging.  Both are
    taken in the measured subspace, on S_N^N - exp(-i Q^dagger H Q t): the
    isometry Q leaves either norm of V_N - exp(-i PHP t) P unchanged.  The
    limit comes from the eigenpairs of the r x r compression, in closed
    form at rank one (see linalg._hermitian_eigh).  Each rung obeys
    |V_N - U_Z|_2 <= t^2 |R|_2^2 / (2N), R = HQ - QA: one step is within
    tau^2 |R|_2^2 / 2 of exp(-iA tau), and N steps telescope.  As
    leakage = |R|_F >= |R|_2, when (t leakage)^2 / 2 <= EXACT_TOL the limit
    is exact: once the limit's phases and the first rung's, the largest,
    pass the check, every rung reports (N, 0, 0), and neither S_N^N nor
    exp(-iAt) is formed; at full rank, where A is H, the limit's phases
    are the setup's energies, and no second eigh is taken.
    """
    Ns = [_require_count(N, "measurement count N") for N in N_values]
    if not Ns:
        raise ValueError("N_values must be non-empty")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N_values must be ascending")
    tl = abs(float(t)) * setup.leakage
    with blas_threads(setup.dim):
        if tl * tl / 2 <= EXACT_TOL:
            full = setup.compression is setup.hamiltonian
            a = setup.energies if full else _hermitian_eigh(setup.compression)[0]
            _require_finite_phases(a, float(t))
            _require_finite_phases(setup.energies, float(t) / Ns[0])
            return [ScanPoint(N, 0.0, 0.0) for N in Ns]
        UZ = _propagator(*_hermitian_eigh(setup.compression), float(t))
        points = []
        for N in Ns:
            diff = _step_power(setup, t, N, N) - UZ
            points.append(ScanPoint(N, float(np.linalg.norm(diff, 2)), float(np.linalg.norm(diff))))
        return points


def fit_convergence_slope(points: list[ScanPoint]) -> float | None:
    """Least-squares slope of log error vs log N; None when every error is
    0 (convergence_scan's exact limit, such as [H, P] = 0), nan when fewer
    than two errors are usable."""
    if all(p.error_spectral == 0.0 for p in points):
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
    N = _require_count(N, "measurement count N")
    samples = _require_count(samples, "samples")
    if N % samples != 0:
        raise ValueError(
            f"samples = {samples} is not commensurate with N = {N}: choose "
            f"samples dividing N so every sample falls on a measurement"
        )
    with blas_threads(setup.dim):
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
