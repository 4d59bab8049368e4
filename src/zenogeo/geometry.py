"""Geometry of state space in the real chart R^{2n}.

Conventions, fixed once and used everywhere:

* the chart stacks coordinates as (q_1..q_n, p_1..p_n) with z_k = q_k + i p_k
  and NO 1/sqrt(2) factor;
* consequently the contravariant metric pairing carries a 1/4 and the
  symplectic pairing a -1/2 prefactor.  These factors are not negotiable:
  they are pinned by the requirement that on expectation-value functions
  the two pairings realize the commutator and anticommutator,
  ``Omega(df_A, df_B) = f_{i(AB-BA)}`` and ``G(df_A, df_B) = f_{(AB+BA)/2}``.

Covectors and vectors are plain real 1-D arrays of length 2n in the
(q..., p...) ordering; both tensors have constant components in this chart,
so the pairings take no base point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NORM_SQ_FLOOR, as_state, expectation_value, norm_sq, require_hermitian


def to_chart(psi) -> np.ndarray:
    """Map a complex state to its (q..., p...) chart point."""
    psi = as_state(psi)
    return np.concatenate([psi.real, psi.imag])


def from_chart(xi) -> np.ndarray:
    """Inverse of to_chart; exact for finite floats."""
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim != 1 or xi.size % 2 != 0 or xi.size == 0:
        raise ValueError(f"chart point must have even positive length, got {xi.shape}")
    n = xi.size // 2
    return xi[:n] + 1j * xi[n:]


@dataclass(frozen=True)
class QuadraticFunction:
    """The real function f_A(psi) = <psi|A|psi> attached to a Hermitian A."""

    operator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "operator", require_hermitian(self.operator))

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def __call__(self, psi) -> float:
        return expectation_value(self.operator, psi)


def _as_quadratic(f) -> QuadraticFunction:
    if isinstance(f, QuadraticFunction):
        return f
    return QuadraticFunction(f)


def _check_dims(f: QuadraticFunction, psi: np.ndarray) -> None:
    if f.dim != psi.size:
        raise ValueError(
            f"dimension mismatch: function expects dim {f.dim}, state has {psi.size}"
        )


def differential(f, psi) -> np.ndarray:
    """Differential df_A at psi, as 2n (dq..., dp...) components.

    From del f / del zbar_k = (A z)_k one gets del f / del q_k = 2 Re[(Az)_k]
    and del f / del p_k = 2 Im[(Az)_k].
    """
    f = _as_quadratic(f)
    psi = as_state(psi)
    _check_dims(f, psi)
    return _differential(f.operator, psi)


def _differential(A: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """differential for a validated Hermitian A and a state psi of its
    dimension."""
    w = A @ psi
    return np.concatenate([2.0 * w.real, 2.0 * w.imag])


def _split(df) -> tuple[np.ndarray, np.ndarray]:
    df = np.asarray(df, dtype=np.float64)
    if df.ndim != 1 or df.size % 2 != 0 or df.size == 0:
        raise ValueError(f"covector must have even positive length, got {df.shape}")
    n = df.size // 2
    return df[:n], df[n:]


def metric_G(df, dg) -> float:
    """Contravariant metric pairing, (1/4) sum_k (df_q dg_q + df_p dg_p)."""
    fq, fp = _split(df)
    gq, gp = _split(dg)
    if fq.size != gq.size:
        raise ValueError("covectors have mismatched dimensions")
    return 0.25 * float(fq @ gq + fp @ gp)


def symplectic_Omega(df, dg) -> float:
    """Contravariant symplectic pairing, -(1/2) sum_k (df_q dg_p - df_p dg_q).

    Antisymmetric by construction; the sign and factor make the Poisson
    bracket of expectation values the commutator image (see module docs).
    """
    fq, fp = _split(df)
    gq, gp = _split(dg)
    if fq.size != gq.size:
        raise ValueError("covectors have mismatched dimensions")
    return -0.5 * float(fq @ gp - fp @ gq)


def poisson_bracket(fA, fB, psi) -> float:
    """{f_A, f_B}(psi) = Omega(df_A, df_B); equals f_{i(AB-BA)}(psi)."""
    fA, fB = _as_quadratic(fA), _as_quadratic(fB)
    if fA.dim != fB.dim:
        raise ValueError("operators have mismatched dimensions")
    return symplectic_Omega(differential(fA, psi), differential(fB, psi))


def jordan_bracket(fA, fB, psi) -> float:
    """{f_A, f_B}_+(psi) = G(df_A, df_B); equals f_{(AB+BA)/2}(psi)."""
    fA, fB = _as_quadratic(fA), _as_quadratic(fB)
    if fA.dim != fB.dim:
        raise ValueError("operators have mismatched dimensions")
    return metric_G(differential(fA, psi), differential(fB, psi))


def hamiltonian_vector_field(f, psi) -> np.ndarray:
    """X_f at psi in (q..., p...) components: (1/2)(df_p, -df_q).

    For f = f_H the induced flow is zdot_k = -i (H z)_k, i.e. the
    Schrodinger equation.
    """
    f = _as_quadratic(f)
    psi = as_state(psi)
    _check_dims(f, psi)
    w = f.operator @ psi
    return np.concatenate([w.imag, -w.real])


def hamiltonian_flow_matrix(H) -> np.ndarray:
    """Chart matrix of X_{f_H}: the real 2n x 2n generator of zdot = -iHz.

    Writing H = Hr + i Hi, the block form is [[Hi, Hr], [-Hr, Hi]].
    Feeding this to an ODE integrator evolves chart points under the
    Schrodinger flow.
    """
    H = require_hermitian(H)
    Hr, Hi = H.real, H.imag
    return np.block([[Hi, Hr], [-Hr, Hi]])


def homogeneous_expectation(A, psi) -> float:
    """Ray function <psi|A|psi> / <psi|psi>, invariant under psi -> c psi."""
    psi = as_state(psi)
    n2 = norm_sq(psi)
    if n2 <= NORM_SQ_FLOOR:
        raise ValueError("homogeneous expectation undefined near the zero vector")
    return expectation_value(A, psi) / n2


def projective_metric_length(H, psi) -> float:
    """Squared length of the Hamiltonian vector field on the space of rays.

    Computes G~(df~_H, df~_H) with the conformal factor G~ = |psi|^2 G and
    the homogeneous differential df~_H = (df_H - f~_H d|psi|^2) / |psi|^2.
    The value equals the variance of H in the ray of psi (the inverse
    squared Zeno time) and is invariant under rescaling of psi.
    """
    f_H = QuadraticFunction(H)
    psi = as_state(psi)
    n2 = norm_sq(psi)
    if n2 <= NORM_SQ_FLOOR:
        raise ValueError("projective length undefined near the zero vector")
    d_fH = differential(f_H, psi)
    d_norm = 2.0 * to_chart(psi)
    ftilde = f_H(psi) / n2
    d_ftilde = (d_fH - ftilde * d_norm) / n2
    return n2 * metric_G(d_ftilde, d_ftilde)


__all__ = [
    "QuadraticFunction",
    "differential",
    "from_chart",
    "hamiltonian_flow_matrix",
    "hamiltonian_vector_field",
    "homogeneous_expectation",
    "jordan_bracket",
    "metric_G",
    "poisson_bracket",
    "projective_metric_length",
    "symplectic_Omega",
    "to_chart",
]
