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
so the pairings take no base point.  ``metric_G``, ``symplectic_Omega``
and ``_differential`` also take stacks: they act along the last axis, row
by row over any leading axes, and give each row the bits of its 1-D call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    _dot,
    _nonzero_state,
    _require_fits,
    _value,
    as_state,
    expectation_value,
    require_hermitian,
)


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


def differential(f, psi) -> np.ndarray:
    """Differential df_A at psi, as 2n (dq..., dp...) components.

    From del f / del zbar_k = (A z)_k one gets del f / del q_k = 2 Re[(Az)_k]
    and del f / del p_k = 2 Im[(Az)_k].
    """
    f = _as_quadratic(f)
    psi = as_state(psi)
    _require_fits(psi, f.operator)
    return _differential(f.operator, psi)


def _differential(A: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """differential for a validated Hermitian A and a state psi of its
    dimension, or row by row for a stack of them: A (..., n, n) and
    psi (..., n) give (..., 2n), which metric_G and symplectic_Omega pair
    row by row."""
    w = (A @ psi[..., None])[..., 0]
    return np.concatenate([2.0 * w.real, 2.0 * w.imag], axis=-1)


def _split(df) -> tuple[np.ndarray, np.ndarray]:
    df = np.asarray(df, dtype=np.float64)
    if df.ndim == 0 or df.shape[-1] % 2 != 0 or df.shape[-1] == 0:
        raise ValueError(f"covector must have even positive length, got {df.shape}")
    n = df.shape[-1] // 2
    return df[..., :n], df[..., n:]


def _split_pair(df, dg) -> tuple[np.ndarray, ...]:
    fq, fp = _split(df)
    gq, gp = _split(dg)
    if fq.shape[-1] != gq.shape[-1]:
        raise ValueError("covectors have mismatched dimensions")
    return fq, fp, gq, gp


def metric_G(df, dg):
    """Contravariant metric pairing, (1/4) sum_k (df_q dg_q + df_p dg_p)."""
    fq, fp, gq, gp = _split_pair(df, dg)
    return _value(0.25 * (_dot(fq, gq) + _dot(fp, gp)))


def symplectic_Omega(df, dg):
    """Contravariant symplectic pairing, -(1/2) sum_k (df_q dg_p - df_p dg_q).

    Antisymmetric by construction; the sign and factor make the Poisson
    bracket of expectation values the commutator image (see module docs).
    """
    fq, fp, gq, gp = _split_pair(df, dg)
    return _value(-0.5 * (_dot(fq, gp) - _dot(fp, gq)))


def _differentials(fA, fB, psi) -> tuple[np.ndarray, np.ndarray]:
    """df_A and df_B at psi, with psi checked once."""
    fA, fB = _as_quadratic(fA), _as_quadratic(fB)
    if fA.dim != fB.dim:
        raise ValueError("operators have mismatched dimensions")
    psi = as_state(psi)
    _require_fits(psi, fA.operator)
    return _differential(fA.operator, psi), _differential(fB.operator, psi)


def poisson_bracket(fA, fB, psi) -> float:
    """{f_A, f_B}(psi) = Omega(df_A, df_B); equals f_{i(AB-BA)}(psi)."""
    return symplectic_Omega(*_differentials(fA, fB, psi))


def jordan_bracket(fA, fB, psi) -> float:
    """{f_A, f_B}_+(psi) = G(df_A, df_B); equals f_{(AB+BA)/2}(psi)."""
    return metric_G(*_differentials(fA, fB, psi))


def hamiltonian_vector_field(f, psi) -> np.ndarray:
    """X_f at psi in (q..., p...) components: (1/2)(df_p, -df_q).

    For f = f_H the induced flow is zdot_k = -i (H z)_k, i.e. the
    Schrodinger equation.
    """
    f = _as_quadratic(f)
    psi = as_state(psi)
    _require_fits(psi, f.operator)
    w = f.operator @ psi
    return np.concatenate([w.imag, -w.real])


def homogeneous_expectation(A, psi) -> float:
    """Ray function <psi|A|psi> / <psi|psi>, invariant under psi -> c psi."""
    psi, n2 = _nonzero_state(psi)
    return expectation_value(A, psi) / n2


def projective_metric_length(H, psi) -> float:
    """Squared length of the Hamiltonian vector field on the space of rays.

    Computes G~(df~_H, df~_H) with the conformal factor G~ = |psi|^2 G and
    the homogeneous differential df~_H = (df_H - f~_H d|psi|^2) / |psi|^2.
    The value equals the variance of H in the ray of psi (the inverse
    squared Zeno time) and is invariant under rescaling of psi.
    """
    f_H = QuadraticFunction(H)
    psi, n2 = _nonzero_state(psi)
    d_fH = differential(f_H, psi)
    d_norm = 2.0 * to_chart(psi)
    ftilde = f_H(psi) / n2
    d_ftilde = (d_fH - ftilde * d_norm) / n2
    return n2 * metric_G(d_ftilde, d_ftilde)


__all__ = [
    "QuadraticFunction",
    "differential",
    "from_chart",
    "hamiltonian_vector_field",
    "homogeneous_expectation",
    "jordan_bracket",
    "metric_G",
    "poisson_bracket",
    "projective_metric_length",
    "symplectic_Omega",
    "to_chart",
]
