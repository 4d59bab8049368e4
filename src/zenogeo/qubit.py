"""The two-level worked example: Bloch coordinates and the frozen orbit.

Bloch coordinates are the quadratic functions

    u = |z1|^2 + |z2|^2      x = 2 Re(conj(z1) z2)
    y = 2 Im(conj(z1) z2)    z = |z1|^2 - |z2|^2

i.e. the expectation values of (identity, sigma_x, sigma_y, sigma_z) with
the standard Pauli matrices, so the first basis vector e1 sits at the North
Pole (z = +1) and is the +1 eigenvector of sigma_z.  Pure states satisfy
u^2 = x^2 + y^2 + z^2 identically.

Measurement projects onto e1, P = (I + sigma_z)/2.  The limit dynamics is
generated by PHP = (h0 + hz) |e1><e1|; its Bloch image keeps u and z fixed
and precesses (x, y) counterclockwise at angular rate h0 + hz.  (The
off-diagonal coordinates x, y beat at the frequency difference of the two
levels of PHP, which is (h0 + hz) - 0 since the orthogonal level carries
eigenvalue zero.)  The prepared state e1 is a fixed point of the flow: it
only gains the phase exp(-i (h0 + hz) t).  Rotation and phase are closed
forms, taken after linalg's one time check and with no propagator, and
the field is checked on its four Python floats, with no matrix built.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _nonzero_state,
    _require_count,
    _require_finite_phases,
    _require_scale,
    as_state,
    zeno_time_of_variance,
)

#: Projector onto the first basis state, (I + sigma_z)/2.
PROJECTOR_UP = np.diag([1.0, 0.0]).astype(np.complex128)

#: Flow starts are accepted when the sphere constraint holds this well.
CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class QubitHamiltonian:
    """H = h0 * I + hx sigma_x + hy sigma_y + hz sigma_z."""

    h0: float
    hx: float
    hy: float
    hz: float

    def __post_init__(self):
        object.__setattr__(self, "h0", float(self.h0))
        object.__setattr__(self, "hx", float(self.hx))
        object.__setattr__(self, "hy", float(self.hy))
        object.__setattr__(self, "hz", float(self.hz))

    @property
    def field(self) -> np.ndarray:
        return np.array([self.hx, self.hy, self.hz], dtype=np.float64)

    def matrix(self) -> np.ndarray:
        # Entrywise from Python floats: a sum that overflows gives inf, which
        # require_hermitian rejects, and no numpy warning.  0.0 - hy, not
        # -hy: hy = 0 gives +0.0, the bits of the Pauli sum.
        h0, hx, hy, hz = self.h0, self.hx, self.hy, self.hz
        return np.array(
            [[h0 + hz, complex(hx, 0.0 - hy)], [complex(hx, 0.0 + hy), h0 - hz]],
            dtype=np.complex128,
        )


@dataclass(frozen=True)
class BlochPoint:
    u: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.x, self.y, self.z], dtype=np.float64)

    def constraint_residual(self) -> float:
        """u^2 - (x^2 + y^2 + z^2); zero on images of pure states."""
        # Products, not **: a huge coordinate overflows to inf, not OverflowError.
        return self.u * self.u - (self.x * self.x + self.y * self.y + self.z * self.z)


def _require_field(hq: QubitHamiltonian) -> None:
    """Raise as require_hermitian(hq.matrix()) raises: linalg's entry and
    scale rule on the parts h0 + hz, hx, hy and h0 - hz of H's entries,
    each tested finite first, as max carries no nan.  No Hermitian deviation
    is checked: the off-diagonal pair is built from the same hx, hy, so the
    deviation is exactly 0 for every finite field."""
    parts = (hq.h0 + hq.hz, hq.hx, hq.hy, hq.h0 - hq.hz)
    _require_scale(2, max(map(abs, parts)) if all(map(math.isfinite, parts)) else math.inf)


def require_on_sphere(point: BlochPoint) -> BlochPoint:
    """Return point if u^2 = x^2 + y^2 + z^2 holds to CONSTRAINT_TOL (relative
    to u^2 once u^2 > 1); a nan or overflowed residual fails."""
    resid = point.constraint_residual()
    tol = CONSTRAINT_TOL * max(1.0, point.u * point.u)
    if not (math.isfinite(resid) and abs(resid) <= tol):
        raise ValueError(
            f"start violates the sphere constraint u^2 = x^2+y^2+z^2 "
            f"(residual {resid:.3e})"
        )
    return point


def bloch_map(psi) -> BlochPoint:
    """Quadratic Bloch coordinates (u, x, y, z) of a two-component state."""
    psi = as_state(psi)
    if psi.size != 2:
        raise ValueError(f"bloch_map expects dimension 2, got {psi.size}")
    z1, z2 = psi
    w = np.conj(z1) * z2
    return BlochPoint(
        u=abs(z1) ** 2 + abs(z2) ** 2,
        x=2.0 * w.real,
        y=2.0 * w.imag,
        z=abs(z1) ** 2 - abs(z2) ** 2,
    )


def qubit_zeno_time(hq: QubitHamiltonian, psi) -> float:
    """Zeno time from the cross product: tau^{-2} = |h x r|^2 / |r|^2
    with r the Bloch vector.  The offset h0 drops out; parallel h and r
    (an eigenstate) give an infinite Zeno time.  The field is checked as
    H is checked: a non-finite or overflowing field raises ValueError."""
    _require_field(hq)
    b = bloch_map(_nonzero_state(psi)[0])
    r = np.array([b.x, b.y, b.z])
    cross = np.cross(hq.field, r)
    return zeno_time_of_variance(float(cross @ cross) / float(r @ r))


def zeno_rotation_rate(hq: QubitHamiltonian) -> float:
    """Angular rate of the (x, y) precession under the limit dynamics."""
    return hq.h0 + hq.hz


def zeno_flow_generator(hq: QubitHamiltonian) -> np.ndarray:
    """The 4x4 matrix M of the Bloch flow d/dt (u,x,y,z) = M (u,x,y,z):
    udot = zdot = 0, xdot = -w y, ydot = +w x with w = h0 + hz."""
    w = zeno_rotation_rate(hq)
    M = np.zeros((4, 4), dtype=np.float64)
    M[1, 2] = -w
    M[2, 1] = w
    return M


def integrate_zeno_flow(
    hq: QubitHamiltonian, start: BlochPoint, t: float, samples: int
) -> list[BlochPoint]:
    """Exact trajectory of the Bloch flow from start to time t.

    Returns samples + 1 points at the times t_k = linspace(0, t, samples + 1).
    The flow is a rigid rotation: u and z are copied from start and
    x + iy = (x0 + i y0) exp(i (h0 + hz) t_k), each sample computed from its
    own t_k, so the cost grows with samples only and the radius |(x, y)|
    holds to roundoff at any angle.  Raises ValueError, through the one
    time check, when the phase |h0 + hz| |t| is not finite.
    """
    require_on_sphere(start)
    samples = _require_count(samples, "samples")
    w = zeno_rotation_rate(hq)
    _require_finite_phases(w, t)
    ts = np.linspace(0.0, t, samples + 1)
    xy = complex(start.x, start.y) * np.exp(1j * (w * ts))
    return [BlochPoint(start.u, c.real, c.imag, start.z) for c in xy.tolist()]


def frozen_state_check(hq: QubitHamiltonian, t: float) -> tuple[float, complex]:
    """Survival and phase of the prepared state e1 under the limit dynamics.

    The measurement constraint pins the initial state to the North Pole,
    the degenerate orbit of the flow: the dynamics freezes and only the
    phase exp(-i (h0+hz) t) accumulates.  One check, of the field on its
    four floats, with no matrix built; the 1 x 1 compression of H onto e1
    is the rate h0 + hz, and after the one time check the phase is formed
    in closed form: no propagator.  Complex operands throughout, as in
    numpy's -1j * E * t, so no zero's sign hangs on how the interpreter
    mixes real and complex operands.
    """
    _require_field(hq)
    w, t = zeno_rotation_rate(hq), float(t)
    _require_finite_phases(w, t)
    amp = cmath.exp(complex(-0.0, -1.0) * complex(w, 0.0) * complex(t, 0.0))
    return abs(amp) ** 2, amp


def analytic_frozen_phase(hq: QubitHamiltonian, t: float) -> complex:
    """Closed form exp(-i (h0+hz) t) for the frozen state's phase."""
    return cmath.exp(-1j * (hq.h0 + hq.hz) * t)
