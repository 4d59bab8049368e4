"""End-to-end acceptance suite.

One test per criterion, each at its stated tolerance, printing a single
pass line (run pytest with -s to see them as they go).
"""
import math
import time

import numpy as np

from conftest import random_hermitian, random_rank_projector, random_state
from zenogeo import geometry, linalg, qubit, zeno
from zenogeo.geometry import QuadraticFunction
from zenogeo.linalg import SIGMA_X, SIGMA_Z

E1 = np.array([1.0, 0.0], dtype=complex)
P1 = np.diag([1.0, 0.0]).astype(complex)


def _report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_short_time_law():
    # Fitted quadratic coefficient of 1 - p(t) equals the variance of H,
    # relative 1e-6, over 50 random draws with n <= 6; under 5 s.
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        H = random_hermitian(rng, n)
        psi = random_state(rng, n)
        c = linalg.short_time_coefficient(psi, H)
        var = linalg.variance(H, psi)
        assert abs(c - var) <= 1e-6 * var
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"short-time suite took {elapsed:.1f} s"
    _report(1, "short-time quadratic law")


def test_criterion_2_geometric_zeno_time_identity():
    # Squared projective field length equals the homogeneous variance to
    # 1e-10 on 100 random unnormalized states, and is scale invariant.
    rng = np.random.default_rng(102)
    scales = [2.0, -1.0, 1.0j, 0.5 + 0.5j]
    for _ in range(100):
        n = int(rng.integers(2, 7))
        H = random_hermitian(rng, n)
        psi = random_state(rng, n, normalized=False)
        lhs = geometry.projective_metric_length(H, psi)
        rhs = geometry.homogeneous_expectation(H @ H, psi) - (
            geometry.homogeneous_expectation(H, psi) ** 2
        )
        assert abs(lhs - rhs) <= 1e-10
        for lam in scales:
            assert abs(geometry.projective_metric_length(H, lam * psi) - lhs) <= 1e-10
    _report(2, "geometric Zeno-time identity")


def test_criterion_3_bracket_isomorphism():
    # Both bracket identities pointwise to 1e-9 over 200 random triples
    # (n <= 6), plus the Jacobi identity to 1e-8.
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        A, B = random_hermitian(rng, n), random_hermitian(rng, n)
        psi = random_state(rng, n)
        fA, fB = QuadraticFunction(A), QuadraticFunction(B)
        comm = linalg.expectation_value(1j * (A @ B - B @ A), psi)
        anti = linalg.expectation_value(0.5 * (A @ B + B @ A), psi)
        assert abs(geometry.poisson_bracket(fA, fB, psi) - comm) <= 1e-9
        assert abs(geometry.jordan_bracket(fA, fB, psi) - anti) <= 1e-9
    lie = lambda X, Y: 1j * (X @ Y - Y @ X)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        A, B, C = (random_hermitian(rng, n) for _ in range(3))
        psi = random_state(rng, n)
        total = sum(
            geometry.poisson_bracket(QuadraticFunction(X), QuadraticFunction(lie(Y, Z)), psi)
            for X, Y, Z in ((A, B, C), (B, C, A), (C, A, B))
        )
        assert abs(total) <= 1e-8
    _report(3, "bracket isomorphism and Jacobi identity")


def test_criterion_4_zeno_limit():
    # Operator-norm distance from the limit decreases as ~1/N on the
    # doubling ladder {8,...,1024} (log-log slope in [-1.2, -0.8]) for 20
    # random draws; exactly zero in the commuting case; closed form for the
    # rank-one transverse setup to 1e-12.  Under 30 s.
    start = time.perf_counter()
    ladder = [2**k for k in range(3, 11)]
    rng = np.random.default_rng(104)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n)) if n > 1 else 1
        H = random_hermitian(rng, n, scale=1.0)
        P = random_rank_projector(rng, n, rank)
        psi = P @ random_state(rng, n)
        psi /= np.linalg.norm(psi)
        setup = zeno.ZenoSetup(H, P, psi)
        points = zeno.convergence_scan(setup, 1.0, ladder)
        errs = [p.error_spectral for p in points]
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.2 * a + 1e-12
        slope = zeno.fit_convergence_slope(points)
        assert slope is not None and -1.2 <= slope <= -0.8, f"slope {slope}"

    # Commuting case: the product equals the limit for every N.
    setup = zeno.ZenoSetup(SIGMA_Z, P1, E1)
    for p in zeno.convergence_scan(setup, 1.0, ladder):
        assert p.error_spectral <= 1e-12

    # Closed form for the rank-one transverse setup.
    setup = zeno.ZenoSetup(SIGMA_X, P1, E1)
    point = zeno.convergence_scan(setup, 1.0, [1024])[0]
    analytic = abs(math.cos(1.0 / 1024) ** 1024 - 1.0)
    assert abs(point.error_spectral - analytic) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"Zeno-limit suite took {elapsed:.1f} s"
    _report(4, "Zeno limit convergence")


def test_criterion_5_qubit_zeno_time():
    # Cross-product formula equals the variance-based inverse squared Zeno
    # time to 1e-10 on 100 random draws, independently of the offset h0.
    rng = np.random.default_rng(105)
    for _ in range(100):
        hx, hy, hz = rng.uniform(-2, 2, size=3)
        psi = random_state(rng, 2, normalized=False)
        values = []
        for h0 in (0.0, 5.0):
            hq = qubit.QubitHamiltonian(float(h0), float(hx), float(hy), float(hz))
            tau = qubit.qubit_zeno_time(hq, psi)
            inv_sq = 0.0 if math.isinf(tau) else tau**-2
            var = linalg.variance(hq.matrix(), psi)
            assert abs(inv_sq - var) <= 1e-10
            values.append(inv_sq)
        assert abs(values[0] - values[1]) <= 1e-10
    _report(5, "qubit Zeno time via cross product")


def test_criterion_6_zeno_flow():
    # Conservation, sphere constraint, the equatorial orbit reaching its
    # antipode after half an ODE period, and the frozen North-Pole orbit.
    rng = np.random.default_rng(106)

    # Conservation and constraint along random trajectories.
    for _ in range(10):
        h0, hx, hy, hz = (float(v) for v in rng.uniform(-2, 2, size=4))
        hq = qubit.QubitHamiltonian(h0, hx, hy, hz)
        start = qubit.bloch_map(random_state(rng, 2))
        t = float(rng.uniform(0.5, 3.0))
        traj = qubit.integrate_zeno_flow(hq, start, t, samples=25)
        for b in traj[:: max(1, len(traj) // 25)]:
            assert abs(b.u - start.u) <= 1e-9 * t
            assert abs(b.z - start.z) <= 1e-9 * t
            assert abs(b.constraint_residual()) <= 1e-8

    # Equatorial start with h0 + hz = 1: the rotation rate is h0 + hz, so
    # the antipode is reached at half the ODE period, t = pi / (h0 + hz).
    hq = qubit.QubitHamiltonian(0.0, 0.0, 0.0, 1.0)
    half_period = math.pi / qubit.zeno_rotation_rate(hq)
    end = qubit.integrate_zeno_flow(hq, qubit.BlochPoint(1, 1, 0, 0), half_period, samples=1)[-1]
    assert np.max(np.abs(end.as_array() - np.array([1.0, -1.0, 0.0, 0.0]))) <= 1e-6

    # North-Pole start: stationary orbit, unit survival, pure phase.
    for _ in range(10):
        h0, hx, hy, hz = (float(v) for v in rng.uniform(-2, 2, size=4))
        hq = qubit.QubitHamiltonian(h0, hx, hy, hz)
        t = float(rng.uniform(0.0, 5.0))
        traj = qubit.integrate_zeno_flow(hq, qubit.BlochPoint(1, 0, 0, 1), t, samples=1)
        assert np.max(np.abs(traj[-1].as_array() - np.array([1.0, 0.0, 0.0, 1.0]))) <= 1e-10
        survival, phase = qubit.frozen_state_check(hq, t)
        assert abs(survival - 1.0) <= 1e-10
        assert abs(phase - qubit.analytic_frozen_phase(hq, t)) <= 1e-10
    _report(6, "Zeno flow conservation and frozen orbit")


def test_criterion_7_flow_unitary_consistency():
    # Bloch trajectory of the ODE flow matches the Bloch image of the state
    # evolved by the limit generator for 50 random starts, to 1e-7.
    rng = np.random.default_rng(107)
    for _ in range(50):
        h0, hx, hy, hz = (float(v) for v in rng.uniform(-2, 2, size=4))
        hq = qubit.QubitHamiltonian(h0, hx, hy, hz)
        psi = random_state(rng, 2)
        t = float(rng.uniform(0.2, 3.0))
        HZ = zeno.zeno_hamiltonian(hq.matrix(), qubit.PROJECTOR_UP)
        want = qubit.bloch_map(linalg.expm_antihermitian(HZ, t) @ psi).as_array()
        got = qubit.integrate_zeno_flow(hq, qubit.bloch_map(psi), t, samples=1)[-1].as_array()
        assert np.max(np.abs(got - want)) <= 1e-7
    _report(7, "flow/unitary consistency triangle")


def test_criterion_8_gradient_oracle():
    # Analytic differentials match central finite differences (step 1e-5)
    # to 1e-6 relative on 100 random cases.
    rng = np.random.default_rng(108)
    step = 1e-5
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = QuadraticFunction(random_hermitian(rng, n))
        psi = random_state(rng, n, normalized=False)
        exact = geometry.differential(f, psi)
        xi = geometry.to_chart(psi)
        approx = np.empty_like(xi)
        for k in range(xi.size):
            plus, minus = xi.copy(), xi.copy()
            plus[k] += step
            minus[k] -= step
            approx[k] = (f(geometry.from_chart(plus)) - f(geometry.from_chart(minus))) / (
                2.0 * step
            )
        rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-12)
        assert rel <= 1e-6
    _report(8, "gradient finite-difference oracle")
