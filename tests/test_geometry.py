import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_state, scaled_taylor_expm
from zenogeo import geometry, linalg
from zenogeo.geometry import (
    QuadraticFunction,
    differential,
    from_chart,
    hamiltonian_flow_matrix,
    hamiltonian_vector_field,
    homogeneous_expectation,
    jordan_bracket,
    metric_G,
    poisson_bracket,
    projective_metric_length,
    symplectic_Omega,
    to_chart,
)
from zenogeo.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, expectation_value

E1 = np.array([1.0, 0.0], dtype=complex)
SCALES = [2.0, -1.0, 1.0j, 0.5 + 0.5j]

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def fd_differential(f: QuadraticFunction, psi: np.ndarray, step: float = 1e-5):
    """Central-difference gradient of f over the 2n chart coordinates."""
    xi = to_chart(psi)
    out = np.empty_like(xi)
    for k in range(xi.size):
        plus, minus = xi.copy(), xi.copy()
        plus[k] += step
        minus[k] -= step
        out[k] = (f(from_chart(plus)) - f(from_chart(minus))) / (2.0 * step)
    return out


class TestChart:
    def test_round_trip_simple(self):
        psi = np.array([1.0 + 2.0j, -0.5 + 0.25j])
        xi = to_chart(psi)
        assert np.array_equal(xi, np.array([1.0, -0.5, 2.0, 0.25]))
        assert np.array_equal(from_chart(xi), psi)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact(self, pairs):
        psi = np.array([q + 1j * p for q, p in pairs])
        back = from_chart(to_chart(psi))
        assert np.array_equal(back, psi)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            from_chart(np.array([1.0, 2.0, 3.0]))


class TestQuadraticFunction:
    def test_is_real_for_hermitian(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = QuadraticFunction(random_hermitian(rng, 4))
            psi = random_state(rng, 4, normalized=False)
            v = np.vdot(psi, f.operator @ psi)
            assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        f = QuadraticFunction(random_hermitian(rng, 3))
        psi = random_state(rng, 3, normalized=False)
        lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
        got = f(lam * psi)
        want = abs(lam) ** 2 * f(psi)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            QuadraticFunction(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDifferential:
    def test_identity_gradient(self):
        psi = np.array([0.3 + 0.4j, -1.0 + 2.0j, 0.1 - 0.2j])
        df = differential(QuadraticFunction(np.eye(3)), psi)
        assert np.allclose(df, 2.0 * to_chart(psi), atol=1e-15)

    def test_sigma_z_gradient(self):
        psi = np.array([0.7 + 0.1j, -0.3 + 0.9j])
        q1, q2, p1, p2 = 0.7, -0.3, 0.1, 0.9
        df = differential(QuadraticFunction(SIGMA_Z), psi)
        assert np.allclose(df, [2 * q1, -2 * q2, 2 * p1, -2 * p2], atol=1e-15)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            f = QuadraticFunction(random_hermitian(rng, n))
            psi = random_state(rng, n, normalized=False)
            exact = differential(f, psi)
            approx = fd_differential(f, psi)
            rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-12)
            assert rel <= 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(2)
        A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
        psi = random_state(rng, 3)
        a, b = 1.7, -0.4
        combo = differential(QuadraticFunction(a * A + b * B), psi)
        parts = a * differential(QuadraticFunction(A), psi) + b * differential(
            QuadraticFunction(B), psi
        )
        assert np.allclose(combo, parts, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            differential(QuadraticFunction(np.eye(3)), E1)

    @pytest.mark.parametrize(
        "A,match",
        [
            (np.array([[0.0, 1.0], [0.0, 0.0]]), "Hermitian"),
            (np.array([[0.0, 1e300], [1e300, 0.0]]), "scale"),
            (np.array([[np.inf, 0.0], [0.0, 0.0]]), "non-finite"),
        ],
        ids=["non-hermitian", "overflowing", "infinite"],
    )
    def test_rejects_a_bad_plain_operator(self, A, match):
        # A plain matrix goes through QuadraticFunction's check.
        with pytest.raises(ValueError, match=match):
            differential(A, E1)


class TestPairings:
    def test_metric_of_hamiltonian_differential_is_second_moment(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            H = random_hermitian(rng, 4)
            psi = random_state(rng, 4, normalized=False)
            df = differential(QuadraticFunction(H), psi)
            assert abs(metric_G(df, df) - expectation_value(H @ H, psi)) <= 1e-9

    def test_metric_of_norm_gradient(self):
        rng = np.random.default_rng(4)
        psi = random_state(rng, 5, normalized=False)
        dn = differential(QuadraticFunction(np.eye(5)), psi)
        assert abs(metric_G(dn, dn) - linalg.norm_sq(psi)) <= 1e-12

    def test_metric_anticommutator_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
            psi = random_state(rng, 3, normalized=False)
            dfA = differential(QuadraticFunction(A), psi)
            dfB = differential(QuadraticFunction(B), psi)
            want = expectation_value(0.5 * (A @ B + B @ A), psi)
            assert abs(metric_G(dfA, dfB) - want) <= 1e-9

    def test_omega_antisymmetry_exact(self):
        rng = np.random.default_rng(6)
        df = rng.standard_normal(8)
        dg = rng.standard_normal(8)
        assert symplectic_Omega(df, df) == 0.0
        assert symplectic_Omega(df, dg) == -symplectic_Omega(dg, df)

    def test_omega_pauli_pair(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            psi = random_state(rng, 2, normalized=False)
            dfx = differential(QuadraticFunction(SIGMA_X), psi)
            dfy = differential(QuadraticFunction(SIGMA_Y), psi)
            want = -2.0 * expectation_value(SIGMA_Z, psi)
            assert abs(symplectic_Omega(dfx, dfy) - want) <= 1e-12

    def test_omega_commutator_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
            psi = random_state(rng, 3, normalized=False)
            dfA = differential(QuadraticFunction(A), psi)
            dfB = differential(QuadraticFunction(B), psi)
            want = expectation_value(1j * (A @ B - B @ A), psi)
            assert abs(symplectic_Omega(dfA, dfB) - want) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metric_G(np.ones(4), np.ones(6))


class TestBrackets:
    def test_pauli_xy_poisson(self):
        rng = np.random.default_rng(9)
        psi = random_state(rng, 2, normalized=False)
        got = poisson_bracket(QuadraticFunction(SIGMA_X), QuadraticFunction(SIGMA_Y), psi)
        assert abs(got + 2.0 * expectation_value(SIGMA_Z, psi)) <= 1e-12

    def test_poisson_self_is_zero(self):
        rng = np.random.default_rng(10)
        f = QuadraticFunction(random_hermitian(rng, 3))
        psi = random_state(rng, 3)
        assert poisson_bracket(f, f, psi) == 0.0

    def test_poisson_is_heisenberg_rate(self):
        # {f_H, f_A} equals d/dt <A> along the evolution, here approximated
        # by central differences over evolve.
        rng = np.random.default_rng(11)
        for _ in range(5):
            H = random_hermitian(rng, 3)
            A = random_hermitian(rng, 3)
            psi = random_state(rng, 3)
            got = poisson_bracket(QuadraticFunction(H), QuadraticFunction(A), psi)
            dt = 1e-6
            plus = expectation_value(A, linalg.evolve(psi, H, dt))
            minus = expectation_value(A, linalg.evolve(psi, H, -dt))
            rate = (plus - minus) / (2.0 * dt)
            assert abs(got - rate) <= 1e-6 * max(1.0, abs(got))

    def test_jordan_pauli_square(self):
        rng = np.random.default_rng(12)
        psi = random_state(rng, 2, normalized=False)
        fx = QuadraticFunction(SIGMA_X)
        assert abs(jordan_bracket(fx, fx, psi) - linalg.norm_sq(psi)) <= 1e-12

    def test_jordan_unit(self):
        rng = np.random.default_rng(13)
        fA = QuadraticFunction(random_hermitian(rng, 3))
        fI = QuadraticFunction(np.eye(3))
        psi = random_state(rng, 3, normalized=False)
        assert abs(jordan_bracket(fA, fI, psi) - fA(psi)) <= 1e-12

    def test_jordan_anticommuting_paulis(self):
        rng = np.random.default_rng(14)
        psi = random_state(rng, 2, normalized=False)
        got = jordan_bracket(QuadraticFunction(SIGMA_X), QuadraticFunction(SIGMA_Y), psi)
        assert abs(got) <= 1e-12

    def test_bracket_operator_isomorphism(self):
        # Both pairings realize their operator-level counterparts pointwise.
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A, B = random_hermitian(rng, n), random_hermitian(rng, n)
            psi = random_state(rng, n)
            fA, fB = QuadraticFunction(A), QuadraticFunction(B)
            comm = expectation_value(1j * (A @ B - B @ A), psi)
            anti = expectation_value(0.5 * (A @ B + B @ A), psi)
            assert abs(poisson_bracket(fA, fB, psi) - comm) <= 1e-9
            assert abs(jordan_bracket(fA, fB, psi) - anti) <= 1e-9

    def test_leibniz_rule_operator_level(self):
        # i[A, .] is a derivation of the symmetrized product.
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            A = random_hermitian(rng, n)
            B = random_hermitian(rng, n)
            C = random_hermitian(rng, n)
            jordan = lambda X, Y: 0.5 * (X @ Y + Y @ X)
            lie = lambda X, Y: 1j * (X @ Y - Y @ X)
            lhs = lie(A, jordan(B, C))
            rhs = jordan(lie(A, B), C) + jordan(B, lie(A, C))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_jacobi_identity(self):
        rng = np.random.default_rng(17)
        lie = lambda X, Y: 1j * (X @ Y - Y @ X)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            A, B, C = (random_hermitian(rng, n) for _ in range(3))
            psi = random_state(rng, n)
            terms = 0.0
            for X, Y, Z in ((A, B, C), (B, C, A), (C, A, B)):
                terms += poisson_bracket(
                    QuadraticFunction(X), QuadraticFunction(lie(Y, Z)), psi
                )
            assert abs(terms) <= 1e-8


class TestHamiltonianVectorField:
    def test_identity_generates_phase_flow(self):
        rng = np.random.default_rng(18)
        psi = random_state(rng, 3, normalized=False)
        X = hamiltonian_vector_field(QuadraticFunction(np.eye(3)), psi)
        zdot = from_chart(X)
        assert np.allclose(zdot, -1j * psi, atol=1e-14)

    def test_basis_state_phase_rotation_first_vector_down(self):
        # With e1 the -1 eigenvector of the diagonal field, zdot_1 = +i z1.
        sz_first_down = np.diag([-1.0, 1.0]).astype(complex)
        X = hamiltonian_vector_field(QuadraticFunction(sz_first_down), E1)
        zdot = from_chart(X)
        assert np.allclose(zdot, 1j * E1, atol=1e-14)

    def test_schrodinger_velocity_random(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            H = random_hermitian(rng, 4)
            psi = random_state(rng, 4, normalized=False)
            X = hamiltonian_vector_field(QuadraticFunction(H), psi)
            assert np.allclose(from_chart(X), -1j * (H @ psi), atol=1e-13)

    def test_field_matches_flow_matrix(self):
        rng = np.random.default_rng(20)
        H = random_hermitian(rng, 3)
        psi = random_state(rng, 3, normalized=False)
        X = hamiltonian_vector_field(QuadraticFunction(H), psi)
        assert np.allclose(X, hamiltonian_flow_matrix(H) @ to_chart(psi), atol=1e-13)

    def test_chart_flow_reproduces_evolve(self):
        # exp(A) of the real chart generator, by scaling and squaring, is
        # the chart image of exp(-iH).
        rng = np.random.default_rng(21)
        for _ in range(3):
            H = random_hermitian(rng, 4, scale=1.5)
            psi = random_state(rng, 4)
            flow = np.real(scaled_taylor_expm(hamiltonian_flow_matrix(H)))
            got = from_chart(flow @ to_chart(psi))
            want = linalg.evolve(psi, H, 1.0)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestProjectiveLayer:
    def test_homogeneous_identity(self):
        rng = np.random.default_rng(22)
        psi = random_state(rng, 4, normalized=False)
        assert abs(homogeneous_expectation(np.eye(4), psi) - 1.0) <= 1e-12

    def test_north_pole_z_coordinate(self):
        assert abs(homogeneous_expectation(SIGMA_Z, E1) - 1.0) <= 1e-14

    def test_homogeneous_scale_invariance(self):
        rng = np.random.default_rng(23)
        A = random_hermitian(rng, 3)
        psi = random_state(rng, 3, normalized=False)
        base = homogeneous_expectation(A, psi)
        for lam in SCALES:
            assert abs(homogeneous_expectation(A, lam * psi) - base) <= 1e-10

    def test_rejects_near_zero_vector(self):
        with pytest.raises(ValueError):
            homogeneous_expectation(np.eye(2), np.full(2, 1e-9 + 0j))

    def test_projective_length_eigenstate(self):
        assert abs(projective_metric_length(SIGMA_Z, E1)) <= 1e-14

    def test_projective_length_transverse(self):
        assert abs(projective_metric_length(SIGMA_X, E1) - 1.0) <= 1e-12

    def test_matches_zeno_time_cross_module(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            H = random_hermitian(rng, 5)
            psi = random_state(rng, 5, normalized=False)
            got = projective_metric_length(H, psi)
            tau = linalg.zeno_time(linalg.normalize(psi), H)
            want = 0.0 if tau == np.inf else tau**-2
            assert abs(got - want) <= 1e-10

    def test_variance_identity(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            H = random_hermitian(rng, n)
            psi = random_state(rng, n, normalized=False)
            lhs = projective_metric_length(H, psi)
            rhs = homogeneous_expectation(H @ H, psi) - homogeneous_expectation(H, psi) ** 2
            assert abs(lhs - rhs) <= 1e-10

    def test_projective_length_scale_invariance(self):
        rng = np.random.default_rng(26)
        H = random_hermitian(rng, 4)
        psi = random_state(rng, 4, normalized=False)
        base = projective_metric_length(H, psi)
        for lam in SCALES:
            assert abs(projective_metric_length(H, lam * psi) - base) <= 1e-10

    def test_projective_length_checks_only_h(self, record_calls):
        # d|psi|^2 is 2 to_chart(psi): no identity matrix to build and check.
        checked = record_calls(linalg.require_hermitian)
        projective_metric_length(SIGMA_X, np.array([0.6, 0.8j]))
        assert len(checked) == 1
