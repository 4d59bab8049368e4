import ast
import cmath
import itertools
import math
import pathlib

import numpy as np
import pytest

from conftest import random_state, scaled_taylor_expm
from zenogeo import geometry, linalg, qubit, zeno
from zenogeo.qubit import (
    PROJECTOR_UP,
    BlochPoint,
    QubitHamiltonian,
    analytic_frozen_phase,
    bloch_map,
    frozen_state_check,
    integrate_zeno_flow,
    qubit_zeno_time,
    require_on_sphere,
    zeno_flow_generator,
    zeno_rotation_rate,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


def random_qubit_hamiltonian(rng):
    h0, hx, hy, hz = rng.uniform(-2, 2, size=4)
    return QubitHamiltonian(float(h0), float(hx), float(hy), float(hz))


class TestBlochMap:
    def test_north_pole(self):
        b = bloch_map(E1)
        assert (b.u, b.x, b.y, b.z) == (1.0, 0.0, 0.0, 1.0)

    def test_equator(self):
        b = bloch_map(PLUS)
        assert abs(b.u - 1.0) < 1e-14
        assert abs(b.x - 1.0) < 1e-14
        assert abs(b.y) < 1e-14 and abs(b.z) < 1e-14

    def test_south_pole(self):
        b = bloch_map(E2)
        assert (b.u, b.x, b.y, b.z) == (1.0, 0.0, 0.0, -1.0)

    def test_sphere_constraint_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            psi = random_state(rng, 2, normalized=bool(rng.integers(0, 2)))
            b = bloch_map(psi)
            assert abs(b.constraint_residual()) <= 1e-10 * max(1.0, b.u**2)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            bloch_map(np.array([1.0, 0.0, 0.0]))

    def test_coordinates_are_pauli_expectations(self):
        # (u, x, y, z) = <psi|A|psi> for A = I, sigma_x, sigma_y, sigma_z,
        # which pins the sign of y.
        rng = np.random.default_rng(2)
        paulis = (np.eye(2), linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z)
        for _ in range(30):
            psi = random_state(rng, 2, normalized=False)
            want = [linalg.expectation_value(A, psi) for A in paulis]
            assert np.max(np.abs(bloch_map(psi).as_array() - want)) <= 1e-12


class TestQubitZenoTime:
    def test_parallel_field_is_infinite(self):
        # Bloch vector of e1 points along z; a pure z field is parallel.
        assert qubit_zeno_time(QubitHamiltonian(0.3, 0, 0, 2.0), E1) == math.inf

    def test_transverse_field_north_pole(self):
        tau = qubit_zeno_time(QubitHamiltonian(0, 1, 1, 0), E1)
        assert abs(tau**-2 - 2.0) < 1e-12

    def test_offset_independent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            hq = random_qubit_hamiltonian(rng)
            psi = random_state(rng, 2)
            shifted = QubitHamiltonian(5.0, hq.hx, hq.hy, hq.hz)
            base = QubitHamiltonian(0.0, hq.hx, hq.hy, hq.hz)
            t1, t2 = qubit_zeno_time(base, psi), qubit_zeno_time(shifted, psi)
            if math.isinf(t1):
                assert math.isinf(t2)
            else:
                assert abs(t1 - t2) <= 1e-10

    def test_matches_variance_route(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            hq = random_qubit_hamiltonian(rng)
            psi = random_state(rng, 2, normalized=False)
            cross = qubit_zeno_time(hq, psi)
            var = linalg.variance(hq.matrix(), psi)
            if math.isinf(cross):
                assert var <= 1e-10
            else:
                assert abs(cross**-2 - var) <= 1e-10

    def test_three_routes_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            hq = random_qubit_hamiltonian(rng)
            psi = random_state(rng, 2)
            H = hq.matrix()
            inv_sq_cross = (
                0.0 if math.isinf(qubit_zeno_time(hq, psi)) else qubit_zeno_time(hq, psi) ** -2
            )
            tau_lin = linalg.zeno_time(psi, H)
            inv_sq_lin = 0.0 if math.isinf(tau_lin) else tau_lin**-2
            inv_sq_geo = geometry.projective_metric_length(H, psi)
            assert abs(inv_sq_cross - inv_sq_lin) <= 1e-10
            assert abs(inv_sq_cross - inv_sq_geo) <= 1e-10

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            qubit_zeno_time(QubitHamiltonian(0, 1, 0, 0), np.zeros(2, dtype=complex))


class TestFlowGenerator:
    def test_vanishing_rate_gives_zero_field(self):
        M = zeno_flow_generator(QubitHamiltonian(1.0, 0.7, -0.3, -1.0))
        assert M.shape == (4, 4) and M.dtype == np.float64
        rng = np.random.default_rng(6)
        for _ in range(5):
            point = rng.standard_normal(4)
            assert np.allclose(M @ point, 0.0, atol=1e-15)

    def test_equator_velocity(self):
        # Unit rate: the (x, y) pair turns counterclockwise at rate 1.
        M = zeno_flow_generator(QubitHamiltonian(0.0, 0.0, 0.0, 1.0))
        vel = M @ np.array([1.0, 1.0, 0.0, 0.0])
        assert np.allclose(vel, [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_chain_rule_against_chart_generator(self):
        # The Bloch velocity must be the pushforward of the chart-level
        # Hamiltonian vector field of the compressed generator.
        rng = np.random.default_rng(7)
        for _ in range(25):
            hq = random_qubit_hamiltonian(rng)
            psi = random_state(rng, 2, normalized=False)
            HZ = zeno.zeno_hamiltonian(hq.matrix(), PROJECTOR_UP)
            X = geometry.hamiltonian_vector_field(geometry.QuadraticFunction(HZ), psi)
            q1, q2, p1, p2 = geometry.to_chart(psi)
            jacobian = np.array(
                [
                    [2 * q1, 2 * q2, 2 * p1, 2 * p2],
                    [2 * q2, 2 * q1, 2 * p2, 2 * p1],
                    [2 * p2, -2 * p1, -2 * q2, 2 * q1],
                    [2 * q1, -2 * q2, 2 * p1, -2 * p2],
                ]
            )
            pushed = jacobian @ X
            M = zeno_flow_generator(hq)
            assert np.max(np.abs(pushed - M @ bloch_map(psi).as_array())) <= 1e-12

    def test_compressed_generator_is_quadratic_in_first_coordinates(self):
        # f_{PHP}(psi) = (h0 + hz)(q1^2 + p1^2).
        rng = np.random.default_rng(8)
        hq = random_qubit_hamiltonian(rng)
        HZ = zeno.zeno_hamiltonian(hq.matrix(), PROJECTOR_UP)
        psi = random_state(rng, 2, normalized=False)
        q1, _, p1, _ = geometry.to_chart(psi)
        want = (hq.h0 + hq.hz) * (q1**2 + p1**2)
        assert abs(linalg.expectation_value(HZ, psi) - want) <= 1e-12


class TestIntegrateFlow:
    def test_north_pole_is_stationary(self):
        traj = integrate_zeno_flow(QubitHamiltonian(0.3, 1.0, 0.5, 0.7), BlochPoint(1, 0, 0, 1), 2.0, samples=1)
        final = traj[-1]
        assert np.allclose(final.as_array(), [1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_equator_quarter_turn(self):
        # Unit rate: at t = pi/2 the equatorial point advances a quarter turn.
        traj = integrate_zeno_flow(
            QubitHamiltonian(0.0, 0.0, 0.0, 1.0), BlochPoint(1, 1, 0, 0), math.pi / 2, samples=1
        )
        assert np.max(np.abs(traj[-1].as_array() - np.array([1.0, 0.0, 1.0, 0.0]))) <= 1e-6

    def test_equator_half_turn_antipode(self):
        traj = integrate_zeno_flow(
            QubitHamiltonian(0.5, 0.0, 0.0, 0.5), BlochPoint(1, 1, 0, 0), math.pi, samples=1
        )
        assert np.max(np.abs(traj[-1].as_array() - np.array([1.0, -1.0, 0.0, 0.0]))) <= 1e-6

    def test_zero_rate_identity(self):
        traj = integrate_zeno_flow(
            QubitHamiltonian(1.0, 0.4, 0.2, -1.0), BlochPoint(1, 1, 0, 0), 5.0, samples=5
        )
        for b in traj[:: len(traj) // 5]:
            assert np.allclose(b.as_array(), [1.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_conservation_and_constraint(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            hq = random_qubit_hamiltonian(rng)
            start = bloch_map(random_state(rng, 2))
            t = float(rng.uniform(0.5, 4.0))
            traj = integrate_zeno_flow(hq, start, t, samples=20)
            for b in traj[:: max(1, len(traj) // 20)]:
                assert abs(b.u - start.u) <= 1e-9 * t
                assert abs(b.z - start.z) <= 1e-9 * t
                assert abs(b.constraint_residual()) <= 1e-8

    def test_rotation_rate_doubles_with_rate(self):
        # Measure the rotation angle over a fixed time and compare rates.
        def angle_after(hq, t):
            traj = integrate_zeno_flow(hq, BlochPoint(1, 1, 0, 0), t, samples=1)
            b = traj[-1]
            return math.atan2(b.y, b.x)

        t = 0.2
        a1 = angle_after(QubitHamiltonian(0.0, 0, 0, 0.5), t)
        a2 = angle_after(QubitHamiltonian(0.5, 0, 0, 0.5), t)
        assert abs(a1 - zeno_rotation_rate(QubitHamiltonian(0.0, 0, 0, 0.5)) * t) <= 1e-6
        assert abs(a2 - 2.0 * a1) <= 1e-6

    def test_rejects_constraint_violation(self):
        with pytest.raises(ValueError, match="constraint"):
            integrate_zeno_flow(QubitHamiltonian(0, 0, 0, 1), BlochPoint(1, 1, 1, 1), 1.0, samples=1)

    @pytest.mark.parametrize(
        "start",
        [(1, math.nan, 0, 0), (math.nan, 1, 0, 0), (1e300, 2.5, 1, -1), (1e300, 1e300, 0, 0)],
    )
    def test_rejects_nan_and_overflowing_starts(self, start):
        # 1e300 squared overflows: the residual is inf or nan, never an OverflowError.
        with pytest.raises(ValueError, match="constraint"):
            require_on_sphere(BlochPoint(*start))
        with pytest.raises(ValueError, match="constraint"):
            integrate_zeno_flow(QubitHamiltonian(0, 0, 0, 1), BlochPoint(*start), 1.0, samples=1)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError, match="not finite"):
            integrate_zeno_flow(QubitHamiltonian(0, 0, 0, 1e300), BlochPoint(1, 1, 0, 0), 1e300, samples=1)

    def test_output_size_follows_samples_not_steps(self):
        # 10^6 radians: the exact rotation at each sample time, on the
        # unit circle to 4 ulp in every row.
        hq = QubitHamiltonian(0.0, 0.0, 0.0, 1.0)
        start = BlochPoint(1, 1, 0, 0)
        traj = integrate_zeno_flow(hq, start, 1e6, samples=200)
        assert len(traj) == 201
        assert all(b.u == 1.0 and b.z == 0.0 for b in traj)
        got = np.array([b.x + 1j * b.y for b in traj])
        assert np.max(np.abs(np.abs(got) - 1.0)) <= 4 * np.spacing(1.0)
        want = np.exp(1j * np.linspace(0.0, 1e6, 201))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_matches_exponential_of_the_generator(self):
        # The trajectory is exp(t_k M) start with M = zeno_flow_generator(hq),
        # computed by scaling and squaring.
        rng = np.random.default_rng(13)
        for _ in range(10):
            hq = random_qubit_hamiltonian(rng)
            start = bloch_map(random_state(rng, 2))
            t = float(rng.uniform(-20.0, 20.0))
            M = zeno_flow_generator(hq)
            traj = integrate_zeno_flow(hq, start, t, samples=8)
            for tk, b in zip(np.linspace(0.0, t, 9), traj):
                want = np.real(scaled_taylor_expm(tk * M) @ start.as_array())
                assert np.max(np.abs(b.as_array() - want)) <= 1e-12


class TestFrozenState:
    def test_survival_is_one(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            hq = random_qubit_hamiltonian(rng)
            t = float(rng.uniform(0, 10))
            survival, phase = frozen_state_check(hq, t)
            assert abs(survival - 1.0) <= 1e-12
            assert abs(phase - analytic_frozen_phase(hq, t)) <= 1e-10

    def test_zero_rate_no_phase(self):
        _, phase = frozen_state_check(QubitHamiltonian(1.0, 0.3, 0.3, -1.0), 2.0)
        assert abs(phase - 1.0) <= 1e-12

    def test_unit_rate_half_period(self):
        _, phase = frozen_state_check(QubitHamiltonian(0.0, 0.0, 0.0, 1.0), math.pi)
        assert abs(phase + 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "hq,match",
        [
            (QubitHamiltonian(1e308, 0.0, 0.0, 1e308), "non-finite"),
            (QubitHamiltonian(0.0, 1e300, 0.0, 0.0), "scale"),
        ],
        ids=["overflowing-sum", "overflowing-scale"],
    )
    def test_rejects_an_overflowing_field(self, hq, match):
        with pytest.raises(ValueError, match=match):
            frozen_state_check(hq, 1.0)

    def test_checks_its_hamiltonian_once(self, record_calls):
        # PHP and the constant PROJECTOR_UP are not checked.
        checked = record_calls(linalg.require_hermitian)
        frozen_state_check(QubitHamiltonian(0.2, 0.5, -0.3, 1.0), 2.0)
        assert len(checked) == 1

    def test_diagonalizes_the_1x1_compression(self, monkeypatch):
        # In closed form: the rank-one compression is its own eigenpair, with
        # the bits eigh gives it, and no eigh is called.
        hq = QubitHamiltonian(0.2, 0.5, -0.3, 1.0)
        expected = eigh_frozen_state_check(hq, 2.0)
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(a.shape) or eigh(a))
        assert repr(frozen_state_check(hq, 2.0)) == repr(expected)
        assert sizes == []

    def test_bits_of_the_eigh_formula_on_a_grid(self):
        # Signed zeros, units and a tiny rate at signed zero, unit and long
        # times: the closed form keeps every bit, signs of zeros included.
        for h0, hz, t in itertools.product(GRID_FIELD, GRID_FIELD, GRID_TIME):
            for hx, hy in [(0.0, 0.0), (0.5, -0.3)]:
                hq = QubitHamiltonian(h0, hx, hy, hz)
                assert repr(frozen_state_check(hq, t)) == repr(eigh_frozen_state_check(hq, t)), (hq, t)


GRID_FIELD = [0.0, -0.0, 1.0, -1.0, 1e-300]
GRID_TIME = [0.0, -0.0, 1.0, 1e5]


def eigh_frozen_state_check(hq, t):
    """frozen_state_check as it was with an eigh of the 1 x 1 compression:
    the oracle of its closed form."""
    H = hq.matrix()
    e1 = PROJECTOR_UP[:, :1]
    A = e1.conj().T @ H @ e1
    amp = complex(linalg._propagator(*np.linalg.eigh(0.5 * (A + A.conj().T)), float(t))[0, 0])
    return abs(amp) ** 2, amp


def test_qubit_imports_nothing_from_zeno():
    """frozen_state_check compresses H onto e1 itself, so qubit reaches no
    zeno name, private or public."""
    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(qubit.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert "linalg" in imported
    assert not [m for m in imported if "zeno" in m.split(".")]


class TestConsistencyTriangle:
    def test_flow_matches_unitary_bloch_image(self):
        # Bloch trajectory of the ODE flow vs the Bloch image of the limit
        # unitary generated by PHP, applied without the projection (the
        # projected map agrees only on prepared states; see below).
        rng = np.random.default_rng(11)
        for _ in range(50):
            hq = random_qubit_hamiltonian(rng)
            psi = random_state(rng, 2)
            t = float(rng.uniform(0.2, 3.0))
            HZ = zeno.zeno_hamiltonian(hq.matrix(), PROJECTOR_UP)
            psi_t = linalg.expm_antihermitian(HZ, t) @ psi
            want = bloch_map(psi_t).as_array()
            got = integrate_zeno_flow(hq, bloch_map(psi), t, samples=1)[-1].as_array()
            assert np.max(np.abs(got - want)) <= 1e-7

    def test_prepared_state_full_projected_map(self):
        # For states inside the measured subspace the full U_Z(t) applies.
        rng = np.random.default_rng(12)
        for _ in range(10):
            hq = random_qubit_hamiltonian(rng)
            phase = cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
            psi = phase * E1
            t = float(rng.uniform(0.2, 3.0))
            UZ = zeno.zeno_limit_unitary(hq.matrix(), PROJECTOR_UP, t)
            want = bloch_map(UZ @ psi).as_array()
            got = integrate_zeno_flow(hq, bloch_map(psi), t, samples=1)[-1].as_array()
            assert np.max(np.abs(got - want)) <= 1e-7
