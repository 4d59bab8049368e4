import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_rank_projector, random_state
from zenogeo import linalg, zeno
from zenogeo.linalg import SIGMA_X, SIGMA_Z
from zenogeo.zeno import (
    ZenoSetup,
    _range_basis,
    convergence_scan,
    fit_convergence_slope,
    measured_trajectory,
    zeno_hamiltonian,
    zeno_limit_unitary,
    zeno_product,
)

E1 = np.array([1.0, 0.0], dtype=complex)
P1 = np.diag([1.0, 0.0]).astype(complex)


def sigma_x_setup():
    return ZenoSetup(SIGMA_X, P1, E1)


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Row counts of the matrices passed to numpy.linalg.eigh from here on."""
    sizes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return sizes


def random_setup(rng, n, rank):
    H = random_hermitian(rng, n)
    P = random_rank_projector(rng, n, rank)
    # Prepare the state inside the measured subspace.
    psi = P @ random_state(rng, n)
    psi /= np.linalg.norm(psi)
    return ZenoSetup(H, P, psi)


class TestZenoSetup:
    def test_accepts_prepared_state(self):
        s = sigma_x_setup()
        assert s.dim == 2

    def test_rejects_unprepared_state(self):
        with pytest.raises(ValueError, match="prepared"):
            ZenoSetup(SIGMA_X, P1, np.array([1.0, 1.0]) / math.sqrt(2))

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError):
            ZenoSetup(SIGMA_X, 0.5 * np.eye(2), E1)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ZenoSetup(np.eye(3), P1, E1)
        with pytest.raises(ValueError, match="mismatch"):
            ZenoSetup(SIGMA_X, P1, np.ones(3))

    def test_state_is_optional(self):
        s = ZenoSetup(SIGMA_X, P1)
        assert s.initial_state is None and s.dim == 2

    def test_trajectory_needs_a_state(self):
        with pytest.raises(ValueError, match="initial state"):
            measured_trajectory(ZenoSetup(SIGMA_X, P1), 1.0, 8, 4)

    def test_compares_and_hashes_by_identity(self):
        H, P = np.diag([1.0, 2.0]), np.diag([1.0, 0.0])
        s = ZenoSetup(H, P)
        assert s == s
        assert ZenoSetup(H, P) != ZenoSetup(H, P)
        assert {s: 1}[s] == 1

    def test_one_dense_decomposition(self, eigh_sizes):
        # eigh of H only: the basis of range P comes from r Cholesky steps.
        rng = np.random.default_rng(13)
        ZenoSetup(random_hermitian(rng, 12), random_rank_projector(rng, 12, 3))
        assert eigh_sizes.count(12) == 1

    def test_compression_is_h_on_range_p(self):
        rng = np.random.default_rng(15)
        H = random_hermitian(rng, 9)
        setup = ZenoSetup(H, random_rank_projector(rng, 9, 4))
        Q = setup.basis
        assert setup.compression.shape == (4, 4)
        assert np.max(np.abs(setup.compression - Q.conj().T @ H @ Q)) <= 1e-13
        # Q = I at identity, so the compression is H to the last bit.
        assert np.array_equal(ZenoSetup(H, np.eye(9)).compression, H)

    def test_rank_one_leakage_is_the_variance(self):
        # |(I - P) H psi|^2 = <H^2> - <H>^2 = 1/tau_Z^2 for P = |psi><psi|.
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            H, psi = random_hermitian(rng, n), random_state(rng, n)
            setup = ZenoSetup(H, np.outer(psi, psi.conj()))
            var = linalg.variance(H, psi)
            assert abs(setup.leakage**2 - var) <= 1e-12 * var

    def test_invariant_subspace_does_not_leak(self):
        rng = np.random.default_rng(15)
        H = random_hermitian(rng, 5)
        assert ZenoSetup(H, np.eye(5)).leakage == 0.0
        assert ZenoSetup(SIGMA_Z, P1).leakage == 0.0


def eigh_range_projector(P):
    """Oracle: the spectral projector of P for eigenvalues above 1/2."""
    p, U = np.linalg.eigh(P)
    U = U[:, p > 0.5]
    return U @ U.conj().T


class TestRangeBasis:
    def test_parallel_pivot_columns(self):
        # The two largest diagonals, P_11 = P_22 = 1/2, have parallel
        # columns: after the first pivot the second must be skipped.
        n = 100
        rng = np.random.default_rng(16)
        a = np.zeros(n, dtype=complex)
        a[:2] = 1.0 / math.sqrt(2)
        q2 = np.zeros(n, dtype=complex)
        q2[2:] = rng.standard_normal(n - 2) + 1j * rng.standard_normal(n - 2)
        q2 /= np.linalg.norm(q2)
        P = np.outer(a, a.conj()) + np.outer(q2, q2.conj())
        Q = _range_basis(linalg.require_projector(P))
        assert Q.shape == (n, 2)
        assert np.linalg.norm(Q @ Q.conj().T - P) <= 1e-13

    @given(
        n=st.integers(1, 16),
        data=st.data(),
        eps=st.floats(0.0, 5e-11),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_spans_the_nearest_orthogonal_projector(self, n, data, eps, seed):
        r = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        w = random_state(rng, n)
        P = linalg.require_projector(
            random_rank_projector(rng, n, r) + eps * np.outer(w, w.conj())
        )
        Q = _range_basis(P)
        assert Q.shape == (n, r)
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(r))) <= 1e-12
        assert np.linalg.norm(Q @ Q.conj().T - eigh_range_projector(P)) <= 1e-13


class TestZenoProduct:
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 16, 100, 128])
    def test_rank_one_transverse_closed_form(self, N):
        # P exp(-i sigma_x s) P = cos(s) P, so the product is cos(t/N)^N P.
        t = 1.3
        V = zeno_product(sigma_x_setup(), t, N)
        want = math.cos(t / N) ** N * P1
        assert np.max(np.abs(V - want)) <= 1e-12

    def test_identity_projector_is_free_evolution(self):
        rng = np.random.default_rng(0)
        H = random_hermitian(rng, 3)
        psi = random_state(rng, 3)
        setup = ZenoSetup(H, np.eye(3), psi)
        want = linalg.expm_antihermitian(H, 0.9)
        for N in (1, 4, 9):
            assert np.max(np.abs(zeno_product(setup, 0.9, N) - want)) <= 1e-11

    @pytest.mark.parametrize("N", [1, 5, 8, 64])
    def test_commuting_case_is_n_independent(self, N):
        setup = ZenoSetup(SIGMA_Z, P1, E1)
        want = P1 @ linalg.expm_antihermitian(SIGMA_Z, 0.7) @ P1
        assert np.max(np.abs(zeno_product(setup, 0.7, N) - want)) <= 1e-12

    def test_rejects_zero_measurements(self):
        with pytest.raises(ValueError):
            zeno_product(sigma_x_setup(), 1.0, 0)

    def test_contraction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            setup = random_setup(rng, n, int(rng.integers(1, n + 1)))
            N = int(rng.integers(1, 40))
            V = zeno_product(setup, float(rng.uniform(0.1, 3.0)), N)
            assert np.linalg.norm(V, 2) <= 1.0 + 1e-10

    def test_matches_left_to_right_product(self):
        # The dense step, built here so the oracle shares nothing with the
        # subspace path of zeno_product.
        rng = np.random.default_rng(2)
        setup = random_setup(rng, 4, 2)
        P = setup.projector
        for N in (1, 2, 5, 13):
            step = P @ linalg.expm_antihermitian(setup.hamiltonian, 1.3 / N) @ P
            chain = step
            for _ in range(N - 1):
                chain = chain @ step
            assert np.max(np.abs(zeno_product(setup, 1.3, N) - chain)) <= 1e-12


class TestZenoHamiltonian:
    def test_transverse_rank_one_vanishes(self):
        assert np.max(np.abs(zeno_hamiltonian(SIGMA_X, P1))) <= 1e-15

    def test_identity_projector(self):
        rng = np.random.default_rng(2)
        H = random_hermitian(rng, 4)
        assert np.allclose(zeno_hamiltonian(H, np.eye(4)), H, atol=1e-14)

    def test_qubit_closed_form(self):
        h0, hx, hy, hz = 0.4, 1.2, -0.7, 0.9
        H = h0 * np.eye(2) + hx * SIGMA_X + hy * linalg.SIGMA_Y + hz * SIGMA_Z
        want = 0.5 * (h0 + hz) * (np.eye(2) + SIGMA_Z)
        assert np.max(np.abs(zeno_hamiltonian(H, P1) - want)) <= 1e-14

    def test_hermitian_and_commutes_with_projector(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            H = random_hermitian(rng, n)
            P = random_rank_projector(rng, n, int(rng.integers(1, n)))
            HZ = zeno_hamiltonian(H, P)
            assert np.max(np.abs(HZ - HZ.conj().T)) <= 1e-12
            assert np.max(np.abs(HZ @ P - P @ HZ)) <= 1e-12
            # Compressed to the subspace: P HZ P recovers HZ.
            assert np.max(np.abs(P @ HZ @ P - HZ)) <= 1e-12 * (1 + np.linalg.norm(H))


class TestZenoLimitUnitary:
    def test_frozen_when_generator_vanishes(self):
        assert np.max(np.abs(zeno_limit_unitary(SIGMA_X, P1, 2.1) - P1)) <= 1e-14

    def test_qubit_phase_on_subspace(self):
        h0, hz = 0.3, 0.8
        H = h0 * np.eye(2) + hz * SIGMA_Z
        UZ = zeno_limit_unitary(H, P1, 1.7)
        want = np.exp(-1j * (h0 + hz) * 1.7)
        assert abs(UZ[0, 0] - want) <= 1e-12
        assert abs(UZ[1, 1]) <= 1e-14

    def test_time_zero_is_projector(self):
        rng = np.random.default_rng(4)
        H = random_hermitian(rng, 5)
        P = random_rank_projector(rng, 5, 2)
        assert np.max(np.abs(zeno_limit_unitary(H, P, 0.0) - P)) <= 1e-12

    def test_checks_the_projector_once(self, monkeypatch):
        calls = []
        require_projector = zeno.require_projector

        def counting(P, *args, **kwargs):
            calls.append(P)
            return require_projector(P, *args, **kwargs)

        monkeypatch.setattr(zeno, "require_projector", counting)
        zeno_limit_unitary(SIGMA_X, P1, 0.7)
        assert len(calls) == 1

    def test_never_rechecks_its_compression(self, record_calls):
        rng = np.random.default_rng(14)
        H = random_hermitian(rng, 5)
        P = random_rank_projector(rng, 5, 2)
        PHP = zeno_hamiltonian(H, P)
        checked = record_calls(linalg.require_hermitian)
        zeno_limit_unitary(H, P, 0.7)
        # H, and P inside require_projector; PHP is built from both.
        assert len(checked) == 2
        assert not any(np.array_equal(A, PHP) for A in checked)

    def test_unitary_on_subspace(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            H = random_hermitian(rng, n)
            P = random_rank_projector(rng, n, int(rng.integers(1, n + 1)))
            UZ = zeno_limit_unitary(H, P, 1.3)
            assert np.linalg.norm(P @ UZ.conj().T @ UZ @ P - P) <= 1e-10


class TestConvergenceScan:
    def test_never_rechecks_the_compression(self, record_calls):
        setup = random_setup(np.random.default_rng(15), 6, 2)
        checked = record_calls(linalg.require_hermitian)
        convergence_scan(setup, 1.0, [8, 16])
        assert checked == []

    def test_cos_power_ladder(self):
        setup = sigma_x_setup()
        Ns = [2 ** k for k in range(1, 11)]
        points = convergence_scan(setup, 1.0, Ns)
        for p in points:
            want = abs(math.cos(1.0 / p.n_measurements) ** p.n_measurements - 1.0)
            assert abs(p.error_spectral - want) <= 1e-12
        # error(N)/error(2N) approaches 2 on the 1/N law.
        ratios = [
            points[i].error_spectral / points[i + 1].error_spectral
            for i in range(len(points) - 1)
        ]
        assert abs(ratios[-1] - 2.0) <= 0.01

    def test_commuting_case_is_exact(self):
        setup = ZenoSetup(SIGMA_Z, P1, E1)
        points = convergence_scan(setup, 1.0, [2, 8, 32])
        assert all(p.error_spectral <= 1e-12 for p in points)
        assert fit_convergence_slope(points) is None

    def test_single_usable_error_gives_nan_slope(self):
        points = convergence_scan(sigma_x_setup(), 1.0, [8])
        assert points[0].error_spectral > 0.05
        assert math.isnan(fit_convergence_slope(points))

    def test_generic_slope_near_minus_one(self):
        rng = np.random.default_rng(6)
        setup = random_setup(rng, 6, 2)
        points = convergence_scan(setup, 1.0, [2 ** k for k in range(3, 11)])
        slope = fit_convergence_slope(points)
        assert slope is not None and -1.2 <= slope <= -0.8

    def test_errors_non_increasing_with_slack(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(1, n + 1))
            setup = random_setup(rng, n, rank)
            points = convergence_scan(setup, 1.0, [4, 8, 16, 32, 64])
            errs = [p.error_spectral for p in points]
            for a, b in zip(errs, errs[1:]):
                assert b <= 1.2 * a + 1e-12

    def test_no_dense_decomposition_per_rung(self, eigh_sizes):
        # ZenoSetup decomposes H once and takes range P from Cholesky
        # steps; a 14-rung scan decomposes nothing of size n x n.
        setup = random_setup(np.random.default_rng(11), 12, 3)
        eigh_sizes.clear()
        points = convergence_scan(setup, 1.0, [2 ** k for k in range(3, 17)])
        assert len(points) == 14
        assert eigh_sizes.count(setup.dim) == 0

    def test_near_projector_matches_the_dense_formula(self):
        # P = |q><q| + 5e-11 |w><w| is idempotent only to 5e-11; the scan
        # runs on the span of q and must agree with the dense product
        # (P exp(-iHt/N) P)^N - exp(-i PHP t) P built from P itself.
        n = 64
        q = np.full(n, 1.0 / math.sqrt(n))
        w = np.eye(n)[0] - q[0] * q
        w /= np.linalg.norm(w)
        P = np.outer(q, q) + 5e-11 * np.outer(w, w)
        H = random_hermitian(np.random.default_rng(12), n)
        Ns = [2 ** k for k in range(13)]
        UZ = zeno_limit_unitary(H, P, 1.0)
        for p in convergence_scan(ZenoSetup(H, P), 1.0, Ns):
            N = p.n_measurements
            step = P @ linalg.expm_antihermitian(H, 1.0 / N) @ P
            diff = np.linalg.matrix_power(step, N) - UZ
            assert abs(p.error_spectral - np.linalg.norm(diff, 2)) <= 1e-10
            assert abs(p.error_frobenius - np.linalg.norm(diff)) <= 1e-10

    def test_rejects_bad_ladders(self):
        setup = sigma_x_setup()
        with pytest.raises(ValueError):
            convergence_scan(setup, 1.0, [])
        with pytest.raises(ValueError):
            convergence_scan(setup, 1.0, [8, 4])


class TestMeasuredTrajectory:
    def test_cos_power_survival(self):
        traj = measured_trajectory(sigma_x_setup(), 1.0, 100, 10)
        want_final = math.cos(0.01) ** 200
        assert abs(traj.survival_probs[-1] - want_final) <= 1e-12
        assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
        assert len(traj.times) == 11
        # Intermediate samples follow the same closed form.
        for k, t in enumerate(traj.times):
            want = math.cos(0.01) ** (2 * 100 * t / 1.0)
            assert abs(traj.survival_probs[k] - want) <= 1e-12

    def test_states_lose_norm(self):
        traj = measured_trajectory(sigma_x_setup(), 1.0, 100, 10)
        probs = traj.survival_probs
        assert np.all(probs[1:] < 1.0)
        assert np.all(np.diff(probs) < 0.0)

    def test_eigenstate_setup_never_decays(self):
        setup = ZenoSetup(SIGMA_Z, P1, E1)
        traj = measured_trajectory(setup, 3.0, 120, 6)
        assert np.max(np.abs(traj.survival_probs - 1.0)) <= 1e-12

    def test_single_measurement_reduces_to_survival_probability(self):
        # One rank-1 measurement at time t leaves norm^2 = p(t).
        rng = np.random.default_rng(8)
        psi = random_state(rng, 2)
        P = np.outer(psi, psi.conj())
        H = random_hermitian(rng, 2)
        setup = ZenoSetup(H, P, psi)
        traj = measured_trajectory(setup, 0.8, 1, 1)
        want = linalg.survival_probability(psi, H, 0.8)
        assert abs(traj.survival_probs[-1] - want) <= 1e-12

    def test_record_grid(self):
        # sigma_x measured on e1: each period is cos(t/N) |e1><e1|, so row k
        # is cos(t/N)^(k N/samples) e1, starting from e1 itself.
        traj = measured_trajectory(sigma_x_setup(), 2.0, 8, 4)
        assert traj.states.shape == (5, 2)
        assert np.array_equal(traj.states[0], E1)
        for k in range(5):
            assert np.allclose(traj.states[k], [math.cos(0.25) ** (2 * k), 0.0], atol=1e-15)

    def test_incommensurate_sampling_rejected(self):
        with pytest.raises(ValueError, match="dividing N"):
            measured_trajectory(sigma_x_setup(), 1.0, 100, 7)

    def test_matches_zeno_product_states(self):
        rng = np.random.default_rng(9)
        setup = random_setup(rng, 4, 2)
        traj = measured_trajectory(setup, 1.2, 12, 4)
        for k, t in enumerate(traj.times):
            if k == 0:
                continue
            V = zeno_product(setup, float(t), int(round(12 * t / 1.2)))
            want = V @ setup.initial_state
            assert np.max(np.abs(traj.states[k] - want)) <= 1e-10


class TestQZESurvival:
    def test_more_frequent_measurement_protects(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            H = random_hermitian(rng, n, scale=1.5)
            psi = random_state(rng, n)
            P = np.outer(psi, psi.conj())
            setup = ZenoSetup(H, P, psi)
            prev = None
            for N in (8, 16, 32, 64, 128):
                s = float(np.sum(np.abs(zeno_product(setup, 1.0, N) @ psi) ** 2))
                if prev is not None:
                    assert s >= prev - 1e-9
                prev = s

    def test_survival_approaches_one(self):
        setup = sigma_x_setup()
        s = measured_trajectory(setup, 1.0, 4096, 1).survival_probs[-1]
        assert s >= 1.0 - 1.0 / 4096 * 1.1

