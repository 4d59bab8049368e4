import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_state, scaled_taylor_expm, taylor_expm
from zenogeo import linalg, zeno
from zenogeo.linalg import (
    SIGMA_X,
    SIGMA_Z,
    ExtrapolationError,
    evolve,
    expm_antihermitian,
    normalize,
    short_time_coefficient,
    survival_amplitude,
    survival_probability,
    variance,
    zeno_time,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
# sigma_z with the basis labeled so the FIRST vector is the -1 eigenvector
# (the opposite of the standard diag(1, -1) used by SIGMA_Z).
SZ_FIRST_DOWN = np.diag([-1.0, 1.0]).astype(complex)


class TestExpm:
    def test_zero_hamiltonian(self):
        assert np.allclose(expm_antihermitian(np.zeros((3, 3)), 5.0), np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("t", [0.0, 0.3, -0.9, 1.2])
    def test_sigma_x_closed_form_vs_series(self, t):
        # sigma_x squares to the identity, so the exponential collapses to
        # cos(t) I - i sin(t) sigma_x; the truncated series confirms it.
        closed = math.cos(t) * np.eye(2) - 1j * math.sin(t) * SIGMA_X
        series = taylor_expm(-1j * t * SIGMA_X, terms=20)
        assert np.max(np.abs(closed - series)) < 1e-15
        assert np.max(np.abs(expm_antihermitian(SIGMA_X, t) - closed)) < 1e-13

    def test_sigma_x_closed_form_large_t(self):
        for t in [3.0, 7.5, -20.0]:
            closed = math.cos(t) * np.eye(2) - 1j * math.sin(t) * SIGMA_X
            assert np.max(np.abs(expm_antihermitian(SIGMA_X, t) - closed)) < 1e-12

    def test_diagonal(self):
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        expected = np.diag(np.exp(-1j * 0.7 * np.array([1.0, 2.0, 3.0])))
        assert np.max(np.abs(expm_antihermitian(H, 0.7) - expected)) < 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_antihermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError, match="finite"):
            expm_antihermitian(SIGMA_X, math.inf)

    def test_rejects_overflowing_phase(self):
        # Finite t, but |E| t = 2e308 is not.
        with pytest.raises(ValueError, match="phase"):
            expm_antihermitian(2.0 * SIGMA_X, 1e308)

    @pytest.mark.parametrize("target_norm", [1.0, 10.0, 100.0])
    def test_accuracy_up_to_norm_100(self, target_norm):
        rng = np.random.default_rng(7)
        for _ in range(3):
            H = random_hermitian(rng, 5, scale=1.0)
            t = target_norm  # |H t| == target_norm
            got = expm_antihermitian(H, t)
            want = scaled_taylor_expm(-1j * t * H)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel < 1e-12

    def test_unitarity_200_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            H = random_hermitian(rng, n)
            t = float(rng.uniform(-10, 10))
            U = expm_antihermitian(H, t)
            assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-10

    def test_group_law(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            H = random_hermitian(rng, n)
            t1, t2 = rng.uniform(-5, 5, size=2)
            lhs = expm_antihermitian(H, t1) @ expm_antihermitian(H, t2)
            rhs = expm_antihermitian(H, t1 + t2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestEvolve:
    def test_eigenstate_phase_first_vector_down(self):
        # With e1 the -1 eigenvector the accumulated phase is exp(+i t).
        for t in [0.4, 2.0]:
            got = evolve(E1, SZ_FIRST_DOWN, t)
            assert np.allclose(got, np.exp(1j * t) * E1, atol=1e-12)

    def test_eigenstate_phase_standard(self):
        got = evolve(E1, SIGMA_Z, 0.4)
        assert np.allclose(got, np.exp(-1j * 0.4) * E1, atol=1e-12)

    def test_sigma_x_quarter_period(self):
        got = evolve(E1, SIGMA_X, math.pi / 2)
        assert np.allclose(got, -1j * E2, atol=1e-12)

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(3)
        psi = random_state(rng, 4)
        H = random_hermitian(rng, 4)
        assert np.allclose(evolve(psi, H, 0.0), psi, atol=1e-14)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            psi = random_state(rng, 5)
            H = random_hermitian(rng, 5)
            out = evolve(psi, H, float(rng.uniform(-3, 3)))
            assert abs(linalg.norm_sq(out) - 1.0) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            evolve(np.array([1.0, 0.0, 0.0]), SIGMA_X, 1.0)

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            evolve(2.0 * E1, SIGMA_X, 1.0)

    def test_checks_h_once(self, record_calls):
        checked = record_calls(linalg.require_hermitian)
        evolve(E1, SIGMA_X, 0.3)
        assert len(checked) == 1


class TestSurvival:
    def test_eigenstate_amplitude(self):
        for t in [0.3, 1.7]:
            assert abs(survival_amplitude(E1, SZ_FIRST_DOWN, t) - np.exp(1j * t)) < 1e-12

    def test_sigma_x_amplitude_is_cos(self):
        for t in [0.2, 1.1, 3.0]:
            assert abs(survival_amplitude(E1, SIGMA_X, t) - math.cos(t)) < 1e-12

    def test_amplitude_at_zero(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng, 6)
        H = random_hermitian(rng, 6)
        assert abs(survival_amplitude(psi, H, 0.0) - 1.0) < 1e-14

    def test_time_reversal_conjugates(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            psi = random_state(rng, 4)
            H = random_hermitian(rng, 4)
            t = float(rng.uniform(0, 5))
            a_plus = survival_amplitude(psi, H, t)
            a_minus = survival_amplitude(psi, H, -t)
            assert abs(a_minus - np.conj(a_plus)) <= 1e-12

    def test_probability_is_cos_squared(self):
        for t in [0.2, 1.1]:
            assert abs(survival_probability(E1, SIGMA_X, t) - math.cos(t) ** 2) < 1e-12

    def test_eigenstate_never_decays(self):
        for t in np.linspace(0.0, 20.0, 7):
            assert abs(survival_probability(E1, SIGMA_Z, float(t)) - 1.0) <= 1e-10

    def test_small_time_expansion_sigma_x(self):
        for t in [1e-2, 1e-3]:
            p = survival_probability(E1, SIGMA_X, t)
            assert abs(p - (1.0 - t**2)) <= 10 * t**4

    def test_short_time_law_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            H = random_hermitian(rng, n)
            psi = random_state(rng, n)
            hnorm = np.linalg.norm(H, 2)
            var = variance(H, psi)
            t = 0.1 / hnorm
            p = survival_probability(psi, H, t)
            assert abs(p - (1.0 - var * t**2)) <= 10 * t**4 * hnorm**4

    def test_amplitude_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            psi = random_state(rng, 5)
            H = random_hermitian(rng, 5)
            assert abs(survival_amplitude(psi, H, float(rng.uniform(-8, 8)))) <= 1 + 1e-10

    def test_probability_at_time_zero_is_exactly_one(self):
        rng = np.random.default_rng(2024)
        for n, draws in ((2, 300), (16, 300), (64, 300), (200, 30)):
            for _ in range(draws):
                H = random_hermitian(rng, n)
                psi = random_state(rng, n)
                assert survival_probability(psi, H, 0.0) == 1.0

    def test_array_of_times_matches_scalar_calls(self):
        rng = np.random.default_rng(10)
        psi = random_state(rng, 8)
        H = random_hermitian(rng, 8)
        ts = np.linspace(0.0, 4.0, 33)
        amps = survival_amplitude(psi, H, ts)
        probs = survival_probability(psi, H, ts)
        assert amps.shape == probs.shape == (33,)
        assert probs[0] == 1.0
        for t, a, p in zip(ts, amps, probs):
            assert abs(a - survival_amplitude(psi, H, float(t))) <= 1e-15
            assert abs(p - survival_probability(psi, H, float(t))) <= 1e-15
            assert abs(a - np.vdot(psi, evolve(psi, H, float(t)))) <= 1e-13

    def test_rejects_non_finite_and_matrix_times(self):
        with pytest.raises(ValueError, match="finite"):
            survival_probability(E1, SIGMA_X, [0.0, math.nan])
        with pytest.raises(ValueError, match="1-D"):
            survival_amplitude(E1, SIGMA_X, np.zeros((2, 2)))

    def test_rejects_overflowing_phase(self):
        with pytest.raises(ValueError, match="phase"):
            survival_probability(E1, 2.0 * SIGMA_X, [0.0, 1e308])


ZERO_SETUP = zeno.ZenoSetup(np.zeros((2, 2)), np.diag([1.0, 0.0]), E1)
TIMED = {
    "expm_antihermitian": lambda t: expm_antihermitian(np.zeros((2, 2)), t),
    "survival_probability": lambda t: survival_probability(E1, np.zeros((2, 2)), [0.0, t]),
    "survival_amplitude": lambda t: survival_amplitude(E1, np.zeros((2, 2)), t),
    "zeno_product": lambda t: zeno.zeno_product(ZERO_SETUP, t, 4),
    "convergence_scan": lambda t: zeno.convergence_scan(ZERO_SETUP, t, [8]),
    "measured_trajectory": lambda t: zeno.measured_trajectory(ZERO_SETUP, t, 4, 2),
}


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(TIMED))
def test_non_finite_time_rejected_at_zero_hamiltonian(name, t):
    # At H = 0 every phase E t is 0 * t, which is nan exactly when t is not
    # finite: the phase rule is the only time check, and it still holds.
    with pytest.raises(ValueError, match="finite"):
        TIMED[name](t)


class TestZenoTime:
    def test_sigma_x_on_basis_state(self):
        assert abs(zeno_time(E1, SIGMA_X) - 1.0) < 1e-12
        assert abs(variance(SIGMA_X, E1) - 1.0) < 1e-12

    def test_eigenstate_is_infinite(self):
        assert zeno_time(E1, SIGMA_Z) == math.inf

    def test_qubit_transverse_field(self):
        # H = h0 I + h . sigma on e1: only the transverse part contributes.
        h0, hx, hy, hz = 0.7, 1.0, 1.0, -0.4
        H = h0 * np.eye(2) + hx * SIGMA_X + hy * linalg.SIGMA_Y + hz * SIGMA_Z
        assert abs(variance(H, E1) - (hx**2 + hy**2)) < 1e-12
        assert abs(zeno_time(E1, H) - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_homogeneous_in_the_state(self):
        rng = np.random.default_rng(10)
        H = random_hermitian(rng, 4)
        psi = random_state(rng, 4, normalized=False)
        assert abs(zeno_time(psi, H) - zeno_time(3.7 * psi, H)) < 1e-10

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            zeno_time(np.zeros(2, dtype=complex), SIGMA_X)


class TestShortTimeCoefficient:
    def test_sigma_x(self):
        c = short_time_coefficient(E1, SIGMA_X)
        assert abs(c - 1.0) < 1e-6

    def test_eigenstate(self):
        c = short_time_coefficient(E1, SIGMA_Z)
        assert abs(c) < 1e-8

    def test_zero_hamiltonian(self):
        assert short_time_coefficient(E1, np.zeros((2, 2))) == 0.0

    def test_one_eigh_and_no_svd(self, monkeypatch):
        # np.linalg.norm(H, 2) is an SVD; the spectral radius max|E| of the
        # one eigh gives the same scale.
        rng = np.random.default_rng(12)
        psi, H = random_state(rng, 6), random_hermitian(rng, 6)
        calls = []
        for name in ("eigh", "eigvalsh", "svd", "norm"):
            fn = getattr(np.linalg, name)

            def counting(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        short_time_coefficient(psi, H)
        assert calls == ["eigh"]

    def test_matches_variance_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            H = random_hermitian(rng, 4)
            psi = random_state(rng, 4)
            c = short_time_coefficient(psi, H)
            var = variance(H, psi)
            assert abs(c - var) <= 1e-6 * max(var, 1e-12)


class TestValidation:
    def test_normalize(self):
        psi = normalize(np.array([3.0, 4.0]))
        assert abs(linalg.norm_sq(psi) - 1.0) < 1e-14

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(3))

    def test_hermitian_tolerance(self):
        A = np.array([[0.0, 1.0], [1.0 + 5e-12, 0.0]])
        with pytest.raises(ValueError):
            linalg.require_hermitian(A)

    def test_operator_scale_bound(self):
        # n max|A_ij| <= 1e150 keeps |A psi|^2 finite; 2 x 1e150 is past it.
        linalg.require_hermitian(1e150 * np.diag([1.0, 0.0, 0.0]) / 3)
        with pytest.raises(ValueError, match="scale"):
            linalg.require_hermitian(1e150 * SIGMA_X)

    def test_projector_validation(self):
        linalg.require_projector(np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="idempotent"):
            linalg.require_projector(np.diag([0.5, 0.0]))

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_survival_probability_in_range(self, t):
        p = survival_probability(E1, SIGMA_X, t)
        assert 0.0 <= p <= 1.0


class TestExtrapolationDiagnostics:
    def test_extrapolation_error_type_exists(self):
        assert issubclass(ExtrapolationError, RuntimeError)


def test_import_needs_numpy_only():
    # Every top-level package that importing zenogeo loads is zenogeo,
    # numpy or part of the standard library.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; before = set(sys.modules); import zenogeo; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'zenogeo'}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
