import math
import os
import re
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_rank_projector, random_state, scaled_taylor_expm, taylor_expm
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


def phase_verdict(E, t):
    try:
        linalg._require_finite_phases(E, t)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("E", [[0.0], [-0.0], [1.0], [-2.0], [1e308], [math.nan], [2.0, -3.0]], ids=str)
@pytest.mark.parametrize("t", [0.0, -0.0, 5e-324, 1.0, 1e308, math.inf, -math.inf, math.nan], ids=repr)
def test_phase_rule_reads_a_scalar_time_in_every_form(E, t):
    # A Python float time or rate is read as its abs, any other as an array
    # reduction: one verdict, and one message, for every form of one time
    # and of one rate.
    phase = max(abs(e) for e in E) * abs(t)
    want = None if math.isfinite(phase) else f"phase max|E| max|t| = {phase!r} is not finite"
    rates = [np.array(E), *([E[0], np.float64(E[0])] if len(E) == 1 else [])]
    forms = [t, np.float64(t), np.array(t), np.array([t])]
    assert [phase_verdict(rate, form) for rate in rates for form in forms] == [want] * (4 * len(rates))


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

    def test_floor_rule(self):
        floor = linalg.VARIANCE_FLOOR
        assert linalg.zeno_time_of_variance(floor) == math.inf
        assert linalg.zeno_time_of_variance(-1.0) == math.inf
        assert linalg.zeno_time_of_variance(4.0) == 0.5
        assert math.isfinite(linalg.zeno_time_of_variance(np.nextafter(floor, 1.0)))


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

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize(
        "entry", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(math.inf, math.nan)]
    )
    def test_non_finite_entry_outranks_scale_and_hermiticity(self, entry, where):
        # With a part past the scale bound and an asymmetric pair beside it,
        # a nan or infinite part, before or after the largest, is what is named.
        A = np.array([[3.0, 1e300], [1.0, 0.0]], dtype=complex)
        A[where] = entry
        with pytest.raises(ValueError, match="^operator contains non-finite entries$"):
            linalg.require_hermitian(A)
        with pytest.raises(ValueError, match="square"):
            linalg.require_hermitian(np.full((2, 3), entry))

    # The deviation is max |A_ij - conj(A_ji)| as abs(A - A.conj().T).max()
    # gives it, bit for bit: a tol of that value passes, and one a step
    # below it fails with that value in the message.
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 200])
    @pytest.mark.parametrize("kind", ["random", "hermitian", "fortran", "signed-zeros", "subnormal"])
    def test_hermitian_deviation_is_the_entrywise_one(self, n, kind):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "hermitian":
            A = A + A.conj().T
        elif kind == "fortran":
            A = np.asfortranarray(A)
        elif kind == "signed-zeros":
            A.real, A.imag = rng.choice([0.0, -0.0, 1.0], (2, n, n))
        elif kind == "subnormal":
            A = A + A.conj().T + 5e-324 * rng.integers(-3, 4, (n, n))
        dev = abs(A - A.conj().T).max()
        assert linalg.require_hermitian(A, tol=dev) is not A
        message = f"matrix is not Hermitian (max deviation {dev:.3e})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            linalg.require_hermitian(A, tol=np.nextafter(dev, -math.inf))

    def test_projector_validation(self):
        linalg.require_projector(np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="idempotent"):
            linalg.require_projector(np.diag([0.5, 0.0]))
        # |P^2 - P|_F = 8.7e-11 passes; the rank is the rounded trace, 3 + 1.5e-10.
        linalg.require_projector(np.diag([1 + 5e-11, 1 + 5e-11, 1 + 5e-11, 0.0]))
        with pytest.raises(ValueError, match=r"^projector trace 0\.0 is not an integer rank in \[1, n\]$"):
            linalg.require_projector(np.zeros((3, 3)))

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_survival_probability_in_range(self, t):
        p = survival_probability(E1, SIGMA_X, t)
        assert 0.0 <= p <= 1.0


def dense_projector_verdict(P):
    """The dense rule, the oracle: |P^2 - P|_F <= PROJECTOR_TOL, then the
    rounded trace >= 1."""
    if np.linalg.norm(P @ P - P) > linalg.PROJECTOR_TOL:
        return "idempotent"
    return "ok" if round(float(np.trace(P).real)) >= 1 else "trace"


def projector_verdict(P):
    try:
        linalg.require_projector(P)
    except ValueError as exc:
        if re.fullmatch(r"matrix is not idempotent \(\|P - QQ\^dagger\|_F = \S+\)", str(exc)):
            return "idempotent"
        assert re.fullmatch(r"projector trace \S+ is not an integer rank in \[1, n\]", str(exc)), exc
        return "trace"
    return "ok"


def perturbation(rng, Pi, where):
    """A Hermitian direction of unit Frobenius norm inside range Pi, outside
    it, across it (the off-diagonal blocks) or anywhere."""
    W = random_hermitian(rng, Pi.shape[0])
    out = np.eye(Pi.shape[0]) - Pi
    D = {"inside": Pi @ W @ Pi, "outside": out @ W @ out, "across": Pi @ W @ out, "anywhere": W}[where]
    D = D + D.conj().T
    size = np.linalg.norm(D)
    return D / size if size > 0.5 else None


class TestProjectorCheck:
    """require_projector decides from its range basis Q, by |P - QQ^dagger|_F;
    the dense |P^2 - P|_F rule is the oracle, and the two agree outside a
    relative 1e-3 band around PROJECTOR_TOL."""

    @given(
        n=st.integers(1, 10),
        data=st.data(),
        where=st.sampled_from(["inside", "outside", "across", "anywhere"]),
        ratio=st.floats(0.5, 1.5) | st.floats(1e-2, 1e2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_dense_rule(self, n, data, where, ratio, seed):
        r = data.draw(st.sampled_from(sorted({0, 1, n - 1, n})) | st.integers(0, n))
        rng = np.random.default_rng(seed)
        Pi = np.eye(n, dtype=complex) if r == n else random_rank_projector(rng, n, r)
        D = perturbation(rng, Pi, where)
        assume(D is not None)
        # Across range Pi the defect of P^2 - P is second order in the size.
        size = ratio * linalg.PROJECTOR_TOL
        P = Pi + (math.sqrt(size) if where == "across" else size) * D
        dense = np.linalg.norm(P @ P - P) / linalg.PROJECTOR_TOL
        assume(abs(dense - 1.0) > 1e-3)
        assert projector_verdict(P) == dense_projector_verdict(P)

    @given(n=st.integers(2, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_non_psd_integer_trace_agrees_with_the_dense_rule(self, n, data, seed):
        rng = np.random.default_rng(seed)
        H = random_hermitian(rng, n)
        k = data.draw(st.integers(0, n))
        P = H + (k - np.trace(H).real) / n * np.eye(n)
        assert projector_verdict(P) == dense_projector_verdict(P) == "idempotent"

    @pytest.mark.parametrize(
        "P,verdict",
        [
            # A pivot of 0 after one step: the rank-2 trace meets a rank-1 range.
            (np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]]), "idempotent"),
            (np.diag([2.0, -1.0, 0.0]), "idempotent"),
            (np.diag([1.0, 1.0, -1.0]), "idempotent"),
            (np.diag([0.5, 0.0]), "idempotent"),
            (np.zeros((3, 3)), "trace"),
            (np.diag([4e-11, -4e-11, 0.0]), "trace"),
            (np.diag([2e-10, 0.0]), "idempotent"),
            (np.eye(4) + 4e-11 * np.diag([1, -1, 1, -1]), "ok"),
            (np.eye(4) + 6e-11 * np.diag([1, -1, 1, -1]), "idempotent"),
            (np.eye(3) - np.diag([0, 0, 1 - 1e-11]), "ok"),
            (np.diag([1, 1, 0.45]), "idempotent"),
            (np.diag([1.0, 1e-11, 0.0]), "ok"),
        ],
    )
    def test_edges(self, P, verdict):
        P = np.asarray(P, dtype=complex)
        assert projector_verdict(P) == dense_projector_verdict(P) == verdict

    @pytest.mark.parametrize("n,r", [(1, 1), (5, 0), (5, 1), (5, 4), (5, 5)])
    def test_returns_an_orthonormal_basis_of_the_range(self, n, r):
        P = np.eye(n) if r == n else random_rank_projector(np.random.default_rng(n + r), n, r)
        if r == 0:
            with pytest.raises(ValueError, match="trace"):
                linalg.require_projector(P)
            return
        checked, Q = linalg.require_projector(P)
        assert np.array_equal(checked, P)
        assert Q.shape == (n, r)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(r)) <= 1e-14
        assert np.linalg.norm(Q @ Q.conj().T - P) <= 1e-14


#: Parts of a 1 x 1 compression: signed zeros, subnormals, the scale
#: bound's neighbourhood and any double in between.
one_by_one_parts = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e149, -1e149, 1e150]
) | st.floats(-1e150, 1e150)
#: Imaginary parts of a computed compression of a Hermitian matrix:
#: roundoff-sized, zeros of either sign, and any double up to the bound.
small_imaginary_parts = st.sampled_from([0.0, -0.0, 5e-324, -1e-300]) | st.floats(-1e-12, 1e-12) | st.floats(-1e150, 1e150)


def eigh_bits(pair):
    E, V = (np.asarray(x) for x in pair)
    return E.shape, E.dtype, E.view(np.uint64).tolist(), V.shape, V.dtype, V.view(np.uint64).tolist()


class TestHermitianEigh:
    @given(one_by_one_parts, small_imaginary_parts)
    @settings(max_examples=300, deadline=None)
    def test_1x1_closed_form_has_eighs_bits(self, re, im):
        A = np.array([[complex(re, im)]])
        assert eigh_bits(linalg._hermitian_eigh(A)) == eigh_bits(np.linalg.eigh(0.5 * (A + A.conj().T)))

    def test_1x1_calls_no_eigh(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", None)
        E, V = linalg._hermitian_eigh(np.array([[complex(-0.0, 1e-17)]]))
        assert E.view(np.uint64).tolist() == np.array([-0.0]).view(np.uint64).tolist()
        assert V.tolist() == [[1 + 0j]]

    def test_1x1_eigenvalue_is_its_own_array(self):
        A = np.array([[2.0 + 0j]])
        E, _ = linalg._hermitian_eigh(A)
        E[0] = 5.0
        assert A[0, 0] == 2.0


#: numpy's own eigh, for the bits of a fresh decomposition where a test
#: counts the calls of a stand-in.
numpy_eigh = np.linalg.eigh


@pytest.fixture
def eigh_calls(monkeypatch):
    """The matrices passed to numpy.linalg.eigh from here on."""
    calls = []

    def counting_eigh(a):
        calls.append(a)
        return numpy_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


#: Entries of a Hermitian matrix: signed zeros, a subnormal and any double
#: of a scale the checks accept.
memo_parts = st.sampled_from([0.0, -0.0, 5e-324, -1e-300]) | st.floats(-1e6, 1e6)


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(1, 8))
    parts = draw(st.lists(memo_parts, min_size=2 * n * n, max_size=2 * n * n))
    R = np.array(parts[:n * n]).reshape(n, n) + 1j * np.array(parts[n * n:]).reshape(n, n)
    return 0.5 * (R + R.conj().T)


class TestEighMemo:
    """_eigh decomposes a matrix once while it is, bit for bit, one of the
    last _EIGH_MEMO_SIZE it took: a hit gives the bits of a fresh eigh."""

    def test_an_equal_matrix_in_a_new_array_is_a_hit(self, eigh_calls):
        H = random_hermitian(np.random.default_rng(1), 12)
        first = linalg._eigh(H.copy())
        again = linalg._eigh(H.copy())
        assert len(eigh_calls) == 1
        assert eigh_bits(again) == eigh_bits(first) == eigh_bits(numpy_eigh(H))

    # The entry sits in the lower triangle, the one eigh reads.
    @pytest.mark.parametrize(
        "held, entry", [(0.25, np.nextafter(0.25, 1.0)), (0.0, -0.0)], ids=["one-ulp", "negative-zero"]
    )
    def test_one_changed_bit_pattern_is_a_miss(self, held, entry, eigh_calls):
        H = random_hermitian(np.random.default_rng(2), 8)
        H[5, 2] = H[2, 5] = held
        G = H.copy()
        G[5, 2] = entry
        linalg._eigh(H.copy())
        E, V = linalg._eigh(G.copy())
        assert len(eigh_calls) == 2
        assert eigh_bits((E, V)) == eigh_bits(numpy_eigh(G))

    def test_a_fortran_ordered_matrix(self, eigh_calls):
        H = random_hermitian(np.random.default_rng(3), 9)
        F = np.asfortranarray(H)
        assert eigh_bits(linalg._eigh(F)) == eigh_bits(numpy_eigh(H))
        assert eigh_bits(linalg._eigh(H.copy())) == eigh_bits(numpy_eigh(H))
        assert len(eigh_calls) == 1

    def test_a_third_matrix_evicts_the_least_recently_used(self, eigh_calls):
        rng = np.random.default_rng(4)
        A, B, C = (random_hermitian(rng, 6) for _ in range(3))
        assert linalg._EIGH_MEMO_SIZE == 2
        for M in (A, B, A, C):
            linalg._eigh(M.copy())
        assert len(eigh_calls) == 3
        linalg._eigh(A.copy())
        assert len(eigh_calls) == 3
        linalg._eigh(B.copy())
        assert len(eigh_calls) == 4
        assert len(linalg._eigh_memo) == 2

    def test_returned_arrays_are_the_callers(self, eigh_calls):
        # Writing into what a miss or a hit returned, or into H, leaves
        # the held pair as it was.
        H = random_hermitian(np.random.default_rng(5), 5)
        want = eigh_bits(numpy_eigh(H))
        for _ in range(2):
            E, V = linalg._eigh(H)
            E[0] = V[0, 0] = H[0, 1] = np.nan
            H = random_hermitian(np.random.default_rng(5), 5)
        assert eigh_bits(linalg._eigh(H)) == want
        assert len(eigh_calls) == 1

    def test_a_callers_matrix_stays_writable(self, eigh_calls):
        rng = np.random.default_rng(6)
        H = random_hermitian(rng, 6)
        psi = random_state(rng, 6)
        P = random_rank_projector(rng, 6, 2)
        survival_probability(psi, H, [0.0, 0.5])
        setup = zeno.ZenoSetup(H, P)
        assert len(eigh_calls) == 1
        H[0, 0] += 1.0
        P[0, 0] += 1.0
        for array in (setup.hamiltonian, setup.energies, setup.overlaps):
            assert array.flags.writeable
        assert not np.shares_memory(setup.hamiltonian, H)

    @pytest.mark.parametrize("n", [256, 257])
    def test_only_a_complex_matrix_within_the_bound_is_held(self, n, eigh_calls):
        H = random_hermitian(np.random.default_rng(n), n)
        assert linalg._EIGH_MEMO_BYTES == 256 * 256 * 16
        for M in (H, H.copy(), H.real.copy(), H.real.copy()):
            linalg._eigh(M)
        held = n * n * 16 <= linalg._EIGH_MEMO_BYTES
        assert len(eigh_calls) == (3 if held else 4)
        assert len(linalg._eigh_memo) == held

    def test_threads_sharing_the_memo_get_a_fresh_eighs_bits(self):
        # Three matrices for two places: hits and evictions interleave.
        rng = np.random.default_rng(7)
        matrices = [random_hermitian(rng, 6) for _ in range(3)]
        want = [eigh_bits(numpy_eigh(M)) for M in matrices]
        wrong = []

        def work(k):
            for i in range(100):
                j = (i + k) % 3
                if eigh_bits(linalg._eigh(matrices[j].copy())) != want[j]:
                    wrong.append(j)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @given(hermitian_matrices())
    @settings(max_examples=200, deadline=None)
    def test_a_hit_gives_a_fresh_eighs_bits(self, H):
        linalg._eigh_memo.clear()
        linalg._eigh(H.copy())
        hit = linalg._eigh(H.copy())
        assert len(linalg._eigh_memo) == 1
        assert eigh_bits(hit) == eigh_bits(numpy_eigh(H))


class TestStacks:
    """expectation_value and norm_sq act along the last axis over any
    leading axes, and each row of a stack gets the bits of its 1-D call."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("lead", [(1,), (7,), (3, 4), (0,)], ids=str)
    def test_quadratic_forms_equal_the_row_by_row_calls(self, n, lead):
        rng = np.random.default_rng(n)
        R = rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
        A = 0.5 * (R + R.conj().swapaxes(-1, -2))
        psi = rng.standard_normal(lead + (n,)) + 1j * rng.standard_normal(lead + (n,))
        psi_rows = psi.reshape(-1, n)
        got = linalg.expectation_value(A, psi)
        want = [linalg.expectation_value(a, p) for a, p in zip(A.reshape(-1, n, n), psi_rows)]
        assert got.shape == lead
        assert (got.ravel() == np.array(want)).all()
        got = linalg.norm_sq(psi)
        assert got.shape == lead
        assert (got.ravel() == np.array([linalg.norm_sq(p) for p in psi_rows])).all()

    def test_one_state_gives_a_float(self):
        psi = np.array([0.6, 0.8j])
        assert type(linalg.expectation_value(SIGMA_Z, psi)) is float
        assert type(linalg.norm_sq(psi)) is float

    @pytest.mark.parametrize(
        "A,psi",
        [
            (np.eye(3), E1),
            (np.eye(2), np.ones((4, 3))),
            (np.ones((4, 2, 3)), np.ones((4, 3))),
            (np.ones(2), E1),
            (np.eye(2), np.complex128(1.0)),
        ],
        ids=["mismatched", "mismatched-stack", "not-square", "vector-operator", "scalar-state"],
    )
    def test_mismatched_sizes_are_rejected(self, A, psi):
        with pytest.raises(ValueError, match="mismatch"):
            linalg.expectation_value(A, psi)


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


class TestAsState:
    @pytest.mark.parametrize("psi", [np.eye(2), np.zeros(0), 1.0], ids=["2-D", "empty", "scalar"])
    def test_rejects_a_non_vector(self, psi):
        with pytest.raises(ValueError, match=r"^state must be a non-empty 1-D vector, got shape"):
            linalg.as_state(psi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="^state contains non-finite entries$"):
            linalg.as_state([1.0, bad])


def test_short_time_fit_that_is_not_quadratic_raises(monkeypatch):
    # p = 1 - |t| decays linearly: (1 - p) / t^2 = 1/t grows at every
    # level of the tableau, which then does not settle.
    monkeypatch.setattr(linalg, "_probabilities", lambda E, V, psi0, t: 1.0 - np.abs(t))
    with pytest.raises(ExtrapolationError, match="did not converge"):
        short_time_coefficient(E1, SIGMA_X)
