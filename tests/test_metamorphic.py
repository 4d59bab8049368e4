"""Metamorphic oracles: input transformations that leave the physics, and so
the outputs, unchanged whatever the implementation.

Tolerance: 1e-12 absolute on p(t), a(t), the variance and the scan errors,
for dim <= 6, |H| of order 1 to 5, |t| <= 3, shifts |c| <= 10 and scale
factors 0.1 <= |lambda| <= 10.  Over 400 such draws the largest deviation
was 4.2e-14 (the shifted variance); the scaled scan errors moved by at most
2.8e-14, the scaled p(t) by 4.3e-15, and the time-reversed amplitude not at
all.

The file ends with the closed-form 1/N rate of the measured product, an
oracle that depends on no implementation of V_N.
"""
import numpy as np
from hypothesis import assume, given, settings
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


def asymptotic_constant(H, Q, t):
    """c_inf = lim N |V_N(t) - exp(-i PHP t) P|_2 for P = Q Q^dagger.

    On range P one measured step is exp(-i tau A - tau^2 K / 2 + O(tau^3))
    with tau = t/N, A = Q^dagger H Q and K = Q^dagger H (I - Q Q^dagger) H Q,
    so c_inf = (t^2 / 2) |K o Phi|_2 with K written in the eigenbasis
    {z_j} of A and Phi_jk = (e^{-i a_k t} - e^{-i a_j t}) / (-i (a_k - a_j) t),
    which is e^{-i a_j t} at a_j = a_k.  Facchi & Pascazio, PRL 89, 080401
    (2002).
    """
    A = Q.conj().T @ H @ Q
    a, Z = np.linalg.eigh(0.5 * (A + A.conj().T))
    HQ = H @ Q
    K = HQ.conj().T @ HQ - A.conj().T @ A
    # Phi_jk = e^{-i (a_j + a_k) t / 2} sin(d) / d with d = (a_k - a_j) t / 2.
    gap = a[None, :] - a[:, None]
    Phi = np.exp(-0.5j * (a[:, None] + a[None, :]) * t) * np.sinc(gap * t / (2 * np.pi))
    return 0.5 * t * t * float(np.linalg.norm((Z.conj().T @ K @ Z) * Phi, 2))


#: Largest N |N err_N / c_inf - 1| allowed.  Over 1500 draws of the test
#: below the worst was 0.89, about c_inf / 2 (the curvature of 1 - e^{-c/N}),
#: and it did not drift: 0.87, 0.89, 0.89 at N = 64, 1024, 16384.
RATE_C = 2.0
#: Draws with a smaller c_inf are skipped: [H, P] = 0 gives 0, and near it
#: the error at N = 16384 nears its roundoff floor of about 1e-11.
RATE_FLOOR = 1e-2


@given(st.tuples(st.integers(2, 8), st.integers(0, 2**32 - 1)), st.floats(0.3, 2.0))
@settings(max_examples=60, deadline=None)
def test_error_approaches_the_closed_form_rate(draw, t):
    # |N err_N / c_inf - 1| <= RATE_C / N for spectral radius |H| = 1.
    n, seed = draw
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n, scale=1.0)
    r = int(rng.integers(1, n + 1))
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    c_inf = asymptotic_constant(H, Q, t)
    assume(c_inf >= RATE_FLOOR)
    for p in zeno.convergence_scan(zeno.ZenoSetup(H, Q @ Q.conj().T), t, [64, 1024, 16384]):
        N = p.n_measurements
        assert abs(N * p.error_spectral / c_inf - 1.0) <= RATE_C / N


@given(draws, st.floats(0.3, 2.0))
@settings(max_examples=60, deadline=None)
def test_rank_one_rate_is_the_variance(draw, t):
    # For P = |psi><psi|, K is the variance of H and c_inf = t^2 var / 2.
    n, seed = draw
    rng = np.random.default_rng(seed)
    H, psi = random_hermitian(rng, n), random_state(rng, n)
    want = 0.5 * t * t * linalg.variance(H, psi)
    assert abs(asymptotic_constant(H, psi[:, None], t) - want) <= TOL * max(1.0, want)
