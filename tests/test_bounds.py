"""The Zeno time as a bound, n <= 8.  Each oracle is an inequality or an
identity that shares no code path with the routine it checks.

(a) Speed limit (Mandelstam-Tamm; Anandan-Aharonov): the Fubini-Study
    distance arccos sqrt p(t) is at most t / tau_Z, so
    p(t) >= cos^2(t / tau_Z) for t <= pi tau_Z / 2, with equality when
    psi0 is an equal superposition of two eigenvectors.
(b) Pulsed survival: for P = |psi0><psi0|, <psi0|V_N(t)|psi0> = a(t/N)^N,
    so the product route (zeno_product) and the survival route
    (survival_probability) agree: p_N(t) = p(t/N)^N.
(c) Convergence, any rank: |V_N(t) - exp(-iPHPt) P|_2 <= t^2 |R|_2^2 / (2N)
    with R = HQ - QA.  One measured step is within tau^2 |R|_2^2 / 2 of
    exp(-iA tau); the N steps telescope.  Checked on convergence_scan and
    on the rungs that the converge command prints for H and P read from
    JSON files.

Tolerances, measured over 5000 seeded draws of each kind with n <= 8:
(a) no draw fell below cos^2(t / tau_Z).  In the saturating case the
    largest gap from cos^2(t / tau_Z) was 9.5e-14, and 24.8 eps times
    1 + <H>^2 tau_Z^2, the factor by which the variance's cancellation
    magnifies roundoff in tau_Z; the tolerance is SPEED_TOL times that
    factor.
(b) the largest |p_N - p(t/N)^N| over N < 64 was 2.1e-13; PULSED_TOL is
    1e-12.
(c) on the 36883 rungs where the bound is at least 1e3 N eps, the largest
    err_N / bound was 0.9999995: the bound is tight, and no error exceeded
    it.  A rung may exceed it by ROUNDOFF_NEPS N eps, the order of the
    roundoff of N powered steps, at most 1% of the bound on a checked rung.
    An exact setup (P = I, or H block-diagonal in a basis adapted to P)
    obeys the bound on every rung with no allowance: its bound is the
    roundoff of |R|_2^2, and the scan reports its errors as 0.
"""
import contextlib
import io
import json
import math
import pathlib
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_rank_projector, random_state
from zenogeo import cli, jsonio, linalg, zeno

EPS = np.finfo(np.float64).eps
SPEED_TOL = 1e-13
PULSED_TOL = 1e-12
CHECKED_NEPS = 1e3
ROUNDOFF_NEPS = 10.0
LADDER = [2**k for k in range(11)]
draws = st.tuples(st.integers(1, 8), st.integers(0, 2**32 - 1))


def speed_limit_gap(psi, H):
    """cos^2(t / tau_Z) - p(t) on t in [0, pi tau_Z / 2], and the
    tolerance for it."""
    tau = linalg.zeno_time(psi, H)
    t = np.linspace(0.0, math.pi * tau / 2, 41)
    gap = np.cos(t / tau) ** 2 - linalg.survival_probability(psi, H, t)
    mean = linalg.expectation_value(H, psi)
    return gap, SPEED_TOL * (1.0 + mean * mean * tau * tau)


@given(draws, st.floats(0.2, 5.0))
@settings(max_examples=60, deadline=None)
def test_survival_obeys_the_speed_limit(draw, scale):
    n, seed = draw
    rng = np.random.default_rng(seed)
    H, psi = scale * random_hermitian(rng, n), random_state(rng, n)
    # An eigenstate never decays; every n = 1 state is one.
    assume(math.isfinite(linalg.zeno_time(psi, H)))
    gap, tol = speed_limit_gap(psi, H)
    assert np.max(gap) <= tol


@given(st.tuples(st.integers(2, 8), st.integers(0, 2**32 - 1)))
@settings(max_examples=60, deadline=None)
def test_two_eigenvector_superposition_saturates_the_speed_limit(draw):
    n, seed = draw
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    _, V = np.linalg.eigh(H)
    i, j = rng.choice(n, 2, replace=False)
    psi = (V[:, i] + np.exp(2j * math.pi * rng.random()) * V[:, j]) / math.sqrt(2)
    gap, tol = speed_limit_gap(psi, H)
    assert np.max(np.abs(gap)) <= tol


@given(draws, st.floats(0.1, 3.0), st.integers(1, 63))
@settings(max_examples=60, deadline=None)
def test_pulsed_survival_is_the_survival_of_one_interval_to_the_nth(draw, t, N):
    n, seed = draw
    rng = np.random.default_rng(seed)
    H, psi = random_hermitian(rng, n), random_state(rng, n)
    V = zeno.zeno_product(zeno.ZenoSetup(H, np.outer(psi, psi.conj())), t, N)
    p_N = abs(np.vdot(psi, V @ psi)) ** 2
    assert abs(p_N - linalg.survival_probability(psi, H, t / N) ** N) <= PULSED_TOL


def printed_rungs(H, P, t):
    """(N, error_spectral) for each rung that `converge --format json`
    prints, H and P written to JSON files first."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(pathlib.Path(tmp, name)) for name in ("H.json", "P.json")]
        jsonio.save_matrix(paths[0], H)
        jsonio.save_matrix(paths[1], P)
        out = io.StringIO()
        argv = ["converge", "--hamiltonian", paths[0], "--projector", paths[1],
                "--t", repr(t), "--n-max", str(LADDER[-1]), "--format", "json"]
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    return [(row["N"], row["error_spectral"]) for row in json.loads(out.getvalue())["rows"]]


@given(draws, st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_every_rung_obeys_the_one_over_n_bound(draw, t):
    n, seed = draw
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    r = int(rng.integers(1, n + 1))
    P = random_rank_projector(rng, n, r)
    setup = zeno.ZenoSetup(H, P)
    Q, A = setup.basis, setup.compression
    R = H @ Q - Q @ A
    c = t * t * np.linalg.norm(R, 2) ** 2 / 2
    scanned = [(p.n_measurements, p.error_spectral) for p in zeno.convergence_scan(setup, t, LADDER)]
    printed = printed_rungs(H, P, t)
    assert [N for N, _ in printed] == [N for N in LADDER if N >= 8]
    for N, err in scanned + printed:
        # Below this the bound nears the roundoff of N powered steps.
        if c / N >= CHECKED_NEPS * N * EPS:
            assert err <= c / N + ROUNDOFF_NEPS * N * EPS, (N, err, c / N)


@given(draws, st.floats(0.1, 3.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_exact_setups_obey_the_bound_on_every_rung(draw, t, identity):
    n, seed = draw
    rng = np.random.default_rng(seed)
    if identity:
        H, P = random_hermitian(rng, n), np.eye(n)
    else:
        # H = U diag(B, C) U^dagger, P = U diag(I_r, 0) U^dagger: [H, P] = 0
        # up to the roundoff of the basis change.
        r = int(rng.integers(1, n + 1))
        U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        B = np.zeros((n, n), dtype=np.complex128)
        B[:r, :r] = random_hermitian(rng, r)
        B[r:, r:] = random_hermitian(rng, n - r)
        H = U @ B @ U.conj().T
        H = 0.5 * (H + H.conj().T)
        P = U[:, :r] @ U[:, :r].conj().T
    setup = zeno.ZenoSetup(H, P)
    Q, A = setup.basis, setup.compression
    c = t * t * np.linalg.norm(H @ Q - Q @ A, 2) ** 2 / 2
    scanned = [(p.n_measurements, p.error_spectral) for p in zeno.convergence_scan(setup, t, LADDER)]
    for N, err in scanned + printed_rungs(H, P, t):
        assert err <= c / N, (N, err, c / N)
