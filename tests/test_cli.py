import argparse
import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zenogeo import cli, geometry, jsonio, linalg, qubit
from zenogeo.linalg import SIGMA_X


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def trailer_lines(text):
    return [l for l in text.strip().splitlines() if l.startswith("#")]


class TestSurvival:
    def test_sigma_x_is_cos_squared(self, capsys):
        code, out, _ = run_cli(
            ["survival", "--hamiltonian", "sigma_x", "--state", "e1",
             "--t-max", str(math.pi), "--samples", "100"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "p", "quadratic_approx"]
        assert len(rows) == 100
        for t, p, _ in rows:
            assert abs(p - math.cos(t) ** 2) <= 1e-10

    def test_eigenstate_never_decays(self, capsys):
        code, out, _ = run_cli(
            ["survival", "--hamiltonian", "sigma_z", "--state", "e1",
             "--t-max", "5", "--samples", "20"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(abs(p - 1.0) <= 1e-12 for _, p, _ in rows)

    def test_quadratic_approximation_near_zero(self, capsys):
        code, out, _ = run_cli(
            ["survival", "--hamiltonian", "sigma_x", "--state", "e1",
             "--t-max", "0.1", "--samples", "50"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        hnorm = 1.0  # spectral norm of sigma_x
        for t, p, quad in rows:
            assert abs(p - quad) <= 10 * t**4 * hnorm**4

    def test_malformed_hamiltonian_names_field(self, capsys):
        code, _, err = run_cli(
            ["survival", "--hamiltonian", "no_such_file.json", "--state", "e1",
             "--t-max", "1"],
            capsys,
        )
        assert code == 2
        assert "--hamiltonian" in err

    def test_json_matrix_input(self, capsys, tmp_path):
        path = tmp_path / "H.json"
        jsonio.save_matrix(path, SIGMA_X)
        code, out, _ = run_cli(
            ["survival", "--hamiltonian", str(path), "--state", "e1",
             "--t-max", "1", "--samples", "5"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(rows[-1][1] - math.cos(1.0) ** 2) <= 1e-12


class TestZenoTime:
    def test_transverse_qubit(self, capsys):
        code, out, _ = run_cli(
            ["zeno-time", "--hamiltonian", "qubit:0,1,1,0", "--state", "e1"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        var, tau = rows[0]
        assert abs(var - 2.0) <= 1e-12
        assert abs(tau - 1 / math.sqrt(2)) <= 1e-12

    def test_eigenstate_reports_infinite(self, capsys):
        code, out, _ = run_cli(
            ["zeno-time", "--hamiltonian", "sigma_z", "--state", "e1"],
            capsys,
        )
        assert code == 0
        assert "inf" in out

    def test_malformed_state_spec_outranks_a_bad_hamiltonian_matrix(self, spec_files, capsys):
        # The parsers reject malformed specs only, and the matrix is
        # checked later, by variance.
        argv = ["zeno-time", "--hamiltonian", spec_files["@non_hermitian"], "--state", "e9"]
        assert assert_clean_usage_error(argv, "--state", capsys) == "--state"


class TestConverge:
    def test_rank_one_preset_final_error_and_slope(self, capsys):
        code, out, _ = run_cli(
            ["converge", "--hamiltonian", "sigma_x", "--projector", "e1",
             "--t", "1", "--n-max", "1024"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["N", "error_spectral", "error_frobenius"]
        assert rows[0][0] == 8 and rows[-1][0] == 1024
        analytic = abs(math.cos(1.0 / 1024) ** 1024 - 1.0)
        assert abs(rows[-1][1] - analytic) <= 1e-12
        (slope_line,) = [l for l in trailer_lines(out) if "slope" in l]
        slope = float(slope_line.split()[-1])
        assert -1.2 <= slope <= -0.8

    def test_commuting_preset_is_exact(self, capsys):
        code, out, _ = run_cli(
            ["converge", "--hamiltonian", "sigma_z", "--projector", "e1",
             "--t", "1", "--n-max", "64"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(err <= 1e-12 for _, err, _ in rows)
        (slope_line,) = [l for l in trailer_lines(out) if "slope" in l]
        assert slope_line.split()[-1] == "exact"

    @pytest.mark.parametrize(
        "args",
        [
            ["random:6", "--projector", "identity", "--n-max", "65536"],
            ["qubit:0.3,0,0,2.7", "--projector", "e1", "--t", "5", "--n-max", "1048576"],
        ],
    )
    def test_invariant_subspace_is_exact_despite_roundoff_growth(self, args, capsys):
        # [H, P] = 0: V_N equals the limit, and the powered roundoff that
        # grows with N is no convergence slope.
        code, out, _ = run_cli(["converge", "--hamiltonian", *args], capsys)
        assert code == 0
        assert trailer_lines(out) == ["# slope exact"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("hamiltonian,label", [("sigma_x", "nan"), ("sigma_z", "exact")])
    def test_single_rung_slope_label(self, hamiltonian, label, fmt, capsys):
        # One rung gives no slope: nan, unless the error sits at roundoff.
        code, out, _ = run_cli(
            ["converge", "--hamiltonian", hamiltonian, "--projector", "e1",
             "--t", "1", "--n-max", "8", "--format", fmt],
            capsys,
        )
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["slope"] == label
        else:
            assert trailer_lines(out) == [f"# slope {label}"]

    def test_seeded_random_runs_are_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["converge", "--hamiltonian", "random:6", "--projector", "random:2",
                "--t", "1", "--n-max", "64", "--seed", "7"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_non_projector_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "P.json"
        jsonio.save_matrix(path, 0.5 * np.eye(2))
        code, _, err = run_cli(
            ["converge", "--hamiltonian", "sigma_x", "--projector", str(path),
             "--t", "1", "--n-max", "64"],
            capsys,
        )
        assert code == 2
        assert "idempotent" in err or "--projector" in err

    def test_scans_every_projector_that_parses(self, capsys, tmp_path):
        # |q><q| + 5e-11 |w><w| passes the --projector check; a state made up
        # from it missed the 1e-10 preparation check by 4e-10.
        n = 64
        q = np.full(n, 1.0 / math.sqrt(n))
        w = np.eye(n)[0] - q[0] * q
        w /= np.linalg.norm(w)
        path = tmp_path / "P.json"
        jsonio.save_matrix(path, np.outer(q, q) + 5e-11 * np.outer(w, w))
        code, out, err = run_cli(
            ["converge", "--hamiltonian", "random:64", "--projector", str(path), "--n-max", "8"], capsys
        )
        assert (code, err) == (0, "")
        assert len(parse_csv(out)[1]) == 1

    def test_projector_rank_is_its_rounded_trace(self, capsys, tmp_path):
        # |P^2 - P|_F = 8.7e-11 passes the idempotence check, and the rank
        # is the rounded trace, 3 + 1.5e-10.
        path = tmp_path / "P.json"
        jsonio.save_matrix(path, np.diag([1 + 5e-11, 1 + 5e-11, 1 + 5e-11, 0.0]))
        code, out, err = run_cli(
            ["converge", "--hamiltonian", "random:4", "--projector", str(path), "--n-max", "8"], capsys
        )
        assert (code, err) == (0, "")
        assert len(parse_csv(out)[1]) == 1

    def test_zero_projector_file_names_its_flag(self, capsys, tmp_path):
        path = tmp_path / "P.json"
        jsonio.save_matrix(path, np.zeros((2, 2)))
        code, _, err = run_clean(
            ["converge", "--hamiltonian", "sigma_x", "--projector", str(path), "--n-max", "8"], capsys
        )
        assert code == 2
        assert err == "error: --projector: projector trace 0.0 is not an integer rank in [1, n]\n"

    @pytest.mark.parametrize(
        "args", [["sigma_x", "--projector", "e1"], ["random:6", "--projector", "random:2", "--seed", "7"]]
    )
    def test_largest_n_max_gives_a_clean_slope(self, args, capsys):
        # At N = 2^20 the error keeps a few correct digits, enough for the slope.
        code, out, _ = run_cli(["converge", "--hamiltonian", *args, "--n-max", "1048576"], capsys)
        assert code == 0
        (slope_line,) = trailer_lines(out)
        assert -1.01 <= float(slope_line.split()[-1]) <= -0.99

    def test_checks_the_projector_once(self, record_calls, capsys):
        checked = record_calls(linalg.require_projector)
        argv = ["converge", "--hamiltonian", "random:6", "--projector", "random:2", "--n-max", "8"]
        assert run_cli(argv, capsys)[0] == 0
        assert len(checked) == 1

    def test_checks_the_hamiltonian_once(self, record_calls, capsys):
        # Once as H, once as P inside require_projector.
        checked = record_calls(linalg.require_hermitian)
        argv = ["converge", "--hamiltonian", "random:6", "--projector", "random:2", "--n-max", "8"]
        assert run_cli(argv, capsys)[0] == 0
        assert len(checked) == 2

    @pytest.mark.parametrize("projector", ["e1", "@non_projector"])
    def test_non_hermitian_hamiltonian_file_names_its_flag(self, projector, spec_files, capsys):
        # ZenoSetup checks H, then P; on failure each is checked again, in
        # flag order, and the first that fails names the flag.
        argv = ["converge", "--hamiltonian", spec_files["@non_hermitian"],
                "--projector", spec_files.get(projector, projector), "--n-max", "8"]
        assert assert_clean_usage_error(argv, "--hamiltonian", capsys) == "--hamiltonian"

    def test_bad_n_max_rejected(self, capsys):
        code, _, err = run_cli(
            ["converge", "--hamiltonian", "sigma_x", "--projector", "e1",
             "--t", "1", "--n-max", "100"],
            capsys,
        )
        assert code == 2
        assert "--n-max" in err


class TestFlow:
    def test_north_pole_constant(self, capsys):
        code, out, _ = run_cli(
            ["flow", "--h0", "0.2", "--hx", "1", "--hz", "0.8",
             "--start", "north", "--t", "3", "--samples", "10"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for _, u, x, y, z in rows:
            assert (u, x, y, z) == (1.0, 0.0, 0.0, 1.0)

    def test_equator_half_period_reverses_x(self, capsys):
        # Rate h0 + hz = 1: period 2*pi, so x(pi) = -x(0).
        code, out, _ = run_cli(
            ["flow", "--h0", "0", "--hz", "1", "--start", "equator",
             "--t", str(math.pi), "--samples", "8"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(rows[-1][2] + rows[0][2]) <= 1e-6  # x reversed
        assert abs(rows[-1][3]) <= 1e-6  # y back to zero

    def test_zero_rate_constant(self, capsys):
        code, out, _ = run_cli(
            ["flow", "--h0", "1", "--hz", "-1", "--start", "equator",
             "--t", "2", "--samples", "5"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for _, u, x, y, z in rows:
            assert (u, x, y, z) == (1.0, 1.0, 0.0, 0.0)

    def test_conserved_summary_line(self, capsys):
        code, out, _ = run_cli(
            ["flow", "--hz", "1", "--start", "equator", "--t", "1"],
            capsys,
        )
        assert code == 0
        (line,) = [l for l in trailer_lines(out) if "conserved" in l]
        assert "u_drift" in line and "z_drift" in line

    def test_long_flow_conserves_u_and_z_exactly(self, capsys):
        code, out, _ = run_cli(
            ["flow", "--hz", "1", "--start", "equator", "--t", "1000", "--samples", "200"],
            capsys,
        )
        assert code == 0
        assert len(parse_csv(out)[1]) == 201
        assert trailer_lines(out) == ["# conserved u_drift 0.000e+00 z_drift 0.000e+00"]

    def test_constraint_violation_exits_2(self, capsys):
        code, _, err = run_cli(
            ["flow", "--hz", "1", "--start", "1,1,1,1", "--t", "1"],
            capsys,
        )
        assert code == 2
        assert "--start" in err

    def test_checks_the_start_once(self, record_calls, capsys):
        # In integrate_zeno_flow; the parser returns the point unchecked.
        checked = record_calls(qubit.require_on_sphere)
        assert run_cli(["flow", "--hz", "1", "--start", "1,0,0,1", "--t", "1"], capsys)[0] == 0
        assert checked == [qubit.BlochPoint(1.0, 0.0, 0.0, 1.0)]

    @pytest.mark.parametrize(
        "argv,flag",
        [(["--hz=1", "--samples=0"], "--samples"), (["--h0=1e308", "--hz=1e308"], "--h0/--hz")],
    )
    def test_bad_samples_or_rate_outranks_an_off_sphere_start(self, argv, flag, capsys):
        # The start is checked where the flow uses it, after --samples and
        # the rate h0 + hz.
        code, _, err = run_clean(["flow", *argv, "--start", "1,1,1,1", "--t", "1"], capsys)
        assert code == 2
        assert charged_field(err) == flag

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["flow", "--hz", "1", "--start", "north", "--t", "1",
             "--samples", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 4
        assert payload["rows"][0]["u"] == 1.0


def bracket_block(n):
    """Trials per brackets block: each stacked n x n complex matrix fits in
    BRACKET_BLOCK_BYTES."""
    return max(1, cli.BRACKET_BLOCK_BYTES // (16 * n * n))


class TestBrackets:
    def test_seeded_run_passes(self, capsys):
        code, out, _ = run_cli(
            ["brackets", "--n", "2", "--trials", "100", "--seed", "1"],
            capsys,
        )
        assert code == 0
        devs = [float(l.split()[-1]) for l in out.splitlines() if "deviation" in l]
        assert devs and max(devs) <= 1e-9

    def test_scalars_commute(self, capsys):
        code, out, _ = run_cli(
            ["brackets", "--n", "1", "--trials", "50", "--seed", "3"],
            capsys,
        )
        assert code == 0
        (poisson_line,) = [l for l in out.splitlines() if "poisson" in l]
        assert float(poisson_line.split()[-1]) <= 1e-15

    def test_byte_identical_reports(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        args = ["brackets", "--n", "3", "--trials", "40", "--seed", "11"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            ["brackets", "--n", "2", "--trials", "10", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True

    @staticmethod
    def deviations(n, trials, seed):
        """(poisson, jordan) deviation of each trial, one trial at a time
        through the public 1-D bracket functions."""
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            A = cli._random_hermitian(rng, n)
            B = cli._random_hermitian(rng, n)
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi /= math.sqrt(linalg.norm_sq(psi))
            fA, fB = geometry.QuadraticFunction(A), geometry.QuadraticFunction(B)
            comm = 1j * (A @ B - B @ A)
            anti = 0.5 * (A @ B + B @ A)
            dp = abs(geometry.poisson_bracket(fA, fB, psi) - linalg.expectation_value(comm, psi))
            dj = abs(geometry.jordan_bracket(fA, fB, psi) - linalg.expectation_value(anti, psi))
            yield dp, dj

    def test_blocks_of_the_documented_size(self):
        assert [bracket_block(n) for n in (1, 2, 16)] == [2048, 512, 8]

    # Around each block edge: a block short of full, one full block, one
    # trial into the next, and past two blocks (within --trials' bound).
    BLOCK_EDGES = [
        (n, trials, 20 + n)
        for n in (1, 2, 16)
        for k in [bracket_block(n)]
        for trials in (k - 1, k, k + 1, 2 * k + 1)
        if trials <= cli.TRIALS_MAX
    ]

    def test_report_matches_the_per_bracket_functions(self, capsys):
        for n, trials, seed in [(5, 60, 13), (16, 50, 17)] + self.BLOCK_EDGES:
            max_poisson = max_jordan = 0.0
            for dp, dj in self.deviations(n, trials, seed):
                max_poisson, max_jordan = max(max_poisson, dp), max(max_jordan, dj)
            code, out, _ = run_cli(
                ["brackets", "--n", str(n), "--trials", str(trials), "--seed", str(seed)],
                capsys,
            )
            assert code == 0
            assert out.splitlines()[1:3] == [
                f"max poisson deviation {cli._fmt(max_poisson)}",
                f"max jordan deviation {cli._fmt(max_jordan)}",
            ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fail_report(self, fmt, monkeypatch, capsys):
        # Every deviation exceeds a zero tolerance.
        monkeypatch.setattr(cli, "BRACKET_TOL", 0.0)
        code, out, err = run_cli(
            ["brackets", "--n", "4", "--trials", "5", "--seed", "1", "--format", fmt], capsys
        )
        assert (code, err) == (1, "")
        if fmt == "json":
            assert json.loads(out)["pass"] is False
        else:
            assert out.splitlines()[-1].startswith("FAIL (tolerance 0); worst: trial 4 poisson deviation ")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fail_report_names_a_worst_trial_past_the_first_block(self, fmt, monkeypatch, capsys):
        n, trials, seed = 16, 40, 2
        devs = [d for pair in self.deviations(n, trials, seed) for d in pair]
        # The first largest deviation, in trial order and poisson first.
        i = devs.index(max(devs))
        trial, kind = i // 2, ("poisson", "jordan")[i % 2]
        assert trial >= bracket_block(n)
        monkeypatch.setattr(cli, "BRACKET_TOL", 0.0)
        code, out, err = run_cli(
            ["brackets", "--n", str(n), "--trials", str(trials), "--seed", str(seed), "--format", fmt],
            capsys,
        )
        assert (code, err) == (1, "")
        if fmt == "json":
            payload = json.loads(out)
            assert payload["pass"] is False
            assert max(payload["max_poisson_deviation"], payload["max_jordan_deviation"]) == devs[i]
        else:
            assert out.splitlines()[-1] == (
                f"FAIL (tolerance 0); worst: trial {trial} {kind} deviation {cli._fmt(devs[i])}"
            )

    def test_peak_memory_does_not_grow_with_trials(self, capsys):
        # Blocks of a fixed size keep the peak at a few trials' worth.
        def peak(trials):
            tracemalloc.start()
            try:
                assert cli.main(["brackets", "--n", "16", "--trials", str(trials)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the parser and every import, before any measurement
        small, large = peak(300), peak(3000)
        capsys.readouterr()
        assert large <= 1.1 * small, (small, large)

    def test_never_checks_the_matrices_it_builds(self, record_calls, capsys):
        # A and B are Hermitian by construction: none of the 2 x 40
        # matrices is checked.
        checked = record_calls(linalg.require_hermitian)
        assert run_cli(["brackets", "--n", "3", "--trials", "40"], capsys)[0] == 0
        assert checked == []


class TestFreeze:
    def test_unit_rate_half_period(self, capsys):
        code, out, _ = run_cli(
            ["freeze", "--hz", "1", "--t", str(math.pi)],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        t, survival, re, im = rows[0]
        assert abs(survival - 1.0) <= 1e-12
        assert abs(re + 1.0) <= 1e-10 and abs(im) <= 1e-10

    def test_zero_rate(self, capsys):
        code, out, _ = run_cli(
            ["freeze", "--h0", "1", "--hz", "-1", "--t", "4"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(rows[0][2] - 1.0) <= 1e-12

    def test_checks_the_field_once(self, record_calls, capsys):
        # The field once, for --h0/--hx/--hy/--hz; the limit then uses that
        # checked H, and neither H, PHP nor the constant PROJECTOR_UP is
        # checked again.
        checked = record_calls(linalg.require_hermitian)
        assert run_cli(["freeze", "--hx", "0.5", "--hz", "1", "--t", "2"], capsys)[0] == 0
        assert len(checked) == 1

    def test_calls_the_public_frozen_state_check(self, record_calls, capsys):
        called = record_calls(qubit.frozen_state_check)
        assert run_cli(["freeze", "--hx", "0.5", "--hz", "1", "--t", "2"], capsys)[0] == 0
        assert called == [qubit.QubitHamiltonian(0.0, 0.5, 0.0, 1.0)]


@pytest.mark.parametrize(
    "argv,count",
    [
        # In variance, then in survival_probability or zeno_time: no parser
        # checks a matrix.
        (["survival", "--hamiltonian", "random:6", "--state", "random", "--t-max", "1", "--samples", "5"], 2),
        (["zeno-time", "--hamiltonian", "random:6", "--state", "random"], 2),
        (["flow", "--hz", "1", "--start", "equator", "--t", "1"], 0),
    ],
)
def test_hermiticity_checks_per_command(argv, count, record_calls, capsys):
    checked = record_calls(linalg.require_hermitian)
    assert run_cli(argv, capsys)[0] == 0
    assert len(checked) == count


def test_cli_reads_no_private_library_name():
    """cli reaches zenogeo through public names only, so that every outside
    input meets the check of the public call that uses it; a private
    unchecked twin of a public function would skip that check.

    geometry._differential is allowed: brackets applies it to stacks of
    matrices that it draws Hermitian by construction, not to outside input.
    """
    allowed = {("geometry", "_differential")}
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names = [a.name for a in node.names]
            assert not [n for n in names if n.startswith("_")], names
            modules.update(names if node.module is None else [node.module])
    assert {"linalg", "qubit", "zeno"} <= modules
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    }
    assert used <= allowed, used - allowed


def per_cell_csv(header, rows, trailer):
    """The table rendered one cell at a time: the oracle of _render_csv."""
    lines = [",".join(header)]
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    lines += [f"# {t}" for t in trailer]
    return "\n".join(lines) + "\n"


#: Doubles from random bit patterns, with the special values and
#: subnormals, and ints up to 2**63: what tables hold.
csv_values = (
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
    | st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308])
    | st.integers(-(2**63), 2**63)
    | st.floats(width=64).map(np.float64)
)


class TestRenderCsv:
    @given(
        st.integers(1, 5).flatmap(
            lambda width: st.tuples(
                st.lists(st.text("abc_", min_size=1, max_size=4), min_size=width, max_size=width),
                st.lists(st.lists(csv_values, min_size=width, max_size=width), max_size=6),
            )
        ),
        st.lists(st.text(max_size=12), max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_format_is_the_per_cell_format(self, table, trailer):
        header, rows = table
        assert cli._render_csv(header, rows, trailer) == per_cell_csv(header, rows, trailer)

    def test_no_rows(self):
        assert cli._render_csv(["a", "b"], [], ["slope exact"]) == "a,b\n# slope exact\n"


class TestParserReuse:
    def test_one_parser_tree_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["freeze", "--t", "1"], ["brackets", "--trials", "2"], ["freeze", "--t", "2"]):
            assert cli.main(argv) == 0
        capsys.readouterr()
        # One root parser and six sub-parsers; a tree per call would be 21.
        assert len(built) == 7
        assert cli.build_parser() is cli.build_parser()


def nested_main(argv):
    """The nested dispatch, the oracle of main's: the root parser parses the
    whole argv, and its subparsers action passes the rest on to the
    command's parser; errors are reported as main reports them."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except cli.CliInputError as exc:
        print(f"error: {exc.field}: {exc.message}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# Tokens of the dispatch property: every flag of every command, in both the
# "--f v" and the "--f=v" form, abbreviations (--h is ambiguous in every
# command but brackets), and values kept tiny, so that a run that parses
# stays cheap.
DISPATCH_COMMANDS = ["survival", "zeno-time", "converge", "flow", "brackets", "freeze", "bogus"]
DISPATCH_FLAGS = [
    "--format", "--out", "--seed", "--h0", "--hx", "--hy", "--hz", "--hamiltonian", "--state",
    "--t-max", "--samples", "--projector", "--t", "--n-max", "--start", "--n", "--trials", "--help",
]
DISPATCH_VALUES = ["1", "2", "8", "-1", "inf", "nan", "csv", "json", "sigma_x", "e1", "equator", "x"]
DISPATCH_LOOSE = ["--he", "--h", "--form", "--sam", "-h", "--", "-", "=", "-1", "inf", "nan", "x", "e1"]
dispatch_items = st.one_of(
    st.builds(lambda f, v: [f, v], st.sampled_from(DISPATCH_FLAGS), st.sampled_from(DISPATCH_VALUES)),
    st.builds("{}={}".format, st.sampled_from(DISPATCH_FLAGS), st.sampled_from(DISPATCH_VALUES)).map(
        lambda tok: [tok]
    ),
    st.sampled_from(DISPATCH_COMMANDS + DISPATCH_LOOSE).map(lambda tok: [tok]),
)
DISPATCH_ARGVS = st.builds(
    lambda head, items: head + [tok for item in items for tok in item],
    st.sampled_from(DISPATCH_COMMANDS).map(lambda c: [c]) | st.just([]),
    st.lists(dispatch_items, max_size=6),
)


class TestDispatch:
    @pytest.fixture(autouse=True)
    def in_temporary_folder(self, tmp_path, monkeypatch):
        # A drawn --out writes its file here; a fixed width keeps help text
        # independent of the terminal.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")

    def assert_as_nested(self, argv, capsys):
        got = run_cli(argv, capsys)
        want = (nested_main(argv), *capsys.readouterr())
        assert got == want
        return got

    @given(argv=DISPATCH_ARGVS)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_argv_as_nested(self, argv, capsys):
        self.assert_as_nested(argv, capsys)

    @pytest.mark.parametrize(
        "argv,code,out_start,err_start,err_end",
        [
            ([], 2, "", "usage: zenogeo [-h]", "zenogeo: error: the following arguments are required: command\n"),
            (["freeze"], 2, "", "usage: zenogeo freeze [-h]", "error: the following arguments are required: --t\n"),
            # Left over by freeze's parser, refused by the root's.
            (["freeze", "--t", "1", "x"], 2, "", "usage: zenogeo [-h]", "zenogeo: error: unrecognized arguments: x\n"),
            (["freeze", "--t", "1", "--bogus"], 2, "", "usage: zenogeo [-h]",
             "zenogeo: error: unrecognized arguments: --bogus\n"),
            (["freeze", "-h"], 0, "usage: zenogeo freeze [-h]", "", ""),
            (["--he"], 0, "usage: zenogeo [-h]", "", ""),
        ],
    )
    def test_hand_picked_argv_as_nested(self, argv, code, out_start, err_start, err_end, capsys):
        got_code, out, err = self.assert_as_nested(argv, capsys)
        assert got_code == code
        assert out.startswith(out_start)
        assert err.startswith(err_start) and err.endswith(err_end)

    @pytest.mark.parametrize(
        "argv,code",
        [(["freeze", "--hz", "1", "--t", "2"], 0), (["freeze", "--t", "inf"], 2), (["--help"], 0), (["bogus"], 2)],
    )
    def test_sys_argv_as_in_process(self, argv, code, capsys):
        """python -m zenogeo.cli reads its argv from sys.argv and prints what
        main(argv) prints in process."""
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
        proc = subprocess.run(
            [sys.executable, "-m", "zenogeo.cli", *argv], capture_output=True, env=env, timeout=60
        )
        got_code, out, err = run_cli(argv, capsys)
        assert proc.returncode == got_code == code
        assert proc.stdout == out.encode()
        assert proc.stderr == err.encode()
        assert b"Traceback" not in proc.stderr


NUMERIC_BASE = {
    "survival": ["survival", "--hamiltonian", "sigma_x", "--state", "e1", "--t-max=1"],
    "converge": ["converge", "--hamiltonian", "sigma_x", "--projector", "e1", "--n-max", "8"],
    "flow": ["flow", "--start", "equator", "--t=1"],
    "freeze": ["freeze", "--t=1"],
}
NUMERIC_FLAGS = [
    ("survival", "--t-max"),
    ("converge", "--t"),
    *[(cmd, flag) for cmd in ("flow", "freeze") for flag in ("--t", "--h0", "--hx", "--hy", "--hz")],
]
NUMERIC_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e150, -1e200,
    1e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


def run_clean(argv, capsys):
    """run_cli, asserting no traceback on stderr and no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out, err


def charged_field(err):
    """What the last stderr line blames: FIELD in "error: FIELD: message",
    or in argparse's "error: argument FIELD: message"."""
    line = err.strip().splitlines()[-1]
    return line.split("error: ", 1)[-1].removeprefix("argument ").split(": ", 1)[0]


def assert_clean_usage_error(argv, flag, capsys):
    """run_clean with exit 2 and the error charged to flag; returns the field."""
    code, _, err = run_clean(argv, capsys)
    assert code == 2
    field = charged_field(err)
    assert flag in field, err
    return field


def assert_clean_exit(argv, capsys):
    """run_clean with exit 0 or 2: at 2 the error is charged to a flag of
    argv, at 0 survival, flow and freeze print no nan."""
    code, out, err = run_clean(argv, capsys)
    assert code in (0, 2)
    if code == 2:
        field = charged_field(err)
        assert any(a.split("=")[0] in field for a in argv if a.startswith("--")), err
    elif argv[0] in ("survival", "flow", "freeze"):
        assert "nan" not in out
    return code, out


class TestFiniteNumbers:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command,flag", NUMERIC_FLAGS)
    def test_non_finite_value_names_the_flag(self, command, flag, value, capsys):
        # The later --flag=value overrides any default in the base argv.
        assert_clean_usage_error(NUMERIC_BASE[command] + [f"{flag}={value}"], flag, capsys)

    @pytest.mark.parametrize("value", ["1e200", "-1e200", "1e308", "-1e308"])
    @pytest.mark.parametrize("command,flag", NUMERIC_FLAGS)
    def test_huge_value_exits_cleanly(self, command, flag, value, capsys):
        assert_clean_exit(NUMERIC_BASE[command] + [f"{flag}={value}"], capsys)

    def test_step_count_overflow_names_t(self, capsys):
        argv = ["flow", "--hz", "1e300", "--start", "equator", "--t", "1e300"]
        assert_clean_usage_error(argv, "--t", capsys)

    def test_huge_t_max_gives_infinite_quadratic_approx(self, capsys):
        argv = ["survival", "--hamiltonian", "sigma_x", "--state", "e1", "--t-max", "1e200", "--samples", "3"]
        code, out = assert_clean_exit(argv, capsys)
        assert code == 0
        assert [quad for _, _, quad in parse_csv(out)[1]] == [1.0, -math.inf, -math.inf]

    def test_huge_t_max_on_random_hamiltonian_exits_cleanly(self, capsys):
        argv = ["survival", "--hamiltonian", "random:3", "--state", "random", "--t-max", "1e308", "--samples", "2"]
        assert_clean_exit(argv, capsys)

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["survival", "--hamiltonian", "qubit:0,0,0,2", "--state", "plus", "--t-max", "1e308"], "--t-max"),
            (["converge", "--hamiltonian", "qubit:0,1,0,2", "--projector", "e1", "--t", "1e308",
              "--n-max", "8"], "--t"),
            (["freeze", "--hz=2", "--t=1e308"], "--t"),
            # The limit PHP = 0 has no phase; the first step has |E| t / 8 = 2e308.
            (["converge", "--hamiltonian", "qubit:0,16,0,0", "--projector", "e1", "--t", "1e308",
              "--n-max", "8"], "--t"),
        ],
    )
    def test_phase_overflow_names_the_time_flag(self, argv, flag, capsys):
        # |E| t = 2e308 overflows although each number is finite.
        assert_clean_usage_error(argv, flag, capsys)

    @given(
        case=st.sampled_from(NUMERIC_FLAGS),
        value=st.floats() | st.sampled_from(NUMERIC_EDGES),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_number_exits_cleanly(self, case, value, capsys):
        # Finite, huge, subnormal, signed zero, nan and inf values on the
        # small base argv of each command.
        command, flag = case
        assert_clean_exit(NUMERIC_BASE[command] + [f"{flag}={value!r}"], capsys)

    @pytest.mark.parametrize(
        "argv", ["--hz=1e300 --start equator --t=1 --samples 2", "--hz 1 --start equator --t 1e6 --samples 200"]
    )
    def test_large_angle_flow_stays_on_the_circle(self, argv, capsys):
        code, out = assert_clean_exit(["flow", *argv.split()], capsys)
        assert code == 0
        radii = np.array([math.hypot(x, y) for _, _, x, y, _ in parse_csv(out)[1]])
        assert np.max(np.abs(radii - 1.0)) <= 4 * np.spacing(1.0)
        assert trailer_lines(out) == ["# conserved u_drift 0.000e+00 z_drift 0.000e+00"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli.main(["survival", "--state", "e1", "--t-max", "1"]) == 2
        capsys.readouterr()

    def test_random_dimension_budget(self, capsys):
        # Just past the bound: a draw that slipped through would take 16 MB.
        code, _, err = run_clean(["zeno-time", "--hamiltonian", "random:1025", "--state", "e1"], capsys)
        assert code == 2
        assert err.strip() == "error: --hamiltonian: random dimension must be <= 1024, got 1025"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["flow", "--hz", "1", "--start", "equator", "--t", "1", "--samples", "100001"],
             "--samples: must be in 1..100000, got 100001"),
            (["survival", "--hamiltonian", "sigma_x", "--state", "e1", "--t-max", "1", "--samples", "100001"],
             "--samples: must be <= 100000, got 100001"),
            (["survival", "--hamiltonian", "random:1024", "--state", "e1", "--t-max", "1", "--samples", "10001"],
             "--samples: dimension x samples = 1024 x 10001 exceeds 10240000"),
            (["brackets", "--n", "16", "--trials", "3001"], "--trials: must be in 1..3000, got 3001"),
            (["brackets", "--n", "17", "--trials", "1"], "--n: dimension must be in 1..16, got 17"),
        ],
    )
    def test_work_budget(self, argv, message, capsys):
        # Just past each bound: a run that slipped through would take 1-3 s.
        code, _, err = run_clean(argv, capsys)
        assert code == 2
        assert err.strip() == f"error: {message}"

    @pytest.mark.parametrize(
        "argv,flag",
        [(["--t-max", "0", "--samples", "100"], "--t-max"), (["--t-max", "1", "--samples", "1"], "--samples")],
    )
    def test_survival_charges_one_flag(self, argv, flag, capsys):
        code, _, err = run_clean(["survival", "--hamiltonian", "sigma_x", "--state", "e1", *argv], capsys)
        assert code == 2
        assert charged_field(err) == flag

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["zeno-time", "--hamiltonian", "sigma_x", "--state", "@dim3_state"],
             "--state: state has dim 3, Hamiltonian has 2"),
            (["converge", "--hamiltonian", "sigma_x", "--projector", "@dim3_non_hermitian", "--n-max", "8"],
             "--projector: projector has dim 3, Hamiltonian has 2"),
        ],
    )
    def test_file_of_another_dimension_names_its_flag(self, argv, message, spec_files, capsys):
        # The dimension is checked on load, before the matrix itself.
        code, _, err = run_clean([spec_files.get(a, a) for a in argv], capsys)
        assert code == 2
        assert err == f"error: {message}\n"

    def test_out_into_a_missing_folder_names_out(self, tmp_path, capsys):
        code, out, err = run_clean(["freeze", "--t", "1", "--out", str(tmp_path / "no" / "f.csv")], capsys)
        assert (code, out) == (2, "")
        assert charged_field(err) == "--out"

    def test_state_out_of_range(self, capsys):
        code, _, err = run_cli(
            ["survival", "--hamiltonian", "sigma_x", "--state", "e5", "--t-max", "1"],
            capsys,
        )
        assert code == 2
        assert "--state" in err


# The input-spec grammar of the CLI, with sizes kept tiny: dims <= 4,
# --samples <= 3, --n-max <= 16, --trials <= 2.
SPEC_NUMBERS = ["0", "1", "-1", "2.5", "1e300", "inf", "-inf", "nan", "x", ""]
four_numbers = st.lists(st.sampled_from(SPEC_NUMBERS), min_size=3, max_size=5).map(",".join)
basis_specs = st.integers(-1, 9).map("e{}".format) | st.sampled_from(["e", "e\u00b2", "e01"])
random_specs = st.integers(-2, 4).map("random:{}".format) | st.sampled_from(["random:", "random:x", "random:1.5"])
# "@name" stands for a file written by the spec_files fixture.
BAD_JSON_FILES = [
    "@dim_overflow", "@dim_infinity", "@dim_fraction", "@huge_entry",
    "@string_entry", "@bool_entry", "@null_entry", "@nested_entry", "@deep_nesting",
    "@ragged_parts", "@string_parts", "@dict_part", "@dim3_state", "@dim3_non_hermitian", "@bom",
]
hamiltonian_specs = (
    st.sampled_from(["sigma_x", "sigma_y", "sigma_z"]) | four_numbers.map("qubit:{}".format) | random_specs
    | st.sampled_from(["@non_hermitian", *BAD_JSON_FILES])
)
state_specs = basis_specs | st.sampled_from(["plus", "random", "@zero_state", "@nan_state", *BAD_JSON_FILES])
projector_specs = basis_specs | random_specs | st.sampled_from(["identity", "@non_projector", *BAD_JSON_FILES])
start_specs = st.sampled_from(["north", "south", "equator"]) | four_numbers
seeds = st.sampled_from(["-1", "0", "7"])
SPEC_ARGVS = st.one_of(
    st.builds(
        lambda h, s, n, seed: ["survival", "--hamiltonian", h, "--state", s, "--t-max", "1",
                               "--samples", n, "--seed", seed],
        hamiltonian_specs, state_specs, st.sampled_from(["2", "3"]), seeds,
    ),
    st.builds(
        lambda h, s, seed: ["zeno-time", "--hamiltonian", h, "--state", s, "--seed", seed],
        hamiltonian_specs, state_specs, seeds,
    ),
    st.builds(
        lambda h, p, n, seed: ["converge", "--hamiltonian", h, "--projector", p, "--n-max", n,
                               "--seed", seed],
        hamiltonian_specs, projector_specs, st.sampled_from(["8", "16"]), seeds,
    ),
    st.builds(
        lambda s, n: ["flow", "--hz", "1", "--start", s, "--t", "1", "--samples", n],
        start_specs, st.sampled_from(["1", "2", "3"]),
    ),
    st.builds(
        lambda n, trials, seed: ["brackets", "--n", n, "--trials", trials, "--seed", seed],
        st.sampled_from(["1", "2", "4"]), st.sampled_from(["1", "2"]), seeds,
    ),
)


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("specs")
    payloads = {
        "@zero_state": jsonio.state_to_dict(np.zeros(2)),
        "@nan_state": {"dim": 2, "re": [math.nan, 0.0], "im": [0.0, 0.0]},
        "@non_projector": jsonio.matrix_to_dict(0.5 * np.eye(2)),
        "@non_hermitian": jsonio.matrix_to_dict(np.array([[0.0, 1.0], [0.0, 0.0]])),
        # JSON text, as json.dumps writes neither 1e400 nor a 400-digit entry.
        "@dim_overflow": '{"dim": 1e400, "re": [1, 0], "im": [0, 0]}',
        "@dim_infinity": '{"dim": Infinity, "re": [1, 0], "im": [0, 0]}',
        "@dim_fraction": '{"dim": 2.7, "re": [1, 0], "im": [0, 0]}',
        "@huge_entry": '{"dim": 2, "re": [1%s, 0], "im": [0, 0]}' % ("0" * 400),
        # Entries that are not JSON numbers.
        "@string_entry": '{"dim": 2, "re": ["1", "0"], "im": [0, 0]}',
        "@bool_entry": '{"dim": 2, "re": [true, 0], "im": [0, 0]}',
        "@null_entry": '{"dim": 2, "re": [1, 0], "im": [null, 0]}',
        "@nested_entry": '{"dim": 2, "re": [[1], [0]], "im": [0, 0]}',
        # Past json's recursion limit.
        "@deep_nesting": "[" * 5000 + "]" * 5000,
        "@ragged_parts": '{"dim": 2, "re": [1, 0], "im": [0]}',
        # Parts that are not lists: strings, which numpy would read, and a
        # dict, whose keys the entry scan would see.
        "@string_parts": '{"dim": 2, "re": "", "im": ""}',
        "@dict_part": '{"dim": 1, "re": {"a": 1}, "im": [0]}',
        # Of dimension 3, against the 2 of sigma_x: a state, and a matrix
        # that is neither a Hamiltonian nor a projector.
        "@dim3_state": jsonio.state_to_dict(np.ones(3)),
        "@dim3_non_hermitian": jsonio.matrix_to_dict(np.diag([1.0, 1.0], k=1)),
        # A UTF-8 byte order mark, which JSON text may not start with.
        "@bom": "\ufeff" + json.dumps(jsonio.matrix_to_dict(np.eye(2))),
    }
    paths = {}
    for name, payload in payloads.items():
        path = folder / f"{name[1:]}.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestSpecFuzz:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["survival", "--hamiltonian", "random:1", "--state", "plus", "--t-max", "1"], "--state"),
            (["zeno-time", "--hamiltonian", "qubit:inf,1,0,0", "--state", "e1"], "--hamiltonian"),
            (["flow", "--hz", "1", "--start", "1,nan,0,0", "--t", "1"], "--start"),
            (["flow", "--hz", "1", "--start", "inf,inf,0,0", "--t", "1"], "--start"),
            (["flow", "--hz=1", "--start", "1e300,2.5,1,-1", "--t=1"], "--start"),
            (["brackets", "--seed", "-1"], "--seed"),
            # Operator scale: n max|H_ij| above 1e150, or an overflowing entry.
            (["zeno-time", "--hamiltonian", "qubit:0,1e300,0,1e300", "--state", "random"], "--hamiltonian"),
            (["survival", "--hamiltonian", "qubit:0,1e300,0,1e300", "--state", "e1", "--t-max", "1",
              "--samples", "2"], "--hamiltonian"),
            (["zeno-time", "--hamiltonian", "qubit:1e308,0,0,1e308", "--state", "e1"], "--hamiltonian"),
            (["freeze", "--h0=1e308", "--hz=1e308", "--t=1"], "--h0"),
            # Work budget.
            (["converge", "--hamiltonian", "sigma_x", "--projector", "e1", "--n-max", "2097152"], "--n-max"),
            (["converge", "--hamiltonian", "sigma_x", "--projector", "e1", "--n-max",
              "4611686018427387904"], "--n-max"),
            # h0 + hz overflows; --t = 0 is not at fault.
            (["flow", "--h0=1e308", "--hz=1e308", "--start", "equator", "--t=0", "--samples", "1"], "--h0"),
        ],
    )
    def test_bad_spec_names_its_flag(self, argv, flag, capsys):
        field = assert_clean_usage_error(argv, flag, capsys)
        assert "--t" not in field

    @pytest.mark.parametrize("name", BAD_JSON_FILES)
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["zeno-time", "--hamiltonian", "@", "--state", "e1"], "--hamiltonian"),
            (["zeno-time", "--hamiltonian", "sigma_x", "--state", "@"], "--state"),
            (["converge", "--hamiltonian", "sigma_x", "--projector", "@", "--n-max", "8"], "--projector"),
        ],
    )
    def test_bad_json_file_names_its_flag(self, argv, flag, name, spec_files, capsys):
        assert_clean_usage_error([spec_files[name] if a == "@" else a for a in argv], flag, capsys)

    @pytest.mark.parametrize("name", ["@string_parts", "@dict_part"])
    def test_part_that_is_not_a_list_is_named(self, name, spec_files, capsys):
        # The field's own message, not numpy's or the entry scan's.
        code, _, err = run_clean(["zeno-time", "--hamiltonian", "sigma_x", "--state", spec_files[name]], capsys)
        assert code == 2
        assert "--state" in charged_field(err)
        assert "re and im must be flat lists of equal length" in err

    @given(argv=SPEC_ARGVS)
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_spec_exits_cleanly(self, argv, spec_files, capsys):
        assert_clean_exit([spec_files.get(a, a) for a in argv], capsys)
