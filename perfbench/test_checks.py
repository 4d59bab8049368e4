"""Fast tests of the benchmark's output checks.

Each check must accept the program's real output on a small case and
reject it once one row is perturbed.  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
import zenogeo  # noqa: E402


def cli_output(argv: list[str]) -> str:
    result = workloads.cli_op("test", argv, lambda out: None).run()
    assert result.code == 0, result.err
    return result.out


def perturb_csv(text: str, row: int, col: int, delta: float) -> str:
    """Add delta to one value; row 0 is the first data row."""
    lines = text.splitlines(keepends=True)
    values = lines[row + 1].rstrip("\n").split(",")
    values[col] = repr(float(values[col]) + delta)
    lines[row + 1] = ",".join(values) + "\n"
    return "".join(lines)


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


@pytest.fixture
def small(tmp_path):
    rng = np.random.default_rng(3)
    H = workloads.random_hermitian(rng, 6)
    psi = workloads.random_state(rng, 6)
    P = workloads.random_projector(rng, 6, 2)
    psi0 = P @ workloads.random_state(rng, 6)
    return {
        "H": H, "psi": psi, "P": P, "psi0": psi0 / np.linalg.norm(psi0),
        "files": ["--hamiltonian", workloads.write_json(tmp_path / "H.json", H),
                  "--state", workloads.write_json(tmp_path / "psi.json", psi)],
        "P_path": workloads.write_json(tmp_path / "P.json", P),
    }


def test_survival(small):
    ref = checks.survival_reference(small["H"], small["psi"], 3.0, 50)
    out = cli_output(["survival", *small["files"], "--t-max", "3.0", "--samples", "50"])
    checks.check_survival_csv(out, ref)
    assert rejects(checks.check_survival_csv, perturb_csv(out, 20, 1, 1e-8), ref)
    assert rejects(checks.check_survival_csv, perturb_csv(out, 0, 1, -1e-15), ref)
    assert rejects(checks.check_survival_csv, perturb_csv(out, 30, 2, 1e-6), ref)


def test_zeno_time_and_short_time_coefficient(small):
    ref = checks.survival_reference(small["H"], small["psi"], 1.0, 2)
    out = cli_output(["zeno-time", *small["files"]])
    checks.check_zeno_time_csv(out, ref)
    assert rejects(checks.check_zeno_time_csv, perturb_csv(out, 0, 0, 1e-8), ref)
    c = zenogeo.short_time_coefficient(small["psi"], small["H"])
    checks.check_short_time_coefficient(c, ref)
    assert rejects(checks.check_short_time_coefficient, c * (1 + 1e-5), ref)


def test_converge(small):
    ladder = [8 * 2**k for k in range(12)]
    ref = checks.ladder_reference(small["H"], small["P"], 1.0, ladder)
    out = cli_output(["converge", "--hamiltonian", small["files"][1], "--projector", small["P_path"],
                      "--t", "1.0", "--n-max", str(ladder[-1]), "--format", "json"])
    checks.check_converge_json(out, ref)
    for key, row, factor in (("error_spectral", 3, 1.01), ("error_frobenius", 5, 1 + 1e-6),
                             ("error_spectral", 11, 1.1), ("error_spectral", 0, 1 - 2e-4)):
        payload = json.loads(out)
        payload["rows"][row][key] *= factor
        assert rejects(checks.check_converge_json, json.dumps(payload), ref), (key, row)


def test_product_and_trajectory(small):
    setup = zenogeo.ZenoSetup(small["H"], small["P"], small["psi0"])
    ref = checks.product_reference(small["H"], small["P"], 1.0, 37)
    V = zenogeo.zeno_product(setup, 1.0, 37)
    checks.check_zeno_product(V, ref)
    V[2, 3] += 1e-9
    assert rejects(checks.check_zeno_product, V, ref)

    ref = checks.trajectory_reference(small["H"], small["P"], small["psi0"], 1.0, 64, 8)
    traj = zenogeo.measured_trajectory(setup, 1.0, 64, 8)
    checks.check_trajectory(traj, ref)
    traj.states[4] *= 1 + 1e-9
    assert rejects(checks.check_trajectory, traj, ref)


def test_flow():
    h0, hz, start, t = 0.3, 0.7, (1.0, 0.6, 0.0, 0.8), 50.0
    steps = workloads.flow_steps(h0 + hz, t, 100)
    out = cli_output(["flow", f"--h0={h0!r}", f"--hz={hz!r}", "--start=1.0,0.6,0.0,0.8",
                      f"--t={t!r}", "--samples=100"])
    checks.check_flow_csv(out, h0 + hz, start, t, 100, steps)
    # The RK4 bound at t = 50 is 2.5e-10; one row off by 1e-8 leaves it.
    assert rejects(checks.check_flow_csv, perturb_csv(out, 60, 2, 1e-8), h0 + hz, start, t, 100, steps)
    assert rejects(checks.check_flow_csv, perturb_csv(out, 60, 4, 1e-15), h0 + hz, start, t, 100, steps)


def test_freeze_and_brackets():
    out = cli_output(["freeze", "--h0=0.25", "--hx=0.5", "--hz=1.5", "--t=7.0"])
    checks.check_freeze_csv(out, 0.25, 1.5, 7.0)
    assert math.isclose(float(out.splitlines()[1].split(",")[1]), 1.0)
    assert rejects(checks.check_freeze_csv, perturb_csv(out, 0, 2, 1e-9), 0.25, 1.5, 7.0)

    out = cli_output(["brackets", "--n", "4", "--trials", "20", "--format", "json"])
    checks.check_brackets_json(out, 4, 20)
    payload = json.loads(out)
    payload["pass"] = False
    assert rejects(checks.check_brackets_json, json.dumps(payload), 4, 20)
