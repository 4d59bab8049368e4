"""Golden outputs of the README's command-line examples.

``tests/golden/<case>.<csv|json>`` holds what each example printed, in
both formats, before the propagator became spectral (``eigh``) and the
operator norm exact.  Exit code, CSV header and JSON keys, row counts and
every word must match exactly.  Numbers must agree within 1e-9 relative or
1e-11 absolute, except ``error_spectral`` and the fitted ``slope``: the
recorded norms came from power iteration, which stopped up to 1e-4
relative short of the exact operator norm.
"""
import contextlib
import io
import json
import math
import pathlib
import re

import pytest

from zenogeo import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

#: case -> (argv of the README example, exit code it returned)
CASES = {
    "survival": ("survival --hamiltonian sigma_x --state e1 --t-max 3.14 --samples 100", 0),
    "zeno-time": ("zeno-time --hamiltonian qubit:0,1,1,0 --state e1", 0),
    "converge-sigma-x": ("converge --hamiltonian sigma_x --projector e1 --t 1 --n-max 1024", 0),
    "converge-random": ("converge --hamiltonian random:6 --projector random:2 --t 1 --n-max 256 --seed 7", 0),
    "flow": ("flow --h0 0 --hz 1 --start equator --t 3.141592653589793 --samples 200", 0),
    "brackets": ("brackets --n 2 --trials 100 --seed 1", 0),
    "freeze": ("freeze --hz 1 --t 3.141592653589793", 0),
}
LOOSE = {"error_spectral", "slope"}
LOOSE_RTOL = 1e-4
RTOL, ATOL = 1e-9, 1e-11


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _same(got, want, name: str, where: str) -> None:
    """Numbers within tolerance (nan matches nan), everything else exact."""
    g, w = _number(str(got)), _number(str(want))
    if g is None or w is None:
        assert got == want, f"{where}: {got!r} != {want!r}"
    elif math.isnan(w) or math.isinf(w):
        assert str(g) == str(w), f"{where}: {got!r} != {want!r}"
    else:
        rtol = LOOSE_RTOL if name in LOOSE else RTOL
        assert abs(g - w) <= max(rtol * abs(w), ATOL), f"{where} ({name}): {got!r} != {want!r}"


def _compare_json(got, want, name: str, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _compare_json(got[key], want[key], key, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, name, f"{where}[{i}]")
    else:
        _same(got, want, name, where)


def _compare_text(got: str, want: str) -> None:
    """Line by line and token by token.  A token in a row as wide as the
    header is named by its column, any other by the token before it."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), "line count differs"
    header = re.split(r"[,\s]+", want_lines[0].strip())
    for k, (g_line, w_line) in enumerate(zip(got_lines, want_lines)):
        g_tok, w_tok = re.split(r"[,\s]+", g_line.strip()), re.split(r"[,\s]+", w_line.strip())
        assert len(g_tok) == len(w_tok), f"line {k}: token count differs"
        table_row = k > 0 and not w_line.startswith("#") and len(w_tok) == len(header)
        for j, (g, w) in enumerate(zip(g_tok, w_tok)):
            name = header[j] if table_row else (w_tok[j - 1] if j else "")
            _same(g, w, name, f"line {k} token {j}")


def test_cases_are_the_readme_examples():
    readme = (ROOT / "README.md").read_text()
    examples = {line[len("zenogeo "):] for line in readme.splitlines() if line.startswith("zenogeo ")}
    assert examples == {argv for argv, _ in CASES.values()}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden_output(case, fmt):
    argv, want_code = CASES[case]
    code, out = run(argv.split() + ["--format", fmt])
    assert code == want_code
    want = (GOLDEN / f"{case}.{fmt}").read_text()
    if fmt == "json":
        _compare_json(json.loads(out), json.loads(want), "", case)
    else:
        _compare_text(out, want)
