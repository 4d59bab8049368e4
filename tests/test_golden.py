"""Golden outputs of the README's command-line examples.

``tests/golden/<case>.<csv|json>`` holds what each example printed, in
both formats.  Exit code, CSV header and JSON keys, row counts and every
word must match exactly.  Every number must agree within 1e-9 relative or
1e-11 absolute.
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
        assert abs(g - w) <= max(RTOL * abs(w), ATOL), f"{where} ({name}): {got!r} != {want!r}"


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


def _check_golden(case: str, fmt: str, code: int, out: str) -> None:
    assert code == CASES[case][1]
    want = (GOLDEN / f"{case}.{fmt}").read_text()
    if fmt == "json":
        _compare_json(json.loads(out), json.loads(want), "", case)
    else:
        _compare_text(out, want)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden_output(case, fmt):
    argv, _ = CASES[case]
    code, out = run(argv.split() + ["--format", fmt])
    _check_golden(case, fmt, code, out)


def test_one_parser_serves_any_sequence_of_calls(tmp_path):
    """cli.main parses every call in a process with one parser, so no call
    may leave a flag, a default or an output path behind for the next.

    Every example runs forward and then in reverse order, alternately with
    --format json and with the default format, each after an interlude:
    argv rejected by argparse or by a handler, --help, --out PATH, and a
    --seed 5 call followed by one that must use the default seed 0.
    """
    path = tmp_path / "freeze.json"
    interludes = [
        [(["freeze", "--t", "inf"], 2, "")],
        [(["converge", "--hamiltonian", "sigma_x", "--projector", "e1", "--n-max", "7"], 2, "")],
        [(["freeze", "--help"], 0, "usage: zenogeo freeze")],
        [(["freeze", "--hz", "1", "--t", "2", "--format", "json", "--out", str(path)], 0, "")],
        [
            (["brackets", "--trials", "3", "--seed", "5"], 0, "bracket identities: n=2 trials=3 seed=5"),
            (["brackets", "--trials", "3"], 0, "bracket identities: n=2 trials=3 seed=0"),
        ],
    ]
    cases = sorted(CASES)
    for k, case in enumerate(cases + cases[::-1]):
        for argv, want_code, want_start in interludes[k % len(interludes)]:
            with contextlib.redirect_stderr(io.StringIO()):
                code, out = run(argv)
            assert code == want_code, argv
            assert out.startswith(want_start) and bool(out) == bool(want_start), argv
        if path.exists():
            assert json.loads(path.read_text())["rows"][0]["t"] == 2.0
            path.unlink()
        fmt = "json" if k % 2 == 0 else "csv"
        flags = ["--format", "json"] if fmt == "json" else []
        code, out = run(CASES[case][0].split() + flags)
        _check_golden(case, fmt, code, out)
