import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zenogeo import jsonio

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestStateRoundTrip:
    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_dict_round_trip(self, pairs):
        psi = np.array([q + 1j * p for q, p in pairs])
        back = jsonio.state_from_dict(jsonio.state_to_dict(psi))
        assert np.array_equal(back, psi)

    def test_file_round_trip(self, tmp_path):
        psi = np.array([0.5 - 0.25j, 1.0 + 2.0j, -3.0 + 0.0j])
        path = tmp_path / "state.json"
        jsonio.save_state(path, psi)
        assert np.array_equal(jsonio.load_state(path), psi)
        payload = json.loads(path.read_text())
        assert set(payload) == {"dim", "re", "im"}
        assert payload["dim"] == 3


class TestMatrixRoundTrip:
    def test_row_major_layout(self):
        A = np.array([[1.0 + 1j, 2.0], [3.0, 4.0 - 2j]])
        d = jsonio.matrix_to_dict(A)
        assert d["re"] == [1.0, 2.0, 3.0, 4.0]
        assert d["im"] == [1.0, 0.0, 0.0, -2.0]
        assert np.array_equal(jsonio.matrix_from_dict(d), A)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "matrix.json"
        jsonio.save_matrix(path, A)
        assert np.array_equal(jsonio.load_matrix(path), A)


class TestRejection:
    def test_missing_field(self):
        with pytest.raises(ValueError, match="field"):
            jsonio.state_from_dict({"dim": 2, "re": [1.0, 0.0]})

    def test_length_mismatch_state(self):
        with pytest.raises(ValueError, match="expected dim"):
            jsonio.state_from_dict({"dim": 3, "re": [1.0, 0.0], "im": [0.0, 0.0]})

    def test_length_mismatch_matrix(self):
        with pytest.raises(ValueError, match="dim"):
            jsonio.matrix_from_dict({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]})

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            jsonio.state_from_dict({"dim": 0, "re": [], "im": []})

    # JSON text as a file holds it: 1e400 and Infinity parse to a float inf,
    # whose int() overflows; a 400-digit entry overflows float64.
    @pytest.mark.parametrize(
        "text,match",
        [
            ('{"dim": 1e400, "re": [1, 0], "im": [0, 0]}', "dim"),
            ('{"dim": Infinity, "re": [1, 0], "im": [0, 0]}', "dim"),
            ('{"dim": 2.7, "re": [1, 0], "im": [0, 0]}', "dim"),
            ('{"dim": true, "re": [1], "im": [0]}', "dim"),
            ('{"dim": 2, "re": [1%s, 0], "im": [0, 0]}' % ("0" * 400), "malformed"),
            # Entries that are not JSON numbers: numpy would parse "1" and
            # true as 1.0, and null as nan.
            ('{"dim": 2, "re": ["1", "0"], "im": [0, 0]}', "JSON numbers"),
            ('{"dim": 2, "re": [true, 0], "im": [0, 0]}', "JSON numbers"),
            ('{"dim": 2, "re": [1, 0], "im": [null, 0]}', "JSON numbers"),
            ('{"dim": 2, "re": [[1], [0]], "im": [0, 0]}', "JSON numbers"),
            ('{"dim": 2, "re": [1, 0], "im": [0]}', "equal length"),
        ],
        ids=[
            "dim-1e400", "dim-infinity", "dim-fraction", "dim-bool", "huge-entry",
            "string-entry", "bool-entry", "null-entry", "nested-entry", "ragged-parts",
        ],
    )
    def test_payload_rejected_with_value_error(self, text, match):
        with pytest.raises(ValueError, match=match):
            jsonio.state_from_dict(json.loads(text))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            jsonio.matrix_to_dict(np.ones((2, 3)))


@pytest.fixture(params=["orjson", "json"])
def decoder(request, monkeypatch):
    """Loads decode through orjson, then through json alone."""
    if request.param == "orjson":
        pytest.importorskip("orjson")
    else:
        # A None entry makes `import orjson` raise ImportError.
        monkeypatch.setitem(sys.modules, "orjson", None)
    return request.param


def assert_loads_as_json_does(path):
    """load_state gives, bit for bit, what state_from_dict of json.loads gives."""
    got, want = jsonio.load_state(path), jsonio.state_from_dict(json.loads(path.read_text()))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDecoders:
    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_saved_state_loads_as_json_reads_it(self, decoder, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("round-trip") / "psi.json"
        jsonio.save_state(path, np.array([complex(q, p) for q, p in pairs]))
        assert_loads_as_json_does(path)

    # Subnormal, halfway, extreme and long-mantissa numbers, integers past
    # 64 bits, and what only json reads.
    @pytest.mark.parametrize(
        "number",
        [
            "-0.0", "5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
            "1.7976931348623157e308", "1.00000000000000011102230246251565404236316680908203125",
            "9007199254740993", "18446744073709551616", "-123456789012345678901234567890",
            "1e-400", "1e400", "NaN", "-Infinity",
        ],
    )
    def test_number_reads_as_json_reads_it(self, decoder, number, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text('{"dim": 1, "re": [%s], "im": [0]}' % number)
        assert_loads_as_json_does(path)

    def test_negative_zero_keeps_its_sign(self, decoder, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text('{"dim": 1, "re": [-0.0], "im": [0]}')
        assert math.copysign(1.0, jsonio.load_state(path)[0].real) == -1.0

    def test_signed_zeros_round_trip_bit_for_bit(self, decoder, tmp_path):
        zeros = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)])
        jsonio.save_state(tmp_path / "psi.json", zeros)
        jsonio.save_matrix(tmp_path / "A.json", zeros.reshape(2, 2))
        psi, A = jsonio.load_state(tmp_path / "psi.json"), jsonio.load_matrix(tmp_path / "A.json")
        assert np.array_equal(psi.view(np.uint64), zeros.view(np.uint64))
        assert np.array_equal(A.reshape(-1).view(np.uint64), zeros.view(np.uint64))

    def test_infinite_imaginary_part_stays_imaginary(self, decoder, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text('{"dim": 1, "re": [0], "im": [Infinity]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = jsonio.load_state(path)
        assert psi.view(np.float64).tolist() == [0.0, math.inf]

    @pytest.mark.parametrize(
        "data",
        [
            b"\xef\xbb\xbf" + b'{"dim": 1, "re": [1], "im": [0]}',
            b'{"dim": 1, "re": [1], "im": [0]} x',
            b'{"dim": 123456789012345678901234567890, "re": [1], "im": [0]}',
            b"[" * 1010 + b"]" * 1010,
            b"[" * 5000 + b"]" * 5000,
        ],
        ids=["bom", "trailing-data", "dim-past-64-bits", "nested-1010", "nested-5000"],
    )
    def test_bad_file_raises_value_error(self, decoder, data, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ValueError):
            jsonio.load_state(path)
        with pytest.raises(ValueError):
            jsonio.load_matrix(path)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_import_does_not_load_orjson():
    # jsonio imports orjson at its first load, so that starting zenogeo
    # does not pay for it.
    proc = run_python("import zenogeo, sys; print('orjson' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_deep_nesting_is_a_value_error_not_a_crash(tmp_path):
    # In a child process: orjson 3.8.3 given this text overflows the C
    # stack and kills the process.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    proc = run_python("import sys; from zenogeo import jsonio; jsonio.load_state(sys.argv[1])", str(path))
    assert proc.returncode == 1
    assert "ValueError: JSON nested too deeply" in proc.stderr
