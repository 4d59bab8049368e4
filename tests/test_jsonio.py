import json

import numpy as np
import pytest
from hypothesis import given, settings
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
        ],
        ids=[
            "dim-1e400", "dim-infinity", "dim-fraction", "dim-bool", "huge-entry",
            "string-entry", "bool-entry", "null-entry", "nested-entry",
        ],
    )
    def test_payload_rejected_with_value_error(self, text, match):
        with pytest.raises(ValueError, match=match):
            jsonio.state_from_dict(json.loads(text))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            jsonio.matrix_to_dict(np.ones((2, 3)))
