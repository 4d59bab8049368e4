import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types
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
        payload = json.loads(path.read_text(encoding="utf-8"))
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


def outcome(load):
    """What load() gives: the shape and bytes of its array, or the message
    of its ValueError."""
    try:
        z = load()
    except ValueError as exc:
        return str(exc)
    return z.shape, z.tobytes()


def assert_loads_as_json_does(path):
    """load_state and load_matrix give, bit for bit, what state_from_dict and
    matrix_from_dict give for json.loads of the file's text, or raise a
    ValueError with the same message; returns load_state's outcome."""
    text = path.read_text(encoding="utf-8")
    got = outcome(lambda: jsonio.load_state(path))
    assert got == outcome(lambda: jsonio.state_from_dict(json.loads(text)))
    assert outcome(lambda: jsonio.load_matrix(path)) == outcome(lambda: jsonio.matrix_from_dict(json.loads(text)))
    return got


class TestDecoders:
    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_saved_state_loads_as_json_reads_it(self, decoder, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("round-trip") / "psi.json"
        jsonio.save_state(path, np.array([complex(q, p) for q, p in pairs]))
        assert not isinstance(assert_loads_as_json_does(path), str)

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
        assert not isinstance(assert_loads_as_json_does(path), str)

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


PLAIN = {"dim": 2, "re": [1.5, -0.0], "im": [0, 2e-3]}
KEY_ORDERS = [("dim", "re", "im"), ("dim", "im", "re"), ("re", "dim", "im"),
              ("re", "im", "dim"), ("im", "dim", "re"), ("im", "re", "dim")]
#: Texts that load, with whether their skeleton is plain: indent and CRLF
#: layouts are, extra keys and NaN or Infinity entries are not.
LOADING = {
    **{"order-" + "-".join(keys): (json.dumps({k: PLAIN[k] for k in keys}), True) for keys in KEY_ORDERS},
    "indent-2": (json.dumps(PLAIN, indent=2), True),
    "crlf": (json.dumps(PLAIN, indent=2).replace("\n", "\r\n"), True),
    "compact": (json.dumps(PLAIN, separators=(",", ":")), True),
    "extra-key": (json.dumps({**PLAIN, "note": "x"}), False),
    "extra-number-key": (json.dumps({**PLAIN, "t": 1}), False),
    "extra-list-key": (json.dumps({**PLAIN, "x": [True, None]}), False),
    "nan-entry": ('{"dim": 2, "re": [NaN, 0], "im": [0, 0]}', False),
    "infinity-entries": ('{"dim": 2, "re": [Infinity, 0], "im": [0, -Infinity]}', False),
}
#: Texts that fail, with what their message holds and whether their
#: skeleton is plain: "ree" loses its two e's, and the file its "re" key.
FAILING = {
    "string-entry": ('{"dim": 2, "re": ["1", 0], "im": [0, 0]}', "JSON numbers", False),
    "string-e-entry": ('{"dim": 2, "re": ["e", 0], "im": [0, 0]}', "JSON numbers", False),
    "true-entry": ('{"dim": 2, "re": [1, 0], "im": [0, true]}', "JSON numbers", False),
    "false-entry": ('{"dim": 2, "re": [false, 0], "im": [0, 0]}', "JSON numbers", False),
    "null-entry": ('{"dim": 2, "re": [null, 0], "im": [0, 0]}', "JSON numbers", False),
    "nested-entry": ('{"dim": 2, "re": [[1], 0], "im": [0, 0]}', "JSON numbers", False),
    "object-entry": ('{"dim": 2, "re": [{}, 0], "im": [0, 0]}', "JSON numbers", False),
    "re-not-a-list": ('{"dim": 1, "re": 1, "im": [0], "x": []}', "malformed", False),
    "key-re-spelled-ree": ('{"dim": 2, "ree": [1, 0], "im": [0, 0]}', "malformed", True),
    "bom": ("\ufeff" + json.dumps(PLAIN), "BOM", False),
}


class TestSkeleton:
    """A file whose skeleton is plain skips the per-entry type scan; every
    file loads, or fails, as json.loads and the dict functions have it."""

    @pytest.mark.parametrize("text,plain", LOADING.values(), ids=LOADING)
    def test_layout_loads_as_json_reads_it(self, decoder, text, plain, tmp_path):
        path = tmp_path / "psi.json"
        path.write_bytes(text.encode())
        got = assert_loads_as_json_does(path)
        assert not isinstance(got, str), got
        assert jsonio._plain(path.read_bytes()) is plain

    @pytest.mark.parametrize("text,match,plain", FAILING.values(), ids=FAILING)
    def test_bad_file_fails_as_json_reads_it(self, decoder, text, match, plain, tmp_path):
        path = tmp_path / "psi.json"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=match):
            jsonio.load_state(path)
        assert_loads_as_json_does(path)
        assert jsonio._plain(path.read_bytes()) is plain

    # A string would reach numpy, whose message names no field, and a dict
    # would be scanned by its keys; either part may be the one that is not
    # a list.
    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", ["", "12", 5, {"a": 1}], ids=["empty-string", "digit-string", "number", "dict"])
    def test_part_that_is_not_a_list_is_malformed(self, decoder, part, value, tmp_path):
        payload = {"dim": 1, "re": [0], "im": [0], part: value}
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed field: re and im must be flat lists"):
            jsonio.load_state(path)
        assert_loads_as_json_does(path)
        # Two non-lists of one length fail alike.
        path.write_text(json.dumps({"dim": 2, "re": value, "im": value}))
        with pytest.raises(ValueError, match="malformed field: re and im must be flat lists"):
            jsonio.load_matrix(path)

    # Where "true" starts, against the scan's chunk boundaries: astride the
    # first, just before and after it, and astride the second; the file is
    # past 64 KiB.
    @pytest.mark.parametrize("offset", [-2, -5, 0, 1, jsonio._SCAN_CHUNK - 2])
    def test_true_entry_near_a_chunk_boundary(self, decoder, offset, tmp_path):
        start = jsonio._SCAN_CHUNK + offset
        head = '{"re": ['
        fill = start - len(head)
        body = "1," * (fill // 2) + " " * (fill % 2)
        entries = fill // 2 + 1 + 20000
        tail = "," + ",".join(["1"] * 20000) + '], "im": [%s], "dim": %d}' % (",".join(["0"] * entries), entries)
        path = tmp_path / "psi.json"
        for entry, plain in [("true", False), ("1   ", True)]:
            text = head + body + entry + tail
            assert text.index(entry) == start and len(text) > 65536
            path.write_text(text)
            assert jsonio._plain(text.encode()) is plain
            got = assert_loads_as_json_does(path)
            if plain:
                assert got[0] == (entries,)
            else:
                assert got == "re and im entries must be JSON numbers"

    @given(st.data())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_formatting_loads_as_json_reads_it(self, decoder, tmp_path_factory, data):
        numbers = finite | st.integers(-(2**63), 2**63) | st.sampled_from([math.nan, math.inf, -math.inf])
        others = (st.text(st.characters(blacklist_categories=("Cs",)), max_size=3) | st.booleans()
                  | st.none() | st.lists(finite, max_size=2) | st.dictionaries(st.text(max_size=2), finite, max_size=1))
        entries = st.lists(numbers, max_size=6) | st.lists(numbers | others, max_size=6) | numbers | others
        def fault(odds=4):
            return data.draw(st.integers(0, odds - 1)) == 0

        # A well-formed payload, then each fault in one draw out of four.
        size = data.draw(st.integers(1, 4))
        parts = {key: data.draw(st.lists(numbers, min_size=size, max_size=size)) for key in ("re", "im")}
        parts["dim"] = size
        for key in ("re", "im"):
            if fault():
                parts[key] = data.draw(entries)
        if fault():
            parts["dim"] = data.draw(st.integers(-1, 5) | st.booleans() | finite | st.none())
        keys = data.draw(st.permutations(["dim", "re", "im"]))
        if fault():
            keys.insert(data.draw(st.integers(0, 3)), "x")
            parts["x"] = data.draw(numbers | others)
        if fault(8):
            keys.remove(data.draw(st.sampled_from(keys)))
        text = json.dumps(
            {key: parts[key] for key in keys},
            indent=data.draw(st.sampled_from([None, 0, 2, "\t"])),
            separators=data.draw(st.sampled_from([None, (",", ":"), (" ,\n", " :  ")])),
            ensure_ascii=data.draw(st.booleans()),
        )
        text = text.replace("\n", data.draw(st.sampled_from(["\n", "\r\n"])))
        path = tmp_path_factory.mktemp("formatted") / "psi.json"
        path.write_bytes(text.encode())
        assert_loads_as_json_does(path)


@pytest.fixture
def orjson_calls(monkeypatch):
    """A recording stand-in for orjson, wrapping the real loads and
    JSONDecodeError: the list of the data that loads is given."""
    orjson = pytest.importorskip("orjson")
    calls = []

    def loads(data):
        calls.append(data)
        return orjson.loads(data)

    stand_in = types.ModuleType("orjson")
    stand_in.loads, stand_in.JSONDecodeError = loads, orjson.JSONDecodeError
    monkeypatch.setitem(sys.modules, "orjson", stand_in)
    return calls


ROUTED = {**LOADING, **{name: (text, plain) for name, (text, _, plain) in FAILING.items()}}


class TestRouting:
    """orjson decodes plain files and no other."""

    @pytest.mark.parametrize("text,plain", ROUTED.values(), ids=ROUTED)
    def test_only_a_plain_file_reaches_orjson(self, orjson_calls, text, plain, tmp_path):
        path = tmp_path / "psi.json"
        path.write_bytes(text.encode())
        assert_loads_as_json_does(path)
        assert orjson_calls == ([text.encode()] * 2 if plain else [])

    def test_deep_nesting_never_reaches_orjson(self, orjson_calls, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 200_000 + b"]" * 200_000)
        with pytest.raises(ValueError, match="JSON nested too deeply"):
            jsonio.load_state(path)
        assert orjson_calls == []

    # One translate of the whole file would hold a copy of its size: that
    # raised the zeno-ladder benchmark's peak RSS by 5.7%.
    def test_scan_holds_a_few_chunks_of_a_large_file(self):
        data = json.dumps(jsonio.matrix_to_dict(np.full((300, 300), 1 / 3))).encode()
        assert len(data) > 1 << 20
        tracemalloc.start()
        try:
            assert jsonio._plain(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * jsonio._SCAN_CHUNK


def run_python(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]), **env)
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


# RFC 8259 asks for UTF-8: a file reads alike in the C locale, where
# Path.read_text() would decode it as ASCII.
@pytest.mark.parametrize(
    "data,want",
    [
        ('{"dim": 1, "re": [1], "im": [0], "note": "caf\u00e9"}'.encode(), "[(1+0j)]"),
        (b"\xef\xbb\xbf" + json.dumps(PLAIN).encode(), "ValueError: Unexpected UTF-8 BOM"),
    ],
    ids=["utf-8-note", "bom"],
)
def test_file_reads_as_utf_8_in_the_c_locale(data, want, tmp_path):
    path = tmp_path / "psi.json"
    path.write_bytes(data)
    code = (
        "import sys\n"
        "from zenogeo import jsonio\n"
        "try:\n"
        "    print(jsonio.load_state(sys.argv[1]).tolist())\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    proc = run_python(code, str(path), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(want), proc.stdout
