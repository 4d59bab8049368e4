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

    @pytest.mark.parametrize("load", [jsonio.load_state, jsonio.load_matrix])
    def test_dim_above_dim_max_rejected(self, load, tmp_path):
        # Before the entry count: one entry would fail that check too.
        path = tmp_path / "big.json"
        path.write_text('{"dim": 3, "re": [0], "im": [0]}')
        with pytest.raises(ValueError, match=r"^dim must be <= 2, got 3$"):
            load(path, 2)
        with pytest.raises(ValueError, match="entries"):
            load(path, 3)

    # The bound at dim_max = 2: 64 bytes for each of a state's 4 entries or
    # a matrix's 8, and 4 KiB.
    @pytest.mark.parametrize("load,most", [(jsonio.load_state, 64 * 4 + 4096), (jsonio.load_matrix, 64 * 8 + 4096)])
    def test_file_past_the_size_bound_is_never_read(self, load, most, tmp_path, monkeypatch):
        dim = 2 if load is jsonio.load_state else 4
        text = '{"dim": 2, "re": [%s], "im": [%s]}' % (", ".join(["0.5"] * dim), ", ".join(["0"] * dim))
        path = tmp_path / "padded.json"
        path.write_text(text + " " * (most - len(text)))
        assert load(path, 2).size == dim
        reads = []
        monkeypatch.setattr(pathlib.Path, "read_bytes", lambda self: reads.append(self))
        with open(path, "a") as f:
            f.write(" ")
        with pytest.raises(ValueError, match=f"^file has {most + 1} bytes, more than the {most} of a dim-2 input$"):
            load(path, 2)
        assert reads == []

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

    # Subnormal, halfway, extreme and long-mantissa numbers, integers at
    # and past the 64-bit edges, integer and float zeros, and what only json
    # reads.
    @pytest.mark.parametrize(
        "number",
        [
            "-0.0", "5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
            "1.7976931348623157e308", "1.00000000000000011102230246251565404236316680908203125",
            "9007199254740993", "18446744073709551616", "-123456789012345678901234567890",
            "1e-400", "1e400", "NaN", "-Infinity",
            "9223372036854775807", "18446744073709551615", "-9223372036854775808",
            "0", "-0", "1e308", "1.2345678901234568e+29",
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
#: layouts are, and one with more than _HEAD_BYTES outside its lists, which
#: json decodes; extra keys and NaN or Infinity entries are not.
LOADING = {
    **{"order-" + "-".join(keys): (json.dumps({k: PLAIN[k] for k in keys}), True) for keys in KEY_ORDERS},
    "indent-2": (json.dumps(PLAIN, indent=2), True),
    "crlf": (json.dumps(PLAIN, indent=2).replace("\n", "\r\n"), True),
    "compact": (json.dumps(PLAIN, separators=(",", ":")), True),
    "long-layout": (json.dumps(PLAIN)[:-1] + " " * jsonio._HEAD_BYTES + "}", True),
    "extra-key": (json.dumps({**PLAIN, "note": "x"}), False),
    "extra-number-key": (json.dumps({**PLAIN, "t": 1}), False),
    "extra-list-key": (json.dumps({**PLAIN, "x": [True, None]}), False),
    "nan-entry": ('{"dim": 2, "re": [NaN, 0], "im": [0, 0]}', False),
    "infinity-entries": ('{"dim": 2, "re": [Infinity, 0], "im": [0, -Infinity]}', False),
}
#: Texts that fail, with what their message holds and whether their
#: skeleton is plain: "ree" loses its two e's, and the file its "re" key;
#: orjson reads a dim past 64 bits as a float, json as an int, and json an
#: entry past the double range as an int that no double holds.
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
    "dim-past-64-bits": ('{"dim": 123456789012345678901234567890, "re": [1], "im": [0]}', "expected dim", True),
    "bom": ("\ufeff" + json.dumps(PLAIN), "BOM", False),
    "no-lists": ('{"dim": 1}', "malformed", False),
    "one-list": ('{"dim": 1, "re": [1], "im": 0}', "malformed", False),
    "reversed-brackets": ('{"dim": 1, "re": ]1[, "im": [0]}', "Expecting value", False),
    "integer-past-doubles": ('{"dim": 1, "re": [1%s], "im": [0]}' % ("0" * 400), "malformed", True),
}


def is_plain(data: bytes) -> bool:
    """Whether the skeleton of data, what is left of it less the bytes of
    numbers and separators, is plain (see jsonio's docstring)."""
    return data.translate(None, jsonio._NUMBER_BYTES) in jsonio._PLAIN_SKELETONS


class TestSkeleton:
    """A file whose skeleton is plain skips the per-entry type scan; every
    file loads, or fails, as json.loads and the dict functions have it."""

    @pytest.mark.parametrize("text,plain", LOADING.values(), ids=LOADING)
    def test_layout_loads_as_json_reads_it(self, decoder, text, plain, tmp_path):
        path = tmp_path / "psi.json"
        path.write_bytes(text.encode())
        got = assert_loads_as_json_does(path)
        assert not isinstance(got, str), got
        assert is_plain(path.read_bytes()) is plain

    @pytest.mark.parametrize("text,match,plain", FAILING.values(), ids=FAILING)
    def test_bad_file_fails_as_json_reads_it(self, decoder, text, match, plain, tmp_path):
        path = tmp_path / "psi.json"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=match):
            jsonio.load_state(path)
        assert_loads_as_json_does(path)
        assert is_plain(path.read_bytes()) is plain

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

    # Where "true" starts, against the nominal ends of the decode chunks,
    # _DECODE_CHUNK bytes past the "[" or comma a chunk starts at: in the
    # first chunk, not as its last entry; astride the first end; at it, as
    # the chunk's last entry; just past the comma the chunk is cut at, as
    # the next chunk's first; and astride the second end.  Entries of 18
    # bytes make the chunks cut by bytes, not by count.
    @pytest.mark.parametrize("offset", [-5, -2, 0, 1, jsonio._DECODE_CHUNK + 2])
    def test_true_entry_near_a_chunk_boundary(self, decoder, offset, tmp_path):
        number = "1.000000000000000"
        head = '{"re": ['
        start = len(head) - 1 + jsonio._DECODE_CHUNK + offset
        # The numbers before the entry, spaces, and the comma just before it.
        before, spaces = divmod(start - len(head), len(number) + 1)
        body = ",".join([number] * before) + " " * spaces + ","
        entries = before + 1 + 20000
        tail = "," + ",".join([number] * 20000) + '], "im": [%s], "dim": %d}' % (",".join(["0"] * entries), entries)
        path = tmp_path / "psi.json"
        for entry, plain in [("true", False), ("1   ", True)]:
            text = head + body + entry + tail
            assert text.index(entry) == start
            ends = [nominal for nominal, _ in chunk_ends(text, len(head) - 1, entries)]
            assert start == (ends[0] + offset if offset < len(number) else ends[1] - 2)
            path.write_text(text)
            assert is_plain(text.encode()) is plain
            got = assert_loads_as_json_does(path)
            if plain:
                assert got[0] == (entries,)
            else:
                assert got == "re and im entries must be JSON numbers"

    # The last entry of a dim-200 matrix's im list, the last chunk a load
    # decodes: json reads NaN and refuses the others.
    @pytest.mark.parametrize("entry,want", [("true", False), ("NaN", True), ('"x"', False)])
    def test_last_entry_of_a_large_file_loads_as_json_reads_it(self, decoder, entry, want, tmp_path):
        path = tmp_path / "A.json"
        jsonio.save_matrix(path, np.random.default_rng(6).standard_normal((200, 200)))
        text = path.read_text()
        assert text.endswith("0.0]}")
        path.write_text(text[:-len("0.0]}")] + entry + "]}")
        got = outcome(lambda: jsonio.load_matrix(path))
        assert got == outcome(lambda: jsonio.matrix_from_dict(json.loads(path.read_text())))
        if want:
            assert got[0] == (200, 200)
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


def chunk_ends(text: str, start: int, count: int):
    """Where each chunk of the list whose "[" is text[start], read as count
    numbers, would end if it were not cut at the next comma, and the comma
    it is cut at."""
    end = text.index("]", start)
    size = min(jsonio._DECODE_CHUNK, (end - start) * jsonio._DECODE_COUNT // count)
    while (cut := text.find(",", start + size, end)) >= 0:
        yield start + size, cut
        start = cut


class TestChunks:
    """A plain file's lists are decoded a chunk at a time, each cut at the
    first comma _DECODE_COUNT numbers of the list's mean width, and at most
    _DECODE_CHUNK bytes, past its start; a file loads, or fails, as
    json.loads and the dict functions have it."""

    def test_lists_of_several_chunks_load_as_json_reads_them(self, decoder, tmp_path):
        # Fixed-width entries, 22 characters in re and 23 in im, put the
        # end of every chunk but the last inside an entry.
        count = 20000
        rng = np.random.default_rng(7)
        re = ", ".join("%.16e" % v for v in abs(rng.standard_normal(count)))
        im = ", ".join("-%.16e" % v for v in abs(rng.standard_normal(count)))
        text = '{"dim": %d, "re": [%s], "im": [%s]}' % (count, re, im)
        path = tmp_path / "psi.json"
        path.write_text(text)
        for start in (text.index("["), text.rindex("[")):
            ends = list(chunk_ends(text, start, count))
            assert len(ends) >= 3
            assert all(text[nominal] not in ", " for nominal, _ in ends)
        got = assert_loads_as_json_does(path)
        assert not isinstance(got, str) and got[0] == (count,)

    # A run of spaces between two commas, as long as a chunk: inside the
    # first chunk, which then ends in a comma, or a chunk of its own, which
    # holds no number.  json rejects both lists.
    @pytest.mark.parametrize("before", [1, jsonio._DECODE_CHUNK // 2], ids=["inside-a-chunk", "own-chunk"])
    def test_whitespace_run_filling_a_chunk_fails_as_json_does(self, decoder, before, tmp_path):
        text = '{"dim": %d, "re": [%s%s,1], "im": [%s]}' % (
            before + 1, "1," * before, " " * jsonio._DECODE_CHUNK, ",".join(["0"] * (before + 1)))
        path = tmp_path / "psi.json"
        path.write_text(text)
        bounds = [text.index("["), *(cut for _, cut in chunk_ends(text, text.index("["), before + 1)), text.index("]")]
        chunks = [text[a + 1:b] for a, b in zip(bounds, bounds[1:])]
        assert chunks[0].rstrip().endswith(",") == (before == 1)
        assert any(chunk.isspace() for chunk in chunks) == (before > 1)
        assert is_plain(text.encode())
        assert assert_loads_as_json_does(path).startswith("Expecting value")

    # A real matrix's im list is all 0.0, five bytes a number with its
    # separator: a chunk of _DECODE_CHUNK bytes would hold 26,000 of them,
    # 0.8 MB of Python floats, where its re list holds about 6,000 doubles.
    def test_short_numbers_are_cut_by_their_count(self, decoder, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "A.json"
        jsonio.save_matrix(path, rng.standard_normal((300, 300)))
        text = path.read_text()
        size = len(text)
        assert size > 2 << 20
        assert text.count("0.0", text.index('"im"')) == 300 * 300
        tracemalloc.start()
        try:
            A = jsonio.load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape == (300, 300) and not A.imag.any()
        assert peak < size + A.nbytes + 6 * jsonio._DECODE_CHUNK

    # Lists that hold 2 entries: a dim of 2000, or a matrix of dim 2, asks
    # for more, and allocates nothing (a 2000 x 2000 array takes 64 MB).
    @pytest.mark.parametrize("dim", [2, 2000])
    def test_dim_its_lists_cannot_fill_allocates_nothing(self, decoder, dim, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text('{"dim": %d, "re": [1, 0], "im": [0, 0]}' % dim)
        tracemalloc.start()
        try:
            got = assert_loads_as_json_does(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(got, str) or dim == 2
        assert peak < 1 << 20


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


def assert_chunked(calls, text: str):
    """Each call got a plain file's text outside its lists, first, or one
    chunk of a list, which is at most a chunk and a run between two commas
    long."""
    longest = max(map(len, text.split(",")))
    assert calls and calls[0].count(b"[]") == 2
    for call in calls:
        skeleton = call.translate(None, jsonio._NUMBER_BYTES)
        if skeleton != b"[]":
            assert skeleton in jsonio._PLAIN_SKELETONS
        else:
            assert len(call) <= jsonio._DECODE_CHUNK + longest + 2


def outside_lists(data: bytes) -> bytes | None:
    """The text of data outside its lists, the first and the last bracket
    pair, brackets kept; None without two such pairs."""
    try:
        o1, c1 = data.index(b"["), data.index(b"]")
        o2, c2 = data.index(b"[", c1), data.rindex(b"]")
    except ValueError:
        return None
    return data[:o1 + 1] + data[c1:o2 + 1] + data[c2:]


class TestRouting:
    """orjson decodes plain files and no other, a chunk at a time."""

    # A file whose text outside its lists is not plain, or longer than
    # _HEAD_BYTES, makes no call; any other file's calls are each a plain
    # skeleton or a list of numbers, so orjson never meets a string, a
    # literal or a nesting.
    @pytest.mark.parametrize("text,plain", ROUTED.values(), ids=ROUTED)
    def test_only_a_plain_file_reaches_orjson(self, orjson_calls, text, plain, tmp_path):
        path = tmp_path / "psi.json"
        path.write_bytes(text.encode())
        assert_loads_as_json_does(path)
        head = outside_lists(text.encode())
        if head is None or not is_plain(head) or len(head) > jsonio._HEAD_BYTES + 2:
            assert orjson_calls == []
        elif plain:
            assert_chunked(orjson_calls, text)
        for call in orjson_calls:
            assert is_plain(call) or call.translate(None, jsonio._NUMBER_BYTES) == b"[]"

    def test_a_large_file_reaches_orjson_a_chunk_at_a_time(self, orjson_calls, tmp_path):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        path = tmp_path / "A.json"
        jsonio.save_matrix(path, A)
        assert np.array_equal(jsonio.load_matrix(path), A)
        text = path.read_text()
        assert len(text) > 8 * jsonio._DECODE_CHUNK
        assert_chunked(orjson_calls, text)
        assert len(orjson_calls) > 8

    def test_a_chunk_of_equal_width_numbers_holds_at_most_the_count(self, orjson_calls, tmp_path):
        path = tmp_path / "A.json"
        jsonio.save_matrix(path, np.full((300, 300), 0.5))
        assert np.array_equal(jsonio.load_matrix(path), np.full((300, 300), 0.5))
        counts = [bytes(call).count(b",") + 1 for call in orjson_calls[1:]]
        assert len(counts) > 20
        assert jsonio._DECODE_COUNT <= max(counts) <= jsonio._DECODE_COUNT + 1

    def test_deep_nesting_never_reaches_orjson(self, orjson_calls, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 200_000 + b"]" * 200_000)
        with pytest.raises(ValueError, match="JSON nested too deeply"):
            jsonio.load_state(path)
        assert orjson_calls == []

    # A plain load holds the file's bytes, its array and a chunk's list,
    # never a list of every entry, as a whole-file decode did.  A chunk of
    # doubles as json.dumps writes them holds about 6,000 numbers, and json
    # holds its text twice, as bytes and as str.
    def test_plain_load_holds_the_file_the_array_and_a_few_chunks(self, decoder, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "A.json"
        jsonio.save_matrix(path, rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200)))
        size = path.stat().st_size
        assert size > 1 << 20
        tracemalloc.start()
        try:
            A = jsonio.load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape == (200, 200)
        assert peak < size + A.nbytes + 6 * jsonio._DECODE_CHUNK


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


@pytest.mark.parametrize("psi", [np.eye(2), np.complex128(1.0)], ids=["2-D", "scalar"])
def test_state_to_dict_rejects_a_non_vector(psi):
    with pytest.raises(ValueError, match="^expected a 1-D state vector$"):
        jsonio.state_to_dict(psi)
