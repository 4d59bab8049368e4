"""JSON interchange for states and matrices.

The on-disk form is ``{"dim": n, "re": [...], "im": [...]}`` with row-major
real and imaginary parts: length n for a state, n*n for a matrix.  A file
is read as its UTF-8 bytes, whatever the locale; given dim_max, only once
its size is within _ENTRY_BYTES per entry of a dim-dim_max input and
_HEAD_BYTES.

A file is plain when, less every byte a JSON number or a separator can
hold, it is the skeleton ``{"dim""r"[]"im"[]}`` in some key order: re and
im are its two bracket pairs and hold only numbers.  A load checks each
part of a file just before it decodes it, by orjson when installed and
json otherwise: first the text outside the two lists, which gives dim and
the keys' order, then each list's chunks, cut at commas, of at most
_DECODE_CHUNK bytes and about _DECODE_COUNT numbers of its mean width,
straight into one complex array.  The parts cover the file, so only a
plain file loads this way; the load holds the file, the array and one
chunk's list, and orjson never meets a string, a literal or the nesting
that overflows its C stack.  json decodes every other file whole, and so
a plain one with another key, more than _HEAD_BYTES outside its lists, a
dim out of range or past what its lists hold, a chunk refused or holding
no number, or a wrong count: a file gives json's arrays, or its
ValueError, with or without orjson, and a dim past 64 bits, which orjson
reads as a float, too.
"""
from __future__ import annotations

import json
import struct
from itertools import permutations
from pathlib import Path

import numpy as np

#: The bytes of JSON numbers, separators and whitespace.  A value made of
#: these alone is a number: a string, a list and true, false or null keep
#: a byte.
_NUMBER_BYTES = b"0123456789+-.eE,: \t\n\r"

#: Skeletons of files that hold the three keys and nothing else, with re
#: and im flat lists of numbers ("re" loses its e).
_PLAIN_SKELETONS = frozenset(
    b"{" + b"".join(keys) + b"}" for keys in permutations([b'"dim"', b'"r"[]', b'"im"[]'])
)

#: A list is decoded a chunk at a time, each cut at the first comma past
#: _DECODE_COUNT numbers of the list's mean width, and at most
#: _DECODE_CHUNK bytes: about 6,000 doubles as json.dumps writes them, and
#: 8,192 numbers of a list of 0.0.
_DECODE_CHUNK, _DECODE_COUNT = 1 << 17, 1 << 13

#: The size bound: about twice what json.dumps(indent=2) spends on the
#: longest double, and room for the keys and dim, or a plain file's layout.
_ENTRY_BYTES, _HEAD_BYTES = 64, 4096


def state_to_dict(psi) -> dict:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1:
        raise ValueError("expected a 1-D state vector")
    return {"dim": psi.size, "re": psi.real.tolist(), "im": psi.imag.tolist()}


def matrix_to_dict(A) -> dict:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    flat = A.reshape(-1)
    return {"dim": A.shape[0], "re": flat.real.tolist(), "im": flat.imag.tolist()}


def _parts(payload: dict, dim_max: int | None = None) -> tuple[int, np.ndarray]:
    """dim, at most dim_max when given, and the complex entries of a
    payload."""
    try:
        dim, re, im = payload["dim"], payload["re"], payload["im"]
        # A string would reach numpy, a dict be scanned by its keys.
        if type(re) is not list or type(im) is not list:
            raise TypeError("re and im must be flat lists of equal length")
        # Entry types, not isinstance: true is an int and not a number, and
        # numpy would read "1" as 1.0 and null as nan.
        if not set(map(type, re)) | set(map(type, im)) <= {int, float}:
            raise ValueError("re and im entries must be JSON numbers")
        re = np.asarray(re, dtype=np.float64)
        im = np.asarray(im, dtype=np.float64)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"payload missing or malformed field: {exc}") from exc
    # A JSON integer: 2.7, 1e400 and true are not dimensions.
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    if dim_max is not None and dim > dim_max:
        raise ValueError(f"dim must be <= {dim_max}, got {dim}")
    if re.shape != im.shape or re.ndim != 1:
        raise ValueError("re and im must be flat lists of equal length")
    # Parts assigned, not re + 1j * im: that loses the sign of a zero and
    # makes an infinite imaginary part a nan real part.
    z = np.empty(re.size, dtype=np.complex128)
    z.real = re
    z.imag = im
    return dim, z


def state_from_dict(payload: dict) -> np.ndarray:
    return _state(*_parts(payload))


def _state(dim: int, z: np.ndarray) -> np.ndarray:
    if z.size != dim:
        raise ValueError(f"state payload has {z.size} entries, expected dim = {dim}")
    return z


def matrix_from_dict(payload: dict) -> np.ndarray:
    return _matrix(*_parts(payload))


def _matrix(dim: int, z: np.ndarray) -> np.ndarray:
    if z.size != dim * dim:
        raise ValueError(
            f"matrix payload has {z.size} entries, expected dim^2 = {dim * dim}"
        )
    return z.reshape(dim, dim)


def save_state(path, psi) -> None:
    Path(path).write_text(json.dumps(state_to_dict(psi)), encoding="utf-8")


def _decode_list(loads, data: bytes, start: int, end: int, out: np.ndarray) -> bool:
    """Decode the list between the brackets data[start] and data[end] into
    out, a chunk at a time; whether its chunks held only numbers, filling out."""
    view, filled = memoryview(data), 0
    size = min(_DECODE_CHUNK, (end - start) * _DECODE_COUNT // out.size)
    while start < end:
        cut = data.find(b",", start + size, end)
        cut = end if cut < 0 else cut
        chunk = b"[%b]" % view[start + 1:cut]
        if chunk.translate(None, _NUMBER_BYTES) != b"[]":
            return False
        numbers = loads(chunk)
        count = len(numbers)
        if not count or filled + count > out.size:
            return False
        # Packed, not np.fromiter: a third of the time, to the same bits.
        out[filled:filled + count] = np.frombuffer(struct.pack("%dd" % count, *numbers))
        filled += count
        start = cut
    return filled == out.size


def _plain_parts(data: bytes, dim_max: int | None, square: bool) -> tuple[int, np.ndarray] | None:
    """dim and the complex entries of a plain file, or None to hand it to
    json (see the module's docstring)."""
    try:
        # Here, not at the top: importing zenogeo does not load orjson.
        from orjson import loads
    except ImportError:
        from json import loads
    try:
        o1, c1 = data.index(b"["), data.index(b"]")
        o2, c2 = data.index(b"[", c1), data.rindex(b"]")
        # More text outside the lists than keys, dim and layout goes to json.
        if len(data) - (c1 - o1) - (c2 - o2) > _HEAD_BYTES:
            return None
        head = data[:o1 + 1] + data[c1:o2 + 1] + data[c2:]
        if head.translate(None, _NUMBER_BYTES) not in _PLAIN_SKELETONS:
            return None
        head = loads(head)
        dim = head.get("dim")
        if head.keys() != {"dim", "re", "im"} or type(dim) is not int or dim < 1:
            return None
        # A list of c - o bytes, brackets and all, holds at most (c - o) / 2
        # numbers: a dim its lists cannot fill allocates nothing.
        count = dim * dim if square else dim
        if (dim_max is not None and dim > dim_max) or 2 * count > min(c1 - o1, c2 - o2):
            return None
        z = np.empty(count, dtype=np.complex128)
        first, second = (z.real, z.imag) if next(k for k in head if k != "dim") == "re" else (z.imag, z.real)
        if _decode_list(loads, data, o1, c1, first) and _decode_list(loads, data, o2, c2, second):
            return dim, z
        return None
    # json reads an integer past the double range, which struct refuses.
    except (ValueError, struct.error):
        return None


def _load(path, dim_max: int | None, square: bool) -> tuple[int, np.ndarray]:
    """dim and the complex entries of a file, of a matrix when square (see
    the module's docstring)."""
    path = Path(path)
    if dim_max is not None:
        most = _ENTRY_BYTES * 2 * (dim_max * dim_max if square else dim_max) + _HEAD_BYTES
        if (size := path.stat().st_size) > most:
            raise ValueError(f"file has {size} bytes, more than the {most} of a dim-{dim_max} input")
    data = path.read_bytes()
    parts = _plain_parts(data, dim_max, square)
    if parts:
        return parts
    # The text read_text(encoding="utf-8") gives, so that json's messages
    # count the same characters.  The bytes go before json decodes (a 43 MB
    # file peaked 41 MB higher), and the replaces, ten times as long as the
    # decode, run only on text with a CR.
    text = data.decode("utf-8")
    del data
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        payload = json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc
    return _parts(payload, dim_max)


def load_state(path, dim_max: int | None = None) -> np.ndarray:
    return _state(*_load(path, dim_max, False))


def save_matrix(path, A) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(A)), encoding="utf-8")


def load_matrix(path, dim_max: int | None = None) -> np.ndarray:
    return _matrix(*_load(path, dim_max, True))
