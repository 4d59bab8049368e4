"""JSON interchange for states and matrices.

The on-disk form is ``{"dim": n, "re": [...], "im": [...]}`` with row-major
real and imaginary parts: length n for a state, n*n for a matrix.

Loads decode with orjson when it is installed: it reads every number to
the same double as json, bit for bit, about seven times as fast.  What
orjson refuses (NaN, Infinity, numbers past the double range, lone
surrogates) is decoded by json, and so is text with more brackets than
_FAST_BRACKETS.  So a file gives the same arrays, or fails with
ValueError, with or without orjson.  Only one message differs: orjson
reads an integer past 64 bits as a float, so such a ``dim`` fails the
integer check rather than the size check.

Before it decodes, a load deletes every byte a JSON number or a separator
can hold, in one C-level pass over chunks of the text.  The rest is the
file's skeleton, ``{"dim""r"[]"im"[]}`` for a plain file, whose brackets
are the orjson guard.  When the skeleton is that plain form, in any key
order, every re and im entry is a JSON number, and the per-entry type
scan of the decoded lists is skipped; any other file gets the scan.
"""
from __future__ import annotations

import json
from itertools import permutations
from pathlib import Path

import numpy as np

#: Most brackets ("[" and "{") in text that orjson decodes, which bounds
#: the nesting: orjson has no depth limit and overflows the C stack on
#: deep input (3.8.3 crashed at 100 000 levels).  A state or matrix file
#: has three.
_FAST_BRACKETS = 1000

#: The bytes of JSON numbers, separators and whitespace.  A value made of
#: these alone is a number: a string, a list and true, false or null keep
#: a byte.
_NUMBER_BYTES = b"0123456789+-.eE,: \t\n\r"

#: Skeletons of files that hold the three keys and nothing else, with re
#: and im flat lists of numbers ("re" loses its e).
_PLAIN_SKELETONS = frozenset(
    b"{" + b"".join(keys) + b"}" for keys in permutations([b'"dim"', b'"r"[]', b'"im"[]'])
)
_PLAIN_SIZE = len(b'{"dim""r"[]"im"[]}')

#: Characters of text encoded and scanned at a time.  Each chunk makes
#: three temporaries of its size; at 16 KiB they leave the peak memory of
#: a process that loads many files flat, where 64 KiB chunks raised it by
#: 0.7%, and the scan takes as long.
_SCAN_CHUNK = 1 << 14


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


def _parts(payload: dict, plain: bool = False) -> tuple[int, np.ndarray]:
    """dim and the complex entries of a payload; plain says that it was
    decoded from text with a plain skeleton, so re and im hold numbers."""
    try:
        dim, re, im = payload["dim"], payload["re"], payload["im"]
        # A string would reach numpy, a dict be scanned by its keys.
        if type(re) is not list or type(im) is not list:
            raise TypeError("re and im must be flat lists of equal length")
        # Entry types, not isinstance: true is an int and not a number, and
        # numpy would read "1" as 1.0 and null as nan.
        if not plain and not set(map(type, re)) | set(map(type, im)) <= {int, float}:
            raise ValueError("re and im entries must be JSON numbers")
        re = np.asarray(re, dtype=np.float64)
        im = np.asarray(im, dtype=np.float64)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"payload missing or malformed field: {exc}") from exc
    # A JSON integer: 2.7, 1e400 and true are not dimensions.
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
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
    Path(path).write_text(json.dumps(state_to_dict(psi)))


def _scan(text: str) -> tuple[int, bool]:
    """The brackets ("[" and "{") in text, and whether its skeleton is plain."""
    brackets, skeleton = 0, b""
    for start in range(0, len(text), _SCAN_CHUNK):
        rest = text[start:start + _SCAN_CHUNK].encode("utf-8", "surrogatepass")
        rest = rest.translate(None, _NUMBER_BYTES)
        brackets += rest.count(b"[") + rest.count(b"{")
        # A skeleton longer than a plain one is not plain: keep no more.
        if len(skeleton) <= _PLAIN_SIZE:
            skeleton += rest
    return brackets, skeleton in _PLAIN_SKELETONS


def _loads(text: str) -> tuple[object, bool]:
    """json.loads(text), through orjson when it is installed and accepts
    text, and whether the text's skeleton is plain (see the module's
    docstring): then a decoded dict's re and im hold only numbers."""
    brackets, plain = _scan(text)
    if brackets <= _FAST_BRACKETS:
        try:
            # Here, not at the top: importing zenogeo does not load orjson.
            from orjson import JSONDecodeError, loads
        except ImportError:
            pass
        else:
            try:
                return loads(text), plain
            except JSONDecodeError:
                pass
    try:
        return json.loads(text), plain
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def load_state(path) -> np.ndarray:
    return _state(*_parts(*_loads(Path(path).read_text())))


def save_matrix(path, A) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(A)))


def load_matrix(path) -> np.ndarray:
    return _matrix(*_parts(*_loads(Path(path).read_text())))
