"""JSON interchange for states and matrices.

The on-disk form is ``{"dim": n, "re": [...], "im": [...]}`` with row-major
real and imaginary parts: length n for a state, n*n for a matrix.  A file
is read as its UTF-8 bytes, whatever the locale.

A load first deletes, chunk by chunk, every byte a JSON number or a
separator can hold.  What is left of a plain file is its skeleton
``{"dim""r"[]"im"[]}``, in any key order: its re and im hold only numbers,
so their entries are not type-checked one by one, and its three brackets
keep nesting away from orjson, which overflows its C stack on deep input.
orjson, when installed, decodes plain files only, to json's doubles bit
for bit; json decodes every other file and what orjson refuses.  A file
gives the same arrays, or fails with ValueError, with or without orjson.
Only one message differs: orjson reads an integer past 64 bits as a
float, so such a ``dim`` in a plain file fails the integer check rather
than the size check.
"""
from __future__ import annotations

import json
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
_PLAIN_SIZE = len(b'{"dim""r"[]"im"[]}')

#: Bytes scanned at a time.  Each chunk makes two temporaries of its size:
#: at 16 KiB the peak memory of a process that loads many files stays
#: flat, where one translate of the whole file raised the zeno-ladder
#: benchmark's peak RSS by 5.7%, and the scan is nearly as fast.
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
    Path(path).write_text(json.dumps(state_to_dict(psi)), encoding="utf-8")


def _plain(data: bytes) -> bool:
    """Whether the skeleton of data is plain (see the module's docstring)."""
    skeleton = b""
    for start in range(0, len(data), _SCAN_CHUNK):
        skeleton += data[start:start + _SCAN_CHUNK].translate(None, _NUMBER_BYTES)
        if len(skeleton) > _PLAIN_SIZE:
            return False
    return skeleton in _PLAIN_SKELETONS


def _loads(path) -> tuple[object, bool]:
    """json.loads of the file's UTF-8 text, through orjson when it is
    installed and the file is plain (see the module's docstring), and
    whether it is plain: then a decoded dict's re and im hold only numbers."""
    data = Path(path).read_bytes()
    plain = _plain(data)
    if plain:
        try:
            # Here, not at the top: importing zenogeo does not load orjson.
            from orjson import JSONDecodeError, loads
        except ImportError:
            pass
        else:
            try:
                return loads(data), plain
            except JSONDecodeError:
                pass
    # The text read_text(encoding="utf-8") gives, so that json's messages
    # count the same characters.  The bytes go before json decodes (a 43 MB
    # file peaked 41 MB higher), and the replaces, ten times as long as the
    # decode, run only on text with a CR.
    text = data.decode("utf-8")
    del data
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text), plain
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def load_state(path) -> np.ndarray:
    return _state(*_parts(*_loads(path)))


def save_matrix(path, A) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(A)), encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    return _matrix(*_parts(*_loads(path)))
