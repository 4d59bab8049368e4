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
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Most brackets ("[" and "{") in text that orjson decodes, which bounds
#: the nesting: orjson has no depth limit and overflows the C stack on
#: deep input (3.8.3 crashed at 100 000 levels).  A state or matrix file
#: has three.
_FAST_BRACKETS = 1000


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


def _parts(payload: dict) -> tuple[int, np.ndarray]:
    try:
        dim, re, im = payload["dim"], payload["re"], payload["im"]
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
    if re.shape != im.shape or re.ndim != 1:
        raise ValueError("re and im must be flat lists of equal length")
    # Parts assigned, not re + 1j * im: that loses the sign of a zero and
    # makes an infinite imaginary part a nan real part.
    z = np.empty(re.size, dtype=np.complex128)
    z.real = re
    z.imag = im
    return dim, z


def state_from_dict(payload: dict) -> np.ndarray:
    dim, z = _parts(payload)
    if z.size != dim:
        raise ValueError(f"state payload has {z.size} entries, expected dim = {dim}")
    return z


def matrix_from_dict(payload: dict) -> np.ndarray:
    dim, z = _parts(payload)
    if z.size != dim * dim:
        raise ValueError(
            f"matrix payload has {z.size} entries, expected dim^2 = {dim * dim}"
        )
    return z.reshape(dim, dim)


def save_state(path, psi) -> None:
    Path(path).write_text(json.dumps(state_to_dict(psi)))


def _loads(text: str):
    """json.loads(text), through orjson when it is installed and accepts text."""
    if text.count("[") + text.count("{") <= _FAST_BRACKETS:
        try:
            # Here, not at the top: importing zenogeo does not load orjson.
            from orjson import JSONDecodeError, loads
        except ImportError:
            pass
        else:
            try:
                return loads(text)
            except JSONDecodeError:
                pass
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def load_state(path) -> np.ndarray:
    return state_from_dict(_loads(Path(path).read_text()))


def save_matrix(path, A) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(A)))


def load_matrix(path) -> np.ndarray:
    return matrix_from_dict(_loads(Path(path).read_text()))
