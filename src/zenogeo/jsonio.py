"""JSON interchange for states and matrices.

The on-disk form is ``{"dim": n, "re": [...], "im": [...]}`` with row-major
real and imaginary parts: length n for a state, n*n for a matrix.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np


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


def _parts(payload: dict) -> tuple[int, np.ndarray, np.ndarray]:
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
    return dim, re, im


def state_from_dict(payload: dict) -> np.ndarray:
    dim, re, im = _parts(payload)
    if re.size != dim:
        raise ValueError(f"state payload has {re.size} entries, expected dim = {dim}")
    return re + 1j * im


def matrix_from_dict(payload: dict) -> np.ndarray:
    dim, re, im = _parts(payload)
    if re.size != dim * dim:
        raise ValueError(
            f"matrix payload has {re.size} entries, expected dim^2 = {dim * dim}"
        )
    return (re + 1j * im).reshape(dim, dim)


def save_state(path, psi) -> None:
    Path(path).write_text(json.dumps(state_to_dict(psi)))


def load_state(path) -> np.ndarray:
    return state_from_dict(json.loads(Path(path).read_text()))


def save_matrix(path, A) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(A)))


def load_matrix(path) -> np.ndarray:
    return matrix_from_dict(json.loads(Path(path).read_text()))
