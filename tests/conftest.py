"""Shared draws, independent oracles and call counters for the test suite."""
import functools
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest

# Allow running the suite from a checkout without installing the package.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
try:
    import zenogeo  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(_SRC))

# Hypothesis's pytest plugin imports hypothesis.extra._patching only when a
# @given test fails, and that import (through libcst) warns that
# mypy_extensions.TypedDict is deprecated; under filterwarnings = ["error"]
# the warning aborted the whole run.  Imported here, once, with that one
# warning ignored for the import alone; the plugin skips the module when
# libcst is missing, and so does this.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # pragma: no cover
        pass


from zenogeo import linalg  # noqa: E402


@pytest.fixture(autouse=True)
def empty_eigh_memo():
    """Every test starts and ends with an empty linalg._eigh memo: a
    matrix another test decomposed would be a hit, and skip a patched or
    counted np.linalg.eigh."""
    linalg._eigh_memo.clear()
    yield
    linalg._eigh_memo.clear()


def random_hermitian(rng: np.random.Generator, n: int, scale: float | None = None):
    R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = 0.5 * (R + R.conj().T)
    if scale is not None:
        top = np.max(np.abs(np.linalg.eigvalsh(H)))
        if top > 0:
            H *= scale / top
    return H


def random_state(rng: np.random.Generator, n: int, normalized: bool = True):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if normalized:
        psi /= np.linalg.norm(psi)
    return psi


def random_rank_projector(rng: np.random.Generator, n: int, r: int):
    R = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    Q, _ = np.linalg.qr(R)
    return Q @ Q.conj().T


def taylor_expm(M: np.ndarray, terms: int = 20) -> np.ndarray:
    """Plain truncated power series for exp(M); oracle for small |M|."""
    out = np.eye(M.shape[0], dtype=np.complex128)
    term = np.eye(M.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


def scaled_taylor_expm(M: np.ndarray, terms: int = 20) -> np.ndarray:
    """Scaling-and-squaring around the truncated series; oracle for any |M|.

    Independent of the eigendecomposition used by the package.
    """
    norm = np.linalg.norm(M, 2)
    s = max(0, math.ceil(math.log2(max(norm, 1e-300) / 0.5)))
    out = taylor_expm(M / 2**s, terms=terms)
    for _ in range(s):
        out = out @ out
    return out


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(fn) returns a list that, from then on, receives the
    first argument of every call of fn, in every zenogeo module that
    bound fn (``zeno`` imports ``require_hermitian`` by name, for one)."""

    def install(fn):
        seen = []

        @functools.wraps(fn)
        def recording(*args, **kwargs):
            seen.append(args[0])
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "zenogeo" or name.startswith("zenogeo."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, recording)
        return seen

    return install
