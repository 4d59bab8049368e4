"""Per-layer spans for the traced benchmark run.

The tracer wraps zenogeo's module-level functions from outside the
package: ``install`` replaces each listed function, in every ``zenogeo``
namespace that bound it, by a wrapper that records a span (layer,
function, start, end, parent).  Spans stay in memory; ``layer_totals``
turns a pass's spans into calls, self time and kernel steps per layer.
"""
from __future__ import annotations

import fnmatch
import functools
import inspect
import sys
import time

#: layer -> (module, function-name patterns).  Patterns, so that a parser
#: added under the same naming scheme is timed without editing this table.
LAYERS = {
    "cli.parse": ("cli", ["parse_*_spec", "parse_bloch_start"]),
    "cli.render": ("cli", ["_render_csv", "_render_json", "_write_text"]),
    "jsonio.load": ("jsonio", ["load_matrix", "load_state"]),
    "linalg.validate": ("linalg", ["require_hermitian", "require_projector", "require_normalized"]),
    "linalg.propagator": ("linalg", ["expm_antihermitian"]),
    "linalg.survival": ("linalg", ["evolve", "survival_amplitude", "survival_probability", "variance"]),
    "linalg.richardson": ("linalg", ["short_time_coefficient"]),
    "linalg.norm": ("linalg", ["spectral_norm"]),
    "zeno.product": ("zeno", ["zeno_product", "convergence_scan"]),
    "zeno.limit": ("zeno", ["zeno_hamiltonian", "zeno_limit_unitary"]),
    "zeno.trajectory": ("zeno", ["measured_trajectory"]),
    "kernels.chain": ("kernels", ["matrix_chain"]),
    "kernels.apply": ("kernels", ["repeated_apply"]),
    "kernels.rk4": ("kernels", ["rk4_linear_trajectory"]),
    "qubit.flow": ("qubit", ["integrate_zeno_flow"]),
    "qubit.freeze": ("qubit", ["frozen_state_check"]),
    "geometry.bracket": ("geometry", ["poisson_bracket", "jordan_bracket"]),
}

#: Kernel layers also count steps: the argument that sets the loop length.
STEP_ARGS = {
    "kernels.chain": "count",
    "kernels.apply": "n_steps",
    "kernels.rk4": "steps",
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        #: (layer, function, start, end, parent index or -1, steps)
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        #: "layer: pattern" for every listed pattern that wrapped nothing.
        self.unmatched: list[str] = []

    def _wrap(self, layer: str, name: str, fn):
        step_arg = STEP_ARGS.get(layer)
        signature = inspect.signature(fn) if step_arg else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = 0
            if signature is not None:
                steps = int(signature.bind(*args, **kwargs).arguments.get(step_arg, 0))
            index = len(spans)
            spans.append((layer, name, 0.0, 0.0, stack[-1] if stack else -1, steps))
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, name, start, end, spans[index][4], steps)

        return wrapper

    def install(self) -> None:
        """Wrap every function listed in LAYERS wherever zenogeo bound it.

        ``zeno`` imports ``expm_antihermitian`` and ``spectral_norm`` by
        name, and ``zenogeo/__init__`` re-exports most functions, so patching
        the defining module alone would miss those calls.  A pattern that
        matches no plain Python function (renamed, removed, or compiled,
        e.g. a numba dispatcher) is listed in ``unmatched``: its calls go
        untimed, and a layer that reads 0 for that reason must not be
        taken for a layer that got faster.
        """
        namespaces = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "zenogeo" or name.startswith("zenogeo."))
        ]
        for layer, (module, patterns) in LAYERS.items():
            home = sys.modules.get(f"zenogeo.{module}")
            functions = {
                attr: fn for attr, fn in (vars(home).items() if home is not None else ())
                if inspect.isfunction(fn)
            }
            for pattern in patterns:
                if not any(fnmatch.fnmatchcase(attr, pattern) for attr in functions):
                    self.unmatched.append(f"{layer}: {module}.{pattern}")
            for attr, fn in functions.items():
                if not any(fnmatch.fnmatchcase(attr, p) for p in patterns):
                    continue
                wrapper = self._wrap(layer, attr, fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._installed.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        for ns, bound, fn in reversed(self._installed):
            setattr(ns, bound, fn)
        self._installed.clear()


def layer_totals(spans, first: int = 0) -> dict[str, dict[str, float]]:
    """Calls, self seconds and kernel steps per layer for spans[first:].

    Self time is a span's duration minus the time its child spans cover.
    """
    child_time = [0.0] * (len(spans) - first)
    for layer, _, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child_time[parent - first] += end - start
    totals = {layer: {"calls": 0, "self_s": 0.0, "steps": 0} for layer in LAYERS}
    for i, (layer, _, start, end, _, steps) in enumerate(spans[first:]):
        entry = totals[layer]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["steps"] += steps
    return totals
