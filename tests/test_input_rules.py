"""One copy of each input rule: every public call that takes a state, a
state and an operator, or a count rejects a bad one with the same
message, raised by one private helper in ``linalg``."""
import math
import warnings

import numpy as np
import pytest

from zenogeo import geometry, linalg, qubit, zeno
from zenogeo.linalg import SIGMA_X, SIGMA_Z

E1 = np.array([1.0, 0.0], dtype=complex)
P1 = np.diag([1.0, 0.0]).astype(complex)
HQ = qubit.QubitHamiltonian(0.0, 1.0, 0.0, 0.0)

#: The ray functions, each taking a 2-component state: a (near-)zero one
#: has no ray.
RAY_FUNCTIONS = {
    "normalize": linalg.normalize,
    "variance": lambda psi: linalg.variance(SIGMA_X, psi),
    "homogeneous_expectation": lambda psi: geometry.homogeneous_expectation(SIGMA_X, psi),
    "projective_metric_length": lambda psi: geometry.projective_metric_length(SIGMA_X, psi),
    "qubit_zeno_time": lambda psi: qubit.qubit_zeno_time(HQ, psi),
}


@pytest.mark.parametrize("call", RAY_FUNCTIONS.values(), ids=RAY_FUNCTIONS.keys())
def test_ray_functions_share_the_zero_state_message(call):
    with pytest.raises(ValueError, match=r"^state is \(near-\)zero: \|psi\|\^2 = 2\.000e-18 <= 1e-14$"):
        call(np.full(2, 1e-9 + 0j))


@pytest.mark.parametrize("call", RAY_FUNCTIONS.values(), ids=RAY_FUNCTIONS.keys())
def test_ray_functions_accept_a_state_above_the_floor(call):
    # |psi|^2 = 2e-12, a hundred times the floor: a ray like any other.
    call(np.full(2, 1e-6 + 0j))


#: The ray functions and zeno_time, which reads its ray through variance.
RAY_VALUES = {**RAY_FUNCTIONS, "zeno_time": lambda psi: linalg.zeno_time(psi, SIGMA_X)}


@pytest.mark.parametrize("ray", [[1.0, 1.0j], [1.0 + 1.0j, 1.0 - 1.0j]], ids=["inf", "nan"])
@pytest.mark.parametrize("call", RAY_VALUES.values(), ids=RAY_VALUES.keys())
def test_a_state_whose_norm_overflows_gives_its_ray(call, ray):
    # |1e200 ray|^2 overflows, to inf, or to nan where an entry has both
    # parts huge.  The state is divided by its largest part, 1e200, to the
    # bits of ray, with no warning, and gives the value of the unit ray.
    ray = np.array(ray)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(1e200 * ray)
    np.testing.assert_array_equal(got, call(ray))
    unit = ray / np.linalg.norm(ray)
    np.testing.assert_allclose(got, call(unit), rtol=1e-15, atol=1e-15)


def test_a_state_whose_norm_is_finite_keeps_its_bits():
    # |psi|^2 = 1e308 is finite: no rescaling.
    psi = np.array([1e154, 3e-300j])
    np.testing.assert_array_equal(linalg.normalize(psi), psi / math.sqrt(linalg.norm_sq(psi)))


def test_variance_checks_the_dimensions():
    # Before the shared rule, numpy's matmul message came out here.
    with pytest.raises(ValueError, match=r"^dimension mismatch"):
        linalg.variance(np.eye(3), [1, 0])
    with pytest.raises(ValueError, match=r"^dimension mismatch"):
        linalg.zeno_time([1, 0], np.eye(3))


#: Every public call that pairs a 2-component state with a 3 x 3 operator.
MISMATCHED = {
    "expectation_value": lambda: linalg.expectation_value(np.eye(3), E1),
    "variance": lambda: linalg.variance(np.eye(3), E1),
    "zeno_time": lambda: linalg.zeno_time(E1, np.eye(3)),
    "evolve": lambda: linalg.evolve(E1, np.eye(3), 1.0),
    "survival_probability": lambda: linalg.survival_probability(E1, np.eye(3), 1.0),
    "short_time_coefficient": lambda: linalg.short_time_coefficient(E1, np.eye(3)),
    "differential": lambda: geometry.differential(np.eye(3), E1),
    "hamiltonian_vector_field": lambda: geometry.hamiltonian_vector_field(np.eye(3), E1),
    "homogeneous_expectation": lambda: geometry.homogeneous_expectation(np.eye(3), E1),
    "projective_metric_length": lambda: geometry.projective_metric_length(np.eye(3), E1),
    "poisson_bracket": lambda: geometry.poisson_bracket(np.eye(3), np.eye(3), E1),
    "jordan_bracket": lambda: geometry.jordan_bracket(np.eye(3), np.eye(3), E1),
    "ZenoSetup": lambda: zeno.ZenoSetup(np.eye(3), np.diag([1.0, 0.0, 0.0]), E1),
}


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_one_dimension_mismatch_message(call):
    with pytest.raises(
        ValueError, match=r"^dimension mismatch: state has shape \(2,\), operator \(3, 3\)$"
    ):
        call()


@pytest.mark.parametrize("bracket", [geometry.poisson_bracket, geometry.jordan_bracket])
def test_brackets_check_the_state_once(bracket, record_calls):
    seen = record_calls(linalg.as_state)
    bracket(SIGMA_X, SIGMA_Z, E1)
    assert len(seen) == 1


def _setup():
    return zeno.ZenoSetup(SIGMA_X, P1, E1)


#: Each count of the library, given 0.
ZERO_COUNTS = {
    "zeno_product": (lambda: zeno.zeno_product(_setup(), 1.0, 0), "measurement count N"),
    "measured_trajectory-N": (lambda: zeno.measured_trajectory(_setup(), 1.0, 0, 1), "measurement count N"),
    "measured_trajectory-samples": (lambda: zeno.measured_trajectory(_setup(), 1.0, 4, 0), "samples"),
    "integrate_zeno_flow": (
        lambda: qubit.integrate_zeno_flow(HQ, qubit.BlochPoint(1.0, 0.0, 0.0, 1.0), 1.0, 0),
        "samples",
    ),
}


@pytest.mark.parametrize("call,what", ZERO_COUNTS.values(), ids=ZERO_COUNTS.keys())
def test_counts_below_one_are_rejected(call, what):
    with pytest.raises(ValueError, match=rf"^{what} must be >= 1, got 0$"):
        call()


def test_the_flow_checks_its_time_with_the_one_time_check(record_calls):
    seen = record_calls(linalg._require_finite_phases)
    equator = qubit.BlochPoint(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^phase max\|E\| max\|t\| = inf is not finite$"):
        qubit.integrate_zeno_flow(qubit.QubitHamiltonian(0.0, 0.0, 0.0, 1e300), equator, 1e300, 4)
    assert [list(E) for E in seen] == [[1e300]]
