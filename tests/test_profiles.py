import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernmetric import (
    DiscreteLaplace,
    DomainError,
    ExpSqrt,
    Gaussian,
    InverseRational,
    complete_monotonicity_check,
    is_strictly_pd_class,
    profile_from_json,
    profile_to_json,
)

ALL_PROFILES = [
    Gaussian(alpha=1.0),
    DiscreteLaplace(atoms=((1.0, 0.5), (2.0, 0.5))),
    ExpSqrt(c=1.0),
    InverseRational(beta=1.0, scale=1.0),
]


def test_gaussian_at_zero():
    assert Gaussian(alpha=1.0)(0.0) == 1.0


def test_gaussian_at_log2():
    assert Gaussian(alpha=1.0)(math.log(2.0)) == pytest.approx(0.5, rel=1e-15)


def test_discrete_laplace_mass_at_zero():
    phi = DiscreteLaplace(atoms=((1.0, 0.5), (2.0, 0.5)))
    assert phi(0.0) == pytest.approx(1.0, abs=1e-15)


def test_exp_sqrt_closed_form():
    assert ExpSqrt(c=1.0)(4.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        Gaussian(alpha=1.0)(-0.1)


def test_invalid_parameters_rejected():
    with pytest.raises(DomainError):
        Gaussian(alpha=0.0)
    with pytest.raises(DomainError):
        DiscreteLaplace(atoms=((1.0, -0.5),))
    with pytest.raises(DomainError):
        DiscreteLaplace(atoms=((-1.0, 0.5),))
    with pytest.raises(DomainError):
        InverseRational(beta=0.0, scale=1.0)


def test_strict_pd_classification():
    assert not is_strictly_pd_class(DiscreteLaplace(atoms=((0.0, 1.0),)))
    assert is_strictly_pd_class(Gaussian(alpha=2.0))
    assert is_strictly_pd_class(DiscreteLaplace(atoms=((0.0, 0.5), (3.0, 0.5))))
    assert is_strictly_pd_class(ExpSqrt(c=1.0))
    assert is_strictly_pd_class(InverseRational(beta=1.0, scale=1.0))


def test_complete_monotonicity_gaussian():
    grid = np.arange(0.0, 5.5, 0.5)
    assert complete_monotonicity_check(Gaussian(alpha=1.0), grid, 4)


def test_complete_monotonicity_inverse_rational():
    grid = np.arange(0.0, 5.5, 0.5)
    assert complete_monotonicity_check(InverseRational(beta=1.0, scale=1.0), grid, 4)


def test_complete_monotonicity_all_shipped_variants():
    grid = np.arange(0.0, 10.25, 0.25)
    for phi in ALL_PROFILES:
        assert complete_monotonicity_check(phi, grid, 4)


def test_cosine_fails_monotonicity():
    # test double: cos oscillates, so finite differences change sign
    class Cosine:
        def __call__(self, t):
            return math.cos(t)

    grid = np.arange(0.0, 5.5, 0.5)
    assert not complete_monotonicity_check(Cosine(), grid, 4)


def test_monotonicity_check_rejects_bad_grids():
    with pytest.raises(DomainError):
        complete_monotonicity_check(Gaussian(alpha=1.0), [], 4)
    with pytest.raises(DomainError):
        complete_monotonicity_check(Gaussian(alpha=1.0), [1.0, 0.5], 4)
    with pytest.raises(DomainError):
        complete_monotonicity_check(Gaussian(alpha=1.0), [0.0, 1.0], 7)


def test_discrete_laplace_matches_direct_summation():
    atoms = ((0.3, 0.2), (1.5, 0.5), (4.0, 0.3))
    phi = DiscreteLaplace(atoms=atoms)
    for t in (0.0, 0.1, 1.0, 3.7, 10.0):
        direct = sum(w * math.exp(-x * t) for x, w in atoms)
        assert phi(t) == pytest.approx(direct, rel=1e-14)


@settings(max_examples=100)
@given(
    t1=st.floats(min_value=0.0, max_value=50.0),
    t2=st.floats(min_value=0.0, max_value=50.0),
)
def test_profiles_nonincreasing(t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    for phi in ALL_PROFILES:
        assert phi(hi) <= phi(lo) + 1e-12 * phi(0.0)


def test_json_round_trip():
    for phi in ALL_PROFILES:
        assert profile_from_json(profile_to_json(phi)) == phi


def test_json_known_forms():
    assert profile_from_json({"family": "gaussian", "alpha": 0.5}) == Gaussian(alpha=0.5)
    phi = profile_from_json(
        {"family": "discrete_laplace", "atoms": [[1.0, 0.5], [2.0, 0.5]]}
    )
    assert phi == DiscreteLaplace(atoms=((1.0, 0.5), (2.0, 0.5)))
    with pytest.raises(DomainError):
        profile_from_json({"family": "nope"})


@pytest.mark.parametrize("phi", ALL_PROFILES, ids=lambda p: type(p).__name__)
def test_array_call_matches_scalar_call(phi):
    t = np.random.default_rng(7).uniform(0.0, 20.0, size=(6, 5))
    t[0, 0] = 0.0
    values = phi(t)
    assert isinstance(values, np.ndarray) and values.shape == t.shape
    expected = np.array([[phi(float(v)) for v in row] for row in t])
    np.testing.assert_array_equal(values, expected)
    assert type(phi(1.5)) is float
    with pytest.raises(DomainError):
        phi(np.array([[0.5, 1.0], [2.0, -1e-300]]))
