import dataclasses
import decimal
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernmetric import (
    DiscreteLaplace,
    DiscreteMeasure,
    DomainError,
    Euclidean,
    ExpSqrt,
    Gaussian,
    InverseRational,
    complete_monotonicity_check,
    is_strictly_pd_class,
    make_radial_hilbert,
    mmd,
    profile_from_json,
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


@pytest.mark.parametrize("phi", ALL_PROFILES, ids=lambda p: type(p).__name__)
def test_nan_argument_rejected_and_infinity_decays_to_zero(phi):
    # NaN is not >= 0: a scalar or an array holding one is refused, not returned as NaN
    with pytest.raises(DomainError, match="nonnegative"):
        phi(math.nan)
    with pytest.raises(DomainError, match="nonnegative"):
        phi(np.array([0.5, math.nan]))
    assert phi(math.inf) == 0.0
    np.testing.assert_array_equal(phi(np.array([math.inf, math.inf])), [0.0, 0.0])


def test_nan_profile_fails_monotonicity():
    assert not complete_monotonicity_check(lambda t: math.nan, [0.0, 1.0])


def test_strict_pd_classification():
    assert not is_strictly_pd_class(DiscreteLaplace(atoms=((0.0, 1.0),)))
    assert is_strictly_pd_class(Gaussian(alpha=2.0))
    assert is_strictly_pd_class(DiscreteLaplace(atoms=((0.0, 0.5), (3.0, 0.5))))
    assert is_strictly_pd_class(ExpSqrt(c=1.0))
    assert is_strictly_pd_class(InverseRational(beta=1.0, scale=1.0))


def test_complete_monotonicity_gaussian():
    grid = np.arange(0.0, 5.5, 0.5)
    assert complete_monotonicity_check(Gaussian(alpha=1.0), grid, 4)
    assert complete_monotonicity_check(Gaussian(alpha=1.0), grid, 6)  # the highest order


def test_complete_monotonicity_inverse_rational():
    grid = np.arange(0.0, 5.5, 0.5)
    assert complete_monotonicity_check(InverseRational(beta=1.0, scale=1.0), grid, 4)


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


@pytest.mark.parametrize("make", [
    lambda v: Gaussian(alpha=v),
    lambda v: ExpSqrt(c=v),
    lambda v: InverseRational(beta=v, scale=1.0),
    lambda v: InverseRational(beta=1.0, scale=v),
    lambda v: DiscreteLaplace(atoms=((v, 1.0),)),
    lambda v: DiscreteLaplace(atoms=((1.0, v),)),
], ids=["gaussian_alpha", "exp_sqrt_c", "inverse_rational_beta", "inverse_rational_scale",
        "discrete_laplace_rate", "discrete_laplace_weight"])
def test_infinite_parameter_rejected(make):
    make(2.0)
    with pytest.raises(DomainError, match="finite"):
        make(math.inf)


@pytest.mark.parametrize("phi", [
    Gaussian(alpha=1.6e308),
    ExpSqrt(c=1.6e308),
    InverseRational(beta=1.6e308, scale=2.0),
    DiscreteLaplace(atoms=((1.6e308, 1.0),)),
], ids=["gaussian", "exp_sqrt", "inverse_rational", "discrete_laplace"])
def test_rate_near_the_double_limit_decays_to_zero_quietly(phi):
    """A rate times t past the float range is inf: phi is exp(-inf) = 0 there, with no
    overflow warning, and phi(0) is still the mass of the mixing measure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = phi(np.array([0.0, 4.0, 1e300]))
    np.testing.assert_array_equal(values, [1.0, 0.0, 0.0])


def test_discrete_laplace_atom_at_rate_zero_is_constant_at_infinity():
    """A rate-0 atom adds its weight at every t, t = inf (an overflowing distance)
    included, with no invalid-value warning from 0 * inf."""
    phi = DiscreteLaplace(atoms=((0.0, 0.25), (1.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = phi(np.array([0.0, 1.0, math.inf]))
    np.testing.assert_array_equal(values, [1.25, 0.25 + np.exp(-1.0), 0.25])


def test_discrete_laplace_weight_sum_past_the_double_limit_is_refused_quietly():
    """Weights whose sum overflows give phi(0) = inf without a warning; the kernel's
    finiteness check refuses it."""
    phi = DiscreteLaplace(atoms=((1.0, 1e308), (2.0, 1e308)))
    p = DiscreteMeasure(Euclidean(1), (np.array([0.0]),), np.array([1.0]))
    q = DiscreteMeasure(Euclidean(1), (np.array([1.0]),), np.array([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi(0.0) == math.inf
        with pytest.raises(DomainError, match="overflow"):
            mmd(make_radial_hilbert(phi, Euclidean(1)), p, q)


def _inverse_rational_closed_form(beta: float, scale: float, t: float) -> float:
    """exp(-beta * log(1 + t / scale)), evaluated in 60-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=60)):
        log_base = (1 + decimal.Decimal(t) / decimal.Decimal(scale)).ln()
        return float((-decimal.Decimal(beta) * log_base).exp())


@pytest.mark.parametrize("beta,scale", [(1e-320, 1e-320), (1.0, 1e-320), (1.0, 1.0), (0.5, 2.0)])
def test_inverse_rational_matches_log_space_closed_form(beta, scale):
    t = np.array([0.0, 5e-324, 1e-320, 1e-300, 1e-5, 0.5, 1.0, 2.0, 1e3, 1e300, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = InverseRational(beta=beta, scale=scale)(t)
    expected = np.array([_inverse_rational_closed_form(beta, scale, v) for v in t])
    # two units in the last place of the subnormals, where the closed form is below 1e-308
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-323)


def test_inverse_rational_with_tiny_parameters_gives_zero_mmd():
    phi = InverseRational(beta=1e-320, scale=1e-320)
    p = DiscreteMeasure(Euclidean(1), (np.array([0.0]),), np.array([1.0]))
    q = DiscreteMeasure(Euclidean(1), (np.array([1.0]),), np.array([1.0]))
    assert phi(1.0) == 1.0
    assert mmd(make_radial_hilbert(phi, Euclidean(1)), p, q) == 0.0


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
    # each profile's fields, written as JSON text under its family name, read back equal
    families = {Gaussian: "gaussian", DiscreteLaplace: "discrete_laplace",
                ExpSqrt: "exp_sqrt", InverseRational: "inverse_rational"}
    for phi in ALL_PROFILES:
        text = json.dumps({"family": families[type(phi)], **dataclasses.asdict(phi)})
        assert profile_from_json(json.loads(text)) == phi


def test_json_known_forms():
    assert profile_from_json({"family": "gaussian", "alpha": 0.5}) == Gaussian(alpha=0.5)
    phi = profile_from_json(
        {"family": "discrete_laplace", "atoms": [[1.0, 0.5], [2.0, 0.5]]}
    )
    assert phi == DiscreteLaplace(atoms=((1.0, 0.5), (2.0, 0.5)))
    assert profile_from_json({"family": "exp_sqrt", "c": 1.5}) == ExpSqrt(c=1.5)
    phi = profile_from_json({"family": "inverse_rational", "beta": 2.0, "scale": 0.5})
    assert phi == InverseRational(beta=2.0, scale=0.5)
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
