"""The scalar solvers and Frank's Kendall tau, a Debye-integral series,
against their oracles: scipy's brentq and bounded minimize_scalar (used
only here), and mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from archsurv._roots import RTOL_MIN, brentq, minimize_bounded
from archsurv.copulas import _DEBYE_SMALL, ArchimedeanCopula, tau_from_theta, theta_from_tau
from archsurv.errors import NoRootError
from archsurv.likelihood import TAU_BOUNDS, LikelihoodWorkspace, fit_joint_model
from archsurv.marginals import TAU_BRACKET, WeightSpec, _PairTable, censoring_km, solve_theta
from archsurv.simulate import ex1_config, simulate_dataset

# functions with one sign change at c: smooth, flat, steep, odd-order and
# discontinuous roots, and wiggles that make Brent leave the secant
ROOT_SHAPES = {
    "cubic": lambda c: lambda x: x**3 - c**3,
    "tanh": lambda c: lambda x: math.tanh(x - c),
    "exp": lambda c: lambda x: math.expm1(x - c),
    "fifth": lambda c: lambda x: (x - c) ** 5,
    "wiggle": lambda c: lambda x: math.atan(x - c) + 0.3 * math.sin(5 * (x - c)),
    "step": lambda c: lambda x: 1.0 if x > c else -1.0,
}

MIN_SHAPES = {
    "quadratic": lambda c: lambda x: (x - c) ** 2,
    "bumpy": lambda c: lambda x: -math.exp(-((x - c) ** 2)) + 0.1 * math.cos(7 * x),
    "kink": lambda c: lambda x: abs(x - c),
    "skew": lambda c: lambda x: math.cosh(x - c) + x**3,
}


def _scipy_brentq(f, a, b, xtol, rtol):
    root, res = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
    return root, res.function_calls


@settings(max_examples=400, deadline=None)
@given(
    shape=st.sampled_from(sorted(ROOT_SHAPES)),
    c=st.floats(-3, 3),
    left=st.floats(1e-3, 20),
    right=st.floats(1e-3, 20),
    flip=st.booleans(),
    log_xtol=st.floats(-14, -1),
    rtol_scale=st.floats(1, 1e8),
)
def test_brentq_takes_scipys_iterates(shape, c, left, right, flip, log_xtol, rtol_scale):
    f = ROOT_SHAPES[shape](c)
    a, b = (c + right, c - left) if flip else (c - left, c + right)
    xtol, rtol = 10.0**log_xtol, RTOL_MIN * rtol_scale
    try:
        expect = _scipy_brentq(f, a, b, xtol, rtol)
    except RuntimeError:  # scipy's iterations ran out (e.g. x**3 at c = 0)
        with pytest.raises(NoRootError, match="iterations"):
            brentq(f, a, b, xtol, rtol)
    else:
        assert brentq(f, a, b, xtol, rtol) == expect


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_brentq_on_the_concordance_score(family):
    # the root solve_theta searches for, step for step
    data = simulate_dataset(ex1_config(k=2, tau_alpha=0.3, n_train=150, seed=7)).train
    s_c = censoring_km(data)
    for k in range(data.k):
        table = _PairTable(k, data, s_c, WeightSpec())

        def f(tau):
            return table.score(ArchimedeanCopula(family, theta_from_tau(family, tau)))

        expect = _scipy_brentq(f, *TAU_BRACKET, 1e-6, RTOL_MIN)
        assert brentq(f, *TAU_BRACKET, xtol=1e-6) == expect
        info = {}
        assoc = solve_theta(k, data, family, s_c=s_c, info=info)
        assert info["evals"] == expect[1]
        assert assoc.theta_hat == theta_from_tau(family, expect[0])


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(sorted(MIN_SHAPES)),
    c=st.floats(-2, 2),
    lo=st.floats(-3, 1),
    width=st.floats(1e-3, 8),
    log_xatol=st.floats(-10, -2),
)
def test_minimize_bounded_takes_scipys_iterates(shape, c, lo, width, log_xatol):
    f = MIN_SHAPES[shape](c)
    xatol = 10.0**log_xatol
    res = optimize.minimize_scalar(
        f, bounds=(lo, lo + width), method="bounded", options={"xatol": xatol}
    )
    assert minimize_bounded(f, lo, lo + width, xatol) == (float(res.x), float(res.fun))


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_minimize_bounded_on_the_profile_likelihood(family):
    data = simulate_dataset(ex1_config(k=3, tau_alpha=0.4, n_train=120, seed=2)).train
    model = fit_joint_model(data, family)
    ws = LikelihoodWorkspace(
        data, family, [a.theta_hat for a in model.thetas], model.marginals, model.terminal
    )

    def neg(tau):
        return -ws.profile_loglik(tau_alpha=float(tau))

    res = optimize.minimize_scalar(neg, bounds=TAU_BOUNDS, method="bounded",
                                   options={"xatol": 1e-4})
    assert minimize_bounded(neg, *TAU_BOUNDS, xatol=1e-4) == (float(res.x), float(res.fun))
    assert (model.tau_alpha, model.loglik) == (float(res.x), -float(res.fun))


def test_brentq_raises_on_nan_and_on_exhausted_iterations():
    with pytest.raises(NoRootError, match="NaN"):
        brentq(lambda x: x if x < 0.5 else math.nan, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(NoRootError, match="NaN"):
        brentq(lambda x: math.nan, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(NoRootError, match="iterations"):
        brentq(ROOT_SHAPES["step"](0.3), -1.0, 2.0, xtol=1e-12, maxiter=5)
    with pytest.raises(NoRootError, match="same sign"):
        brentq(lambda x: x * x + 1, -1.0, 2.0, xtol=1e-12)
    assert brentq(lambda x: x, 0.0, 2.0, xtol=1e-12) == (0.0, 2)


# -- Frank's tau(theta) and its inverse -----------------------------------------


def _frank_tau_mpmath(theta):
    """Frank's tau = 1 - 4/theta + 4 D(theta) / theta^2 in mpmath, D the
    integral of t / (e^t - 1) over [0, theta], taken as theta^2 times the
    integral of s / (e^(theta s) - 1) over [0, 1], so that the quadrature sees
    unit scale at any theta; the nodes split where the integrand bends.  The
    form cancels 36 / theta^2 of its size, so the digits grow as |theta|
    falls; below 1e-6 the expansion theta/9 - theta^3/900 is exact past
    double precision."""
    if abs(theta) < 1e-6:
        with mp.workdps(50):
            x = mp.mpf(theta)
            return x / 9 - x**3 / 900
    with mp.workdps(40 + 2 * max(0, math.ceil(-math.log10(abs(theta))))):
        x = mp.mpf(theta)
        nodes = [0] + [c / abs(x) for c in (1, 5, 40) if c < abs(x)] + [1]
        return 1 - 4 / x + 4 * mp.quad(lambda s: s / mp.expm1(x * s), nodes)


DEBYE_POINTS = (
    [1e-300, 1e-12, 3e-9, 1e-7, 9.99e-7, 1e-4, 0.3, 1.0, 1.5]
    + [2.0 - 1e-12, 2.0, 2.0 + 1e-12, 2.0 + 2**-40, 2.1, 3.0, 8.0, 22.5, 44.9, 45.1]
    + [100.0, 699.0, 700.0, 700.5, 745.0, 800.0, 5000.0]
)


@pytest.mark.parametrize("x", DEBYE_POINTS + [-x for x in DEBYE_POINTS])
def test_debye_series_matches_mpmath(x):
    # Frank's tau at theta = x: the series below |x| = 2, the tail above it
    ref = _frank_tau_mpmath(x)
    assert abs((mp.mpf(tau_from_theta("frank", x)) - ref) / ref) <= 1e-15


@settings(max_examples=150, deadline=None)
@given(st.floats(math.log(1e-10), math.log(700.0)), st.booleans())
def test_debye_series_matches_mpmath_on_a_log_scale(log_x, negative):
    x = -math.exp(log_x) if negative else math.exp(log_x)
    ref = _frank_tau_mpmath(x)
    assert abs((mp.mpf(tau_from_theta("frank", x)) - ref) / ref) <= 1e-15


def test_debye_small_coefficients_are_the_bernoulli_numbers():
    def coef(k):
        with mp.workdps(50):
            return mp.bernoulli(2 * k) / ((2 * k + 1) * mp.factorial(2 * k))

    assert _DEBYE_SMALL == tuple(float(coef(k)) for k in range(1, len(_DEBYE_SMALL) + 1))
    # the first omitted term of tau = 4 sum_k c_k theta^(2k - 1) is far below
    # half an ulp of tau at theta = 2
    k = len(_DEBYE_SMALL) + 1
    assert abs(4 * float(coef(k)) * 2 ** (2 * k - 1)) < np.spacing(tau_from_theta("frank", 2.0)) / 100


FRANK_TAUS = [10.0**e for e in range(-12, 0)] + [0.2, 0.5, 0.9, 0.99, 0.995]


@pytest.mark.parametrize("tau", FRANK_TAUS + [-tau for tau in FRANK_TAUS])
def test_frank_theta_from_tau_round_trip(tau):
    # the closed form cancelled at small theta: the round trip at tau = 1e-9
    # read -1.6e-9
    assert abs(tau_from_theta("frank", theta_from_tau("frank", tau)) - tau) <= 1e-15 * abs(tau)
