"""Generator algebra: closed-form spot values, inverse/derivative identities,
finite-difference and Monte Carlo oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from archsurv.copulas import (
    U_FLOOR,
    ArchimedeanCopula,
    _log_abs_psi_deriv_cells,
    _partials_cells,
    _phi_cells,
    _phi_prime_cells,
    tau_from_theta,
    theta_from_tau,
)
from archsurv.errors import DomainError, RangeError
from tests._oracles import (
    copula_from_tau,
    mp_generator,
    mp_log_abs_psi_deriv,
    mp_partials,
    reference_h,
    reference_partials,
)

TAU_GRID = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def tau_from_theta_quadrature(family: str, theta: float) -> float:
    """Kendall's tau via the generic identity tau = 1 + 4 * int_0^1 phi/phi'."""
    cop = ArchimedeanCopula(family, theta)
    val, _ = integrate.quad(
        lambda u: cop.phi(u) / cop.phi_prime(u),
        0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200,
    )
    return 1.0 + 4.0 * val


def _copulas_for(family):
    return [copula_from_tau(family, tau) for tau in TAU_GRID]


def finite_diff_psi(cop, t, order, h=None):
    """Finite-difference oracle for psi derivatives.

    Central differences in plain float64 drown in roundoff by order 4, so
    the stencil is evaluated in 50-digit arithmetic on the closed-form psi
    definitions (independent of the implementation under test).
    """
    import mpmath as mp

    f = mp_generator(cop.family, cop.theta)[3]
    with mp.workdps(50):
        if h is None:
            h = mp.mpf(min(t, 0.05)) / 64
        stencil = {
            1: ([-0.5, 0.5], [-1, 1]),
            2: ([1.0, -2.0, 1.0], [-1, 0, 1]),
            3: ([-0.5, 1.0, -1.0, 0.5], [-2, -1, 1, 2]),
            4: ([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2]),
        }
        w, off = stencil[order]

        def fd(step):
            acc = mp.mpf(0)
            for wi, oi in zip(w, off):
                acc += mp.mpf(wi) * f(mp.mpf(t) + oi * step)
            return acc / step**order

        return float((16 * fd(h / 2) - fd(h)) / 15)


# ---------------------------------------------------------------------------
# phi / psi closed-form examples and the inverse-pair identity


def test_phi_clayton_hand_values():
    cop = ArchimedeanCopula("clayton", 1.0)
    assert cop.phi(1.0) == 0.0
    assert cop.phi(0.5) == pytest.approx(1.0, abs=1e-12)  # (u^-1 - 1)/1


def test_phi_gumbel_hand_value():
    cop = ArchimedeanCopula("gumbel", 2.0)
    assert cop.phi(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-10)


def test_phi_domain_errors():
    cop = ArchimedeanCopula("clayton", 1.0)
    with pytest.raises(DomainError):
        cop.phi(0.0)
    with pytest.raises(DomainError):
        cop.phi(1.5)
    with pytest.raises(RangeError):
        ArchimedeanCopula("clayton", -1.0)
    with pytest.raises(RangeError):
        ArchimedeanCopula("gumbel", 0.5)
    with pytest.raises(RangeError):
        ArchimedeanCopula("frank", 0.0)


def test_psi_basics():
    cop = ArchimedeanCopula("clayton", 1.0)
    assert cop.psi(0.0) == 1.0
    assert cop.psi(1.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DomainError):
        cop.psi(-0.1)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_psi_phi_roundtrip_grid(family):
    grid = np.linspace(0.02, 1.0, 25)
    for cop in _copulas_for(family):
        err = np.abs(cop.psi(np.asarray(cop.phi(grid))) - grid)
        assert err.max() < 1e-10


@pytest.mark.parametrize("theta", [-3.0, 0.5, 1.66, 22.1])
def test_phi_frank_matches_mpmath_near_zero_and_one(theta):
    # small u once lost 1e-7 relative accuracy to cancellation, enough to
    # make the profile likelihood jagged on a 1e-4 tau scale
    import mpmath as mp

    cop = ArchimedeanCopula("frank", theta)
    us = np.concatenate([np.logspace(-12, -1, 23), np.linspace(0.1, 1 - 1e-9, 30)])
    got = np.asarray(cop.phi(us))
    with mp.workdps(50):
        th = mp.mpf(theta)
        exact = [float(-mp.log(mp.expm1(-th * mp.mpf(u)) / mp.expm1(-th))) for u in us]
    assert np.allclose(got, exact, rtol=1e-14, atol=0)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_phi_strictly_decreasing(family):
    cop = copula_from_tau(family, 0.4)
    grid = np.linspace(0.01, 1.0, 50)
    vals = np.asarray(cop.phi(grid))
    assert np.all(np.diff(vals) < 0)
    assert cop.phi(1.0) == 0.0


# ---------------------------------------------------------------------------
# psi derivatives


def test_psi_deriv_order_zero_is_psi():
    cop = ArchimedeanCopula("frank", 2.0)
    t = np.array([0.1, 0.5, 2.0])
    assert np.allclose(cop.psi_deriv(t, 0), cop.psi(t), rtol=0, atol=0)


def test_psi_deriv_clayton_hand_value():
    cop = ArchimedeanCopula("clayton", 1.0)
    assert cop.psi_deriv(1.0, 1) == pytest.approx(-0.25, rel=1e-12)


def test_psi_deriv_frank_vs_finite_difference():
    cop = ArchimedeanCopula("frank", 2.0)
    fd = finite_diff_psi(cop, 0.7, 3)
    assert cop.psi_deriv(0.7, 3) == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_psi_deriv_matches_finite_differences(family, order):
    for cop in _copulas_for(family):
        for t in [0.08, 0.4, 1.3, 3.0]:
            fd = finite_diff_psi(cop, t, order)
            val = cop.psi_deriv(t, order)
            assert val == pytest.approx(fd, rel=1e-3, abs=1e-12), (
                family,
                cop.theta,
                t,
                order,
            )


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_psi_deriv_sign_alternates(family):
    cop = copula_from_tau(family, 0.5)
    t = np.linspace(0.05, 4.0, 9)
    for d in range(0, 13):
        vals = np.asarray(cop.psi_deriv(t, d))
        assert np.all((-1.0) ** d * vals >= 0.0)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_log_abs_psi_deriv_matches_mpmath(family):
    # no order cap and no underflow: Frank's third derivative at t = 800,
    # tau 0.6, is -e^-802.07, which the linear form returned as -0.0
    import mpmath as mp

    t = np.array(
        [1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.6, 1.0, 1.7, 3.0, 5.0, 7.0, 10.0,
         20.0, 30.0, 60.0, 100.0, 300.0, 800.0]
    )
    for tau in (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95):
        cop = copula_from_tau(family, tau)
        for d in range(0, 13):
            got = np.asarray(cop.log_abs_psi_deriv(t, d))
            with mp.workdps(50):
                ref = np.array([float(mp_log_abs_psi_deriv(family, cop.theta, x, d)) for x in t])
            err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() <= 1e-14, (tau, d, t[err.argmax()], err.max())
    if family == "frank":
        cop = copula_from_tau("frank", 0.6)
        assert cop.log_abs_psi_deriv(800.0, 3) == pytest.approx(-802.07, abs=0.01)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_log_abs_psi_deriv_is_non_increasing_in_t(family, data):
    # |psi^(d)(t)| = E[V^d e^(-tV)] of the frailty V falls as t grows
    theta = data.draw(_THETA[family].filter(lambda th: th > 0), label="theta")
    cop = ArchimedeanCopula(family, theta)
    d = data.draw(st.integers(0, 15), label="d")
    t = np.sort(data.draw(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=8), label="t"))
    vals = np.asarray(cop.log_abs_psi_deriv(np.append(t, np.inf), d))
    # E[V^d] = |psi^(d)(0)| is infinite for Gumbel's stable frailty at d >= 1
    at_inf = (t == 0) & (family == "gumbel") & (d > 0) & (theta > 1)
    assert np.all(vals[:-1][at_inf] == np.inf) and vals[-1] == -np.inf
    assert np.all(np.isfinite(vals[:-1][~at_inf]))
    assert np.all(vals[1:] <= vals[:-1] + 1e-14 * np.maximum(1.0, np.abs(vals[1:])))


def test_log_abs_psi_deriv_checks_its_arguments():
    cop = ArchimedeanCopula("clayton", 1.0)
    for d in (-1, 1.5):
        with pytest.raises(DomainError):
            cop.log_abs_psi_deriv(1.0, d)
    with pytest.raises(DomainError):
        cop.psi_deriv(-0.1, 2)
    # a negative Frank theta's psi is not completely monotone
    with pytest.raises(RangeError):
        ArchimedeanCopula("frank", -2.0).log_abs_psi_deriv(1.0, 1)


PSI_TAUS = (0.01, 0.1, 0.5, 0.9, 0.95, 0.99)


@pytest.mark.parametrize("tau", PSI_TAUS)
@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_psi_matches_mpmath(family, tau):
    # psi is read from the log kernel: relative error at most 1e-15 times
    # max(1, -log psi), the absolute error of log psi.  Frank's former own
    # formula was 1.4e-6 off at t = 24 and read -0.0 at t = 40, theta = 5
    import mpmath as mp

    cop = copula_from_tau(family, tau)
    t = np.logspace(-12, 3, 46)
    got = np.asarray(cop.psi(np.r_[0.0, t, np.inf]))
    assert got[0] == 1.0 and got[-1] == 0.0
    # the mpmath Frank psi cancels e^-theta against 1: theta extra digits
    with mp.workdps(50 + (int(cop.theta) if family == "frank" else 0)):
        psi = mp_generator(family, cop.theta)[3]
        exact = [psi(mp.mpf(x)) for x in t]
        ref = np.array([float(e) for e in exact])
        neg_log = np.array([float(-mp.log(e)) for e in exact])
    bound = 1e-15 * np.maximum(1.0, neg_log) * ref + np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got[1:-1] - ref) <= bound), (tau, t[np.argmax(np.abs(got[1:-1] - ref) / bound)])


def test_psi_spot_values():
    assert ArchimedeanCopula("frank", 5.0).psi(40.0) == pytest.approx(8.43945813897219e-19, rel=1e-13)
    assert copula_from_tau("gumbel", 0.95).psi(0.0) == 1.0
    assert isinstance(ArchimedeanCopula("clayton", 2.0).psi_deriv(1.0, 2), float)
    with pytest.raises(RangeError):
        ArchimedeanCopula("frank", -2.0).psi(1.0)


# ---------------------------------------------------------------------------
# bivariate H and partials


def test_h_boundaries_and_symmetry():
    cop = ArchimedeanCopula("frank", 3.0)
    assert cop.h(0.4, 1.0) == pytest.approx(0.4, abs=1e-12)
    assert cop.h(1.0, 0.2) == pytest.approx(0.2, abs=1e-12)
    assert cop.h(0.7, 0.2) == pytest.approx(cop.h(0.2, 0.7), rel=1e-12)
    with pytest.raises(DomainError):
        cop.h(0.0, 0.5)


def test_h_clayton_hand_value():
    cop = ArchimedeanCopula("clayton", 1.0)
    assert cop.h(0.5, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_h_frechet_bound_and_monotone(family):
    cop = copula_from_tau(family, 0.45)
    grid = np.linspace(0.05, 0.95, 10)
    for u in grid:
        vals = np.asarray(cop.h(np.full_like(grid, u), grid))
        assert np.all(vals <= np.minimum(u, grid) + 1e-12)
        assert np.all(np.diff(vals) >= -1e-12)  # non-decreasing in v


def test_h2_independence_limit():
    cop = ArchimedeanCopula("clayton", 1e-8)
    h2, _ = cop.partials(0.37, 0.81)
    assert h2 == pytest.approx(0.37, abs=1e-6)


def test_h2_clayton_hand_value():
    # H2 = dH/dv at u = v = 0.5, theta = 1: (u^-1+v^-1-1)^-2 v^-2 = 4/9
    cop = ArchimedeanCopula("clayton", 1.0)
    h2, _ = cop.partials(0.5, 0.5)
    assert h2 == pytest.approx(4.0 / 9.0, rel=1e-10)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_partials_match_finite_differences(family):
    rng = np.random.default_rng(42)
    for _ in range(34):
        tau = rng.uniform(0.08, 0.85)
        cop = copula_from_tau(family, tau)
        u, v = rng.uniform(0.08, 0.92, size=2)
        # step balances FD truncation against rounding noise in H itself
        h = 5e-4
        h1_fd = (cop.h(u + h, v) - cop.h(u - h, v)) / (2 * h)
        h2_fd = (cop.h(u, v + h) - cop.h(u, v - h)) / (2 * h)
        h12_fd = (
            cop.h(u + h, v + h)
            - cop.h(u + h, v - h)
            - cop.h(u - h, v + h)
            + cop.h(u - h, v - h)
        ) / (4 * h * h)
        h2, h12 = cop.partials(u, v)
        h1 = cop.h2(v, u)
        assert h1 == pytest.approx(h1_fd, rel=1e-4, abs=1e-8)
        assert h2 == pytest.approx(h2_fd, rel=1e-4, abs=1e-8)
        assert h12 == pytest.approx(h12_fd, rel=1e-3, abs=1e-6)
        assert 0.0 <= h1 <= 1.0 and 0.0 <= h2 <= 1.0 and h12 >= 0.0


_UNIT = st.floats(1e-12, 1.0)
_THETA = {
    "frank": st.floats(-40.0, 40.0).filter(lambda th: abs(th) > 1e-6),
    "clayton": st.floats(1e-6, 40.0),
    "gumbel": st.floats(1.0, 40.0),
}


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_h2_is_the_h2_of_partials_and_h1_by_exchangeability(family, data):
    cop = ArchimedeanCopula(family, data.draw(_THETA[family], label="theta"))
    pairs = data.draw(st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=6), label="uv")
    u, v = (np.array(c) for c in zip(*pairs))
    with np.errstate(all="ignore"):
        for a, b in ((u, v), (u[0], v[0]), (u[:, None], v[None, :])):
            h2, h12 = cop.partials(a, b)
            h1 = cop.h2(b, a)
            assert np.array_equal(cop.h2(a, b), h2, equal_nan=True)
            if np.ndim(h2):
                out = np.empty(np.shape(h2))
                assert cop.h2(a, b, out=out) is out
                assert np.array_equal(out, h2, equal_nan=True)
            # and the shared-term refactor left every partial, and H, unchanged
            for got, want in zip((h1, h2, h12), reference_partials(cop, a, b)):
                assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(cop._h_clamped(a, b), reference_h(cop, a, b), equal_nan=True)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_partials_match_mpmath(family):
    # Frank's old denominator expm1(-th) + expm1(-th u) expm1(-th v) cancelled
    # near u = v = 1: 5.7e-9 off at tau 0.8, and H2 = 0 for 0.76 at tau 0.9
    import mpmath as mp

    grid = np.array([1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, 1.0 - 1e-6])
    for tau in (0.01, 0.2, 0.5, 0.8, 0.9, 0.95):
        cop = copula_from_tau(family, tau)
        h2, h12 = cop.partials(grid[:, None], grid[None, :])
        with mp.workdps(50):
            ref = np.array(
                [[mp_partials(family, cop.theta, u, v) for v in grid] for u in grid],
                dtype=float,
            )
        np.testing.assert_allclose(h2, ref[..., 0], rtol=5e-13, atol=0, err_msg=f"{tau}")
        np.testing.assert_allclose(h12, ref[..., 1], rtol=5e-13, atol=0, err_msg=f"{tau}")


# copula arguments at the clamp's edges and exactly 1, where the clamp acts
EDGE_ARGS = np.array([U_FLOOR, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - U_FLOOR, 1.0])


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_partials_cells_with_theta_per_entry_equal_one_call_per_onset(family):
    # prediction and the likelihood make one kernel call over (onset, cell)
    # entries laid out onset by onset, with one theta per entry; each
    # onset's block is what its own copula's `partials` gives, bit for bit,
    # called with one u for all cells (prediction) or one u per cell (the
    # likelihood)
    cops = [copula_from_tau(family, tau) for tau in (0.05, 0.3, 0.6, 0.9, 0.99)]
    u, v = (x.ravel() for x in np.meshgrid(EDGE_ARGS, EDGE_ARGS, indexing="ij"))
    n = u.size
    clamp = lambda x: np.clip(x, U_FLOOR, 1.0 - U_FLOOR)
    with np.errstate(all="ignore"):
        h2, h12 = _partials_cells(
            family, np.repeat([c.theta for c in cops], n),
            clamp(np.tile(u, len(cops))), clamp(np.tile(v, len(cops))),
        )
        for j, cop in enumerate(cops):
            block = slice(j * n, (j + 1) * n)
            want = cop.partials(u, v)
            assert np.array_equal(h2[block], want[0])
            assert np.array_equal(h12[block], want[1], equal_nan=True)
            for a, x in enumerate(EDGE_ARGS):
                cells = slice(j * n + a * EDGE_ARGS.size, j * n + (a + 1) * EDGE_ARGS.size)
                g, dens = cop.partials(float(x), EDGE_ARGS)
                assert np.array_equal(h2[cells], g)
                assert np.array_equal(h12[cells], dens, equal_nan=True)
    assert np.all((h2 >= 0.0) & (h2 <= 1.0))


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_generator_kernels_equal_the_checked_methods(family):
    # the unchecked phi, phi' and log|psi^(d)| that the likelihood's cells
    # call give the public methods' values bit for bit, at the clamp's edges
    # and at t = 0 and +inf
    t = np.array([0.0, 1e-300, 1e-12, 1e-3, 0.3, 1.0, 40.0, 800.0, np.inf])
    for tau in (0.05, 0.5, 0.9, 0.99):
        cop = copula_from_tau(family, tau)
        th = cop.theta
        with np.errstate(all="ignore"):
            assert np.array_equal(_phi_cells(family, th, EDGE_ARGS), cop.phi(EDGE_ARGS))
            assert np.array_equal(
                _phi_prime_cells(family, th, EDGE_ARGS), cop.phi_prime(EDGE_ARGS)
            )
            for d in range(11):
                assert np.array_equal(
                    _log_abs_psi_deriv_cells(family, th, t, d), cop.log_abs_psi_deriv(t, d)
                )


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_h_matches_mpmath(family):
    # Frank's -log1p(expm1(-th u) expm1(-th v) / expm1(-th)) / th cancelled
    # near u = v = 1: 2.9e-10 off at tau 0.8, and +inf at tau 0.9 (0.999,
    # 0.999) and tau 0.95 (0.5, 0.5)
    import mpmath as mp

    grid = np.array([1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, 1.0 - 1e-6])
    for tau in (0.01, 0.2, 0.5, 0.8, 0.9, 0.95):
        cop = copula_from_tau(family, tau)
        h = cop._h_clamped(grid[:, None], grid[None, :])
        with mp.workdps(50), mp.extradps(int(cop.theta / 2) if family == "frank" else 0):
            phi, _, _, psi = mp_generator(family, cop.theta)
            ref = np.array(
                [[psi(phi(mp.mpf(u)) + phi(mp.mpf(v))) for v in grid] for u in grid],
                dtype=float,
            )
        np.testing.assert_allclose(h, ref, rtol=5e-14, atol=0, err_msg=f"{tau}")


# ---------------------------------------------------------------------------
# Kendall tau conversions


def test_tau_closed_forms():
    assert tau_from_theta("clayton", 2.0) == pytest.approx(0.5, abs=1e-12)
    assert tau_from_theta("gumbel", 2.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_tau_matches_generic_quadrature(family):
    for tau in [0.1, 0.3, 0.5, 0.7, 0.9]:
        theta = theta_from_tau(family, tau)
        oracle = tau_from_theta_quadrature(family, theta)
        assert tau_from_theta(family, theta) == pytest.approx(oracle, abs=1e-8)


def test_tau_independence_limit():
    assert tau_from_theta("clayton", 1e-9) == pytest.approx(0.0, abs=1e-9)
    assert tau_from_theta("gumbel", 1.0) == 0.0
    assert tau_from_theta("frank", 1e-6) == pytest.approx(0.0, abs=1e-6)


def test_theta_from_tau_gumbel_closed_form():
    assert theta_from_tau("gumbel", 0.5) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_theta_tau_roundtrip(family):
    for tau in TAU_GRID:
        theta = theta_from_tau(family, tau)
        back = theta_from_tau(family, tau_from_theta(family, theta))
        assert back == pytest.approx(theta, rel=1e-6)


def test_theta_from_tau_range_errors():
    with pytest.raises(RangeError):
        theta_from_tau("clayton", -0.2)
    with pytest.raises(RangeError):
        theta_from_tau("gumbel", -0.1)
    with pytest.raises(RangeError):
        theta_from_tau("clayton", 1.1)


def test_frank_negative_tau_supported_in_conversion():
    theta = theta_from_tau("frank", -0.4)
    assert theta < 0
    assert tau_from_theta("frank", theta) == pytest.approx(-0.4, abs=1e-8)


def test_tau_monotone_in_theta():
    thetas = np.linspace(0.2, 30, 40)
    taus = [tau_from_theta("frank", t) for t in thetas]
    assert np.all(np.diff(taus) > 0)


# ---------------------------------------------------------------------------
# frailty sampling: empirical Laplace transform vs psi


@pytest.mark.parametrize(
    "family,theta",
    [("clayton", 1.0), ("frank", 2.0), ("gumbel", 2.0)],
)
def test_frailty_laplace_transform(family, theta):
    cop = ArchimedeanCopula(family, theta)
    rng = np.random.default_rng(7)
    v = cop.sample_frailty(rng, size=100_000)
    assert np.all(v > 0)
    for t in [0.3, 1.0]:
        emp = np.exp(-t * v)
        se = emp.std(ddof=1) / math.sqrt(emp.size)
        assert abs(emp.mean() - cop.psi(t)) < 3.2 * max(se, 1e-6), (family, t)


def test_clayton_frailty_mean_laplace_at_one():
    cop = ArchimedeanCopula("clayton", 1.0)
    rng = np.random.default_rng(11)
    v = cop.sample_frailty(rng, size=100_000)
    emp = np.exp(-v)
    se = emp.std(ddof=1) / math.sqrt(v.size)
    assert abs(emp.mean() - 0.5) < 3 * se


def test_frank_frailty_integer_support():
    cop = ArchimedeanCopula("frank", 2.0)
    rng = np.random.default_rng(3)
    v = cop.sample_frailty(rng, size=5_000)
    assert np.all(v >= 1)
    assert np.allclose(v, np.round(v))


def test_frailty_crn_streams_match_law():
    # quantile-coupled draws share the law of the rng-based sampler
    cop = ArchimedeanCopula("frank", 2.0)
    rng = np.random.default_rng(5)
    u1, u2 = rng.uniform(size=50_000), rng.uniform(size=50_000)
    v = cop.frailty_from_uniforms(u1, u2)
    t = 0.8
    emp = np.exp(-t * v)
    se = emp.std(ddof=1) / math.sqrt(v.size)
    assert abs(emp.mean() - cop.psi(t)) < 3.5 * se


# ---------------------------------------------------------------------------
# exchangeable uniform sampling


def _sample_kendall(x, y):
    from scipy.stats import kendalltau

    return kendalltau(x, y).statistic


def test_exchangeable_k1_uniform():
    cop = ArchimedeanCopula("frank", 2.0)
    rng = np.random.default_rng(17)
    u = cop.sample_exchangeable_uniforms(1, rng, n=4000)
    from scipy.stats import kstest

    assert kstest(u[:, 0], "uniform").pvalue > 0.01


def test_exchangeable_marginals_and_tau():
    cop = copula_from_tau("frank", 0.5)
    rng = np.random.default_rng(23)
    u = cop.sample_exchangeable_uniforms(2, rng, n=5000)
    from scipy.stats import kstest

    assert kstest(u[:, 0], "uniform").pvalue > 0.01
    assert kstest(u[:, 1], "uniform").pvalue > 0.01
    assert abs(_sample_kendall(u[:, 0], u[:, 1]) - 0.5) < 0.03


def test_exchangeable_independence_limit():
    cop = ArchimedeanCopula("gumbel", 1.0)
    rng = np.random.default_rng(29)
    u = cop.sample_exchangeable_uniforms(2, rng, n=5000)
    assert abs(_sample_kendall(u[:, 0], u[:, 1])) < 0.03


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_empirical_copula_matches_h(family):
    # pointwise agreement of the empirical exchangeable copula with
    # psi(sum phi(u_k)) on a coarse grid, within Monte Carlo error;
    # the frailty construction yields P(U1 <= q, U2 <= q) = H(q, q)
    cop = copula_from_tau(family, 0.4)
    rng = np.random.default_rng(31)
    n = 20_000
    u = cop.sample_exchangeable_uniforms(2, rng, n=n)
    for q in [0.2, 0.35, 0.5, 0.65, 0.8]:
        emp = np.mean((u[:, 0] <= q) & (u[:, 1] <= q))
        target = cop.h(q, q)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(emp - target) < 3.5 * se + 1e-4, (family, q)
