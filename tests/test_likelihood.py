"""Likelihood oracles: mixed-partial and nested-quadrature checks on smooth
test marginals, independence factorization, the subset-sum expansion of
alive records, and smoothness of the profile."""

import warnings

import numpy as np
import pytest
from scipy import integrate

from archsurv.copulas import ArchimedeanCopula, theta_from_tau
from archsurv.data import SurvivalData
from archsurv.errors import ConfigError, EstimationError
from archsurv.likelihood import (
    FittedJointModel,
    LikelihoodWorkspace,
    bootstrap_fit,
    fit_joint_model,
    maximize_alpha,
    model_aic,
)
from archsurv.predict import PredictionQuery, predict_curves
from archsurv.simulate import SimConfig, ex1_config, ex2_config, ex3_config, simulate_dataset
from archsurv.survival import StepSurvival


class SmoothSurvival:
    """Exponential survival exposed with the StepSurvival evaluation API."""

    def __init__(self, rate, t_max=40.0):
        self.rate = rate
        self.t_max = t_max

    def __call__(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    def slope(self, t):
        return -self.rate * np.exp(-self.rate * np.asarray(t, dtype=float))


RATE_D = 0.6
RATES_K = (1.0, 1.3)


def fine_terminal(n_grid=4000, horizon=30.0):
    grid = np.linspace(horizon / n_grid, horizon, n_grid)
    return StepSurvival(grid, np.exp(-RATE_D * grid), t_max=horizon)


def snap(t, n_grid=4000, horizon=30.0):
    """Nearest atom of the discretized terminal curve (death/censoring times
    off the lattice would straddle an integration cell)."""
    h = horizon / n_grid
    return round(t / h) * h


def smooth_workspace(data, tau_thetas=(0.5, 0.35), mc_n=2000, mc_seed=7, n_grid=4000):
    thetas = [theta_from_tau("frank", t) for t in tau_thetas]
    margs = [SmoothSurvival(r) for r in RATES_K[: data.k]]
    return LikelihoodWorkspace(
        data, "frank", thetas[: data.k], margs, fine_terminal(n_grid), mc_n, mc_seed
    )


def _g_and_phi(cop_k, cop_a, rate_k, t_k, y):
    u = np.exp(-rate_k * t_k)
    v = np.exp(-RATE_D * y)
    h2, h12 = cop_k.partials(u, v)
    neg_gp = h12 * rate_k * u
    return h2, neg_gp


# ---------------------------------------------------------------------------
# death-record contribution vs mixed-partial oracle


def test_death_record_matches_mixed_partial_oracle():
    t1, t2, y = 0.8, 1.4, snap(2.0)
    data = SurvivalData(
        t=[[t1, t2]], delta=[[1, 1]], y=[y], dtilde=[1]
    )
    ws = smooth_workspace(data)
    tau_a = 0.5
    cop_a = ArchimedeanCopula("frank", theta_from_tau("frank", tau_a))
    cop_1 = ws.cops[0]
    cop_2 = ws.cops[1]

    # oracle: numerical mixed partial of the conditional joint survival,
    # with the conditional survivals themselves taken by differencing H
    def g_fd(cop_k, rate_k, t_k):
        u = np.exp(-rate_k * t_k)
        v = np.exp(-RATE_D * y)
        e = 1e-6
        return (cop_k.h(u, v + e) - cop_k.h(u, v - e)) / (2 * e)

    def w(a, b):
        return cop_a.psi(
            cop_a.phi(g_fd(cop_1, RATES_K[0], a)) + cop_a.phi(g_fd(cop_2, RATES_K[1], b))
        )

    h = 2e-3
    mixed = (
        w(t1 + h, t2 + h) - w(t1 + h, t2 - h) - w(t1 - h, t2 + h) + w(t1 - h, t2 - h)
    ) / (4 * h * h)

    log_terms = ws.loglik_terms(cop_a)
    assert log_terms.size == 1
    jump = ws.s_d.jump_mass(y)
    impl_density = np.exp(log_terms[0]) / jump
    assert impl_density == pytest.approx(mixed, rel=1.5e-2)


def test_death_record_no_events_is_pure_survival_term():
    y = snap(1.7)
    data = SurvivalData(t=[[y, y]], delta=[[0, 0]], y=[y], dtilde=[1])
    ws = smooth_workspace(data)
    cop_a = ArchimedeanCopula("frank", 3.0)
    log_term = ws.loglik_terms(cop_a)[0]
    vmid = ws.s_d.mid_value(y)
    expected = np.log(ws.s_d.jump_mass(y))
    args = 0.0
    for k, rate in enumerate(RATES_K):
        h2, _ = ws.cops[k].partials(np.exp(-rate * y), vmid)
        args += cop_a.phi(h2)
    expected += np.log(cop_a.psi(args))
    assert log_term == pytest.approx(expected, rel=1e-12)


def test_death_record_independence_factorizes():
    t1, t2, y = 0.5, 1.1, snap(1.6)
    data = SurvivalData(t=[[t1, t2]], delta=[[1, 1]], y=[y], dtilde=[1])
    ws = smooth_workspace(data, tau_thetas=(1e-7, 1e-7))
    cop_a = ArchimedeanCopula("frank", 1e-7)
    log_term = ws.loglik_terms(cop_a)[0]
    jump = ws.s_d.jump_mass(y)
    f1 = RATES_K[0] * np.exp(-RATES_K[0] * t1)
    f2 = RATES_K[1] * np.exp(-RATES_K[1] * t2)
    assert np.exp(log_term) / jump == pytest.approx(f1 * f2, rel=1e-2)


# ---------------------------------------------------------------------------
# alive-record contributions vs nested quadrature (K = 2, one censored)


def _alive_record(t2=0.7, y=1.2):
    return SurvivalData(t=[[y, t2]], delta=[[0, 1]], y=[y], dtilde=[0])


def _oracle_j_terms(tau_thetas, tau_a, t2, y):
    cop_a = ArchimedeanCopula("frank", theta_from_tau("frank", tau_a))
    cop_1 = ArchimedeanCopula("frank", theta_from_tau("frank", tau_thetas[0]))
    cop_2 = ArchimedeanCopula("frank", theta_from_tau("frank", tau_thetas[1]))

    def parts(cop_k, rate_k, t_k, t):
        u = np.exp(-rate_k * t_k)
        v = np.exp(-RATE_D * t)
        h2, h12 = cop_k.partials(u, v)
        return h2, h12 * rate_k * u  # (G, -G')

    def f_d(t):
        return RATE_D * np.exp(-RATE_D * t)

    def integrand_empty(t):
        g1, _ = parts(cop_1, RATES_K[0], t, t)
        g2, neg_gp2 = parts(cop_2, RATES_K[1], t2, t)
        arg = cop_a.phi(g1) + cop_a.phi(g2)
        return -cop_a.psi_deriv(arg, 1) * -cop_a.phi_prime(g2) * neg_gp2 * f_d(t)

    j_empty, _ = integrate.quad(integrand_empty, y, 30.0, limit=300)

    def integrand_full(t1, t):
        g1, neg_gp1 = parts(cop_1, RATES_K[0], t1, t)
        g2, neg_gp2 = parts(cop_2, RATES_K[1], t2, t)
        arg = cop_a.phi(g1) + cop_a.phi(g2)
        return (
            cop_a.psi_deriv(arg, 2)
            * (-cop_a.phi_prime(g1))
            * neg_gp1
            * (-cop_a.phi_prime(g2))
            * neg_gp2
            * f_d(t)
        )

    j_one, _ = integrate.dblquad(
        integrand_full, y, 30.0, lambda t: y, lambda t: t, epsabs=1e-10
    )
    return j_empty, j_one


def _record_term(ws, cop_a, row):
    """Closed-form contribution (not its log) of data row `row`."""
    pos = int(np.searchsorted(ws._rec["row"], row))
    assert ws._rec["row"][pos] == row
    return float(np.exp(ws.loglik_terms(cop_a)[pos]))


def _alive_parts(ws, data, row):
    """Inputs of the subset expansion for alive data row `row`, built from
    the workspace's plug-ins alone (not its cells): over the terminal atoms
    after censoring, the atom masses, the observed onsets' G and -G', and
    each censored onset's survival b at the censoring time and c at the
    candidate death time (the midpoint of the atom's integration cell)."""
    s_d = ws.s_d
    atom_t, atom_m = s_d.atoms(complete_tail=True)
    right = np.where(atom_t == s_d.t_max, 0.0, s_d(atom_t))
    atom_v = 0.5 * (np.asarray(s_d.left_value(atom_t)) + right)
    prev = np.concatenate(([0.0], atom_t[:-1]))
    y = data.y[row]
    sel = atom_t > y
    gt, v = atom_t[sel], atom_v[sel]
    t_mid = 0.5 * (np.maximum(prev[sel], y) + gt)
    obs = np.flatnonzero(data.delta[row] == 1)
    cen = np.flatnonzero(data.delta[row] == 0)

    def h2(k, t):
        return ws.cops[k].partials(np.asarray(ws.marginals[k](t)), v)[0]

    def neg_gp(k, t):
        u = np.asarray(ws.marginals[k](t))
        return ws.cops[k].partials(u, v)[1] * -np.asarray(ws.marginals[k].slope(t))

    ones = np.ones(gt.size)
    return {
        "masses": atom_m[sel],
        "g_obs": np.array([h2(k, data.t[row, k] * ones) for k in obs]).reshape(-1, gt.size),
        "neg_gp": np.array([neg_gp(k, data.t[row, k] * ones) for k in obs]).reshape(-1, gt.size),
        "b": np.array([h2(k, y * ones) for k in cen]).reshape(-1, gt.size),
        "c": np.array([h2(k, t_mid) for k in cen]).reshape(-1, gt.size),
    }


def subset_terms(ws, data, row, cop_a):
    """J^s over every subset s of the censored onsets of alive data row
    `row` (bit j of the index: censored onset j happens between censoring
    and death), with no Monte Carlo.  By the Laplace identity each term is
    sum_atoms w E[V^d e^{-aV} prod_{j in s}(e^{-phi(b_j)V} - e^{-phi(c_j)V})
    prod_{j not in s} e^{-phi(c_j)V}]; expanding the product by
    inclusion-exclusion gives
    J^s = sum_atoms w sum_{r <= s} (-1)^{|s - r|} |psi^(d)(a + sum_{j in r} phi(b_j)
    + sum_{j not in r} phi(c_j))|."""
    p = _alive_parts(ws, data, row)
    d = p["g_obs"].shape[0]
    m = p["b"].shape[0]
    a = np.asarray(cop_a.phi(p["g_obs"])).sum(axis=0)
    w = p["masses"] * np.prod(-cop_a.phi_prime(p["g_obs"]) * p["neg_gp"], axis=0)
    phi_b, phi_c = np.asarray(cop_a.phi(p["b"])), np.asarray(cop_a.phi(p["c"]))
    f = np.empty(2**m)
    for r in range(2**m):
        in_r = np.array([(r >> j) & 1 for j in range(m)], dtype=bool)
        arg = a + phi_b[in_r].sum(axis=0) + phi_c[~in_r].sum(axis=0)
        f[r] = np.sum(w * np.abs(cop_a.psi_deriv(arg, d)))
    out = np.zeros(2**m)
    for s in range(2**m):
        r = s
        while True:  # every r contained in s
            out[s] += (-1) ** bin(s ^ r).count("1") * f[r]
            if r == 0:
                break
            r = (r - 1) & s
    return out


def test_alive_record_matches_nested_quadrature():
    t2, y = 0.7, 1.2
    data = _alive_record(t2, y)
    ws = smooth_workspace(data, n_grid=1000)
    tau_a = 0.5
    cop_a = ArchimedeanCopula("frank", theta_from_tau("frank", tau_a))
    j_empty_o, j_one_o = _oracle_j_terms((0.5, 0.35), tau_a, t2, y)

    j_empty, j_one = subset_terms(ws, data, 0, cop_a)
    assert j_empty == pytest.approx(j_empty_o, rel=1e-2)
    assert j_one == pytest.approx(j_one_o, rel=2e-2)

    total = _record_term(ws, cop_a, 0)
    assert total == pytest.approx(j_empty_o + j_one_o, rel=1e-5)
    assert total == pytest.approx(j_empty + j_one, rel=1e-12)


def test_alive_record_independence_factorizes():
    t2, y = 0.9, snap(1.4, n_grid=1000)
    data = _alive_record(t2, y)
    ws = smooth_workspace(data, tau_thetas=(1e-7, 1e-7), n_grid=1000)
    cop_a = ArchimedeanCopula("frank", 1e-7)
    total = _record_term(ws, cop_a, 0)
    s1 = np.exp(-RATES_K[0] * y)
    f2 = RATES_K[1] * np.exp(-RATES_K[1] * t2)
    s_d = np.exp(-RATE_D * y)
    assert total == pytest.approx(s1 * f2 * s_d, rel=1e-2)


def test_alive_all_observed_single_term():
    data = SurvivalData(t=[[0.4, 0.9]], delta=[[1, 1]], y=[1.3], dtilde=[0])
    ws = smooth_workspace(data)
    cop_a = ArchimedeanCopula("frank", 2.0)
    terms = subset_terms(ws, data, 0, cop_a)
    assert terms.size == 1  # empty power set of censored onsets
    assert _record_term(ws, cop_a, 0) == pytest.approx(terms[0], rel=1e-12)


def test_alive_no_event_info_reduces_to_tail_mass():
    # flat onset marginals: the record contributes exactly the residual
    # terminal mass
    s_d = StepSurvival([1.0, 2.0, 3.0], [0.7, 0.5, 0.3], t_max=4.0)
    data = SurvivalData(
        t=[[3.5, 3.5]], delta=[[0, 0]], y=[3.5], dtilde=[0]
    )
    flat = SmoothSurvival(0.0)
    for fam, alpha in [("frank", 2.0), ("clayton", 1.0), ("gumbel", 2.0)]:
        ws_f = LikelihoodWorkspace(data, fam, [2.0, 2.0], [flat, flat], s_d, 500, 3)
        cop_a = ArchimedeanCopula(fam, alpha)
        terms = subset_terms(ws_f, data, 0, cop_a)
        assert terms.size == 4
        assert terms[0] == pytest.approx(0.3, rel=1e-9)  # s = empty
        assert np.allclose(terms[1:], 0.0, atol=1e-12)
        assert _record_term(ws_f, cop_a, 0) == pytest.approx(0.3, rel=1e-9)


def test_record_beyond_all_mass_is_skipped():
    s_d = StepSurvival([1.0, 2.0], [0.5, 0.0], t_max=2.0)
    flat = SmoothSurvival(0.0)
    data = SurvivalData(t=[[2.0]], delta=[[0]], y=[2.0], dtilde=[0])
    ws = LikelihoodWorkspace(data, "frank", [2.0], [flat], s_d, 100, 1)
    assert ws._rec["row"].size == 0
    assert ws.loglik_terms(ArchimedeanCopula("frank", 2.0)).size == 0
    assert ws.skipped == [(1, "no terminal mass beyond censoring")]


# ---------------------------------------------------------------------------
# closed form vs the subset-sum expansion


def _ex_workspace(k=7, n=60, seed=3, censor_upper=2.5, n_grid=60, horizon=12.0):
    cfg = ex2_config(k=k, tau_alpha=0.5, censor_upper=censor_upper, n_train=n,
                     n_test=0, seed=seed)
    data = simulate_dataset(cfg).train
    thetas = [theta_from_tau("frank", 0.5)] * k
    margs = [SmoothSurvival(1.0)] * k
    return (
        LikelihoodWorkspace(
            data, "frank", thetas, margs, fine_terminal(n_grid, horizon)
        ),
        data,
    )


def _alive_rows_by_censored_count(ws, data):
    """Alive data rows that contribute, sorted by their number of censored
    onsets (ascending), with those counts."""
    rows = ws._rec["row"][data.dtilde[ws._rec["row"]] == 0]
    sizes = (data.delta[rows] == 0).sum(axis=1)
    order = np.argsort(sizes, kind="stable")
    return rows[order], sizes[order]


def test_subset_count_and_closed_form_equals_subset_sum():
    ws, data = _ex_workspace()
    cop_a = ArchimedeanCopula("frank", theta_from_tau("frank", 0.4))
    rows, sizes = _alive_rows_by_censored_count(ws, data)
    assert sizes.max() >= 6  # exercise a large power set
    for row in list(rows[-2:]) + list(rows[:2]):
        terms = subset_terms(ws, data, row, cop_a)
        assert terms.size == 2 ** int((data.delta[row] == 0).sum())
        total = _record_term(ws, cop_a, row)
        assert total == pytest.approx(terms.sum(), rel=1e-10)


def test_exp_arguments_nonpositive():
    ws, data = _ex_workspace(k=3, n=40)
    cop_a = ArchimedeanCopula("frank", 2.0)
    rows, _ = _alive_rows_by_censored_count(ws, data)
    for row in rows:
        p = _alive_parts(ws, data, row)
        assert np.all(cop_a.phi(p["c"]) >= 0)
        assert np.all(cop_a.phi(p["b"]) >= 0)
        # onset survival at censoring dominates the candidate-death one, so
        # every subset term is a non-negative frailty expectation
        assert np.all(p["b"] >= p["c"] - 1e-12)
        terms = subset_terms(ws, data, row, cop_a)
        assert np.all(terms >= -1e-12 * terms.sum())


def test_crn_profile_is_deterministic_and_smooth():
    cfg = ex2_config(k=3, tau_alpha=0.5, censor_upper=5.0, n_train=100, n_test=0,
                     seed=11)
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "frank")
        ws = LikelihoodWorkspace(
            data, "frank", [a.theta_hat for a in fit.thetas], fit.marginals,
            fit.terminal
        )
        assert ws.profile_loglik(tau_alpha=0.3) == ws.profile_loglik(tau_alpha=0.3)
        taus = np.linspace(0.05, 0.9, 50)
        lls = np.array([ws.profile_loglik(tau_alpha=t) for t in taus])
        # no Monte Carlo re-draw noise: vanishing increments at small scale
        probe = np.array(
            [ws.profile_loglik(tau_alpha=t + 1e-5) for t in taus]
        )
    assert np.all(np.isfinite(lls))
    slope_scale = np.abs(np.diff(lls)).max() / (taus[1] - taus[0])
    assert np.abs(probe - lls).max() < 5e-4 * slope_scale + 0.05


def test_alpha_free_factors_leave_argmax_invariant():
    cfg = ex2_config(k=3, tau_alpha=0.5, censor_upper=20.0, n_train=120, n_test=0,
                     seed=13)
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "frank")
        ws = LikelihoodWorkspace(
            data, "frank", [a.theta_hat for a in fit.thetas], fit.marginals,
            fit.terminal
        )
        _, tau_1, _, _ = maximize_alpha(ws)
        # rescale every record's alpha-free density factor
        rng = np.random.default_rng(0)
        scale = np.log(rng.uniform(0.5, 2.0, size=ws._rec["row"].size))
        ws._cells["log_w"] = ws._cells["log_w"] + scale[ws._cells["rec"]]
        _, tau_2, _, _ = maximize_alpha(ws)
    assert tau_2 == pytest.approx(tau_1, abs=2e-4)


def test_mc_size_insensitivity_of_alpha_hat():
    # mc_n / mc_seed are accepted and ignored: the likelihood is exact
    cfg = ex2_config(k=3, tau_alpha=0.5, censor_upper=5.0, n_train=80, n_test=0,
                     seed=17)
    data = simulate_dataset(cfg).train
    fits = []
    for n_mc, seed in ((500, 1), (5000, 9)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fits.append(fit_joint_model(data, "frank", mc_n=n_mc, mc_seed=seed))
    assert fits[0].tau_alpha == fits[1].tau_alpha
    assert fits[0].loglik == fits[1].loglik


@pytest.mark.parametrize("n_train, n_test, seed", [(120, 400, 1000), (200, 2000, 0)])
def test_fit_is_the_single_peak_of_the_profile(n_train, n_test, seed):
    # these draws stopped the search on a local bump of the Monte Carlo
    # profile (tau_hat 0.2010 at -317.552 while tau 0.195 gave -317.534)
    cfg = ex1_config(k=3, tau_alpha=0.2, censor_upper=5, n_train=n_train,
                     n_test=n_test, seed=seed)
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "frank")
        ws = LikelihoodWorkspace(
            data, "frank", [a.theta_hat for a in fit.thetas], fit.marginals,
            fit.terminal
        )
        for step in (1e-4, 1e-3, 3e-3, 1e-2):
            for tau in (fit.tau_alpha - step, fit.tau_alpha + step):
                assert ws.profile_loglik(tau_alpha=tau) <= fit.loglik
        lls = np.array(
            [ws.profile_loglik(tau_alpha=t) for t in np.linspace(0.02, 0.9, 400)]
        )
    signs = np.sign(np.diff(lls))
    assert np.count_nonzero(signs[1:] != signs[:-1]) == 1


# ---------------------------------------------------------------------------
# pipeline, serialization, bootstrap, AIC


def test_fit_is_deterministic():
    cfg = ex2_config(k=2, tau_alpha=0.4, censor_upper=20.0, n_train=80, n_test=0,
                     seed=19)
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f1 = fit_joint_model(data, "frank")
        f2 = fit_joint_model(data, "frank")
    assert f1.to_json() == f2.to_json()


def test_fit_k1_has_no_global_association():
    cfg = ex2_config(k=1, tau_alpha=0.3, censor_upper=20.0, n_train=120, n_test=0,
                     seed=23)
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "frank")
    assert fit.alpha is None and fit.tau_alpha is None
    assert np.isfinite(fit.loglik)
    assert model_aic(fit) == pytest.approx(-2 * fit.loglik + 2)
    with pytest.raises(EstimationError):
        fit.copula_alpha()


def test_profile_single_death_record_reduction():
    y = snap(1.0)
    data = SurvivalData(t=[[0.6, y]], delta=[[1, 0]], y=[y], dtilde=[1])
    ws = smooth_workspace(data)
    cop_a = ArchimedeanCopula("frank", 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        total = ws.profile_loglik(alpha=2.5)
    assert total == pytest.approx(float(ws.loglik_terms(cop_a)[0]))


def test_model_json_roundtrip_value_exact():
    cfg = ex2_config(k=2, tau_alpha=0.4, censor_upper=5.0, n_train=60, n_test=0,
                     seed=29)
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "frank")
    back = FittedJointModel.from_json(fit.to_json())
    assert back.alpha == fit.alpha
    assert back.loglik == fit.loglik
    for a, b in zip(back.marginals, fit.marginals):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)
    assert back.to_json() == fit.to_json()


def test_bootstrap_identity_resample_degenerate(monkeypatch):
    cfg = ex2_config(k=2, tau_alpha=0.4, censor_upper=20.0, n_train=70, n_test=0,
                     seed=31)
    data = simulate_dataset(cfg).train
    monkeypatch.setattr(SurvivalData, "resample", lambda self, rng: self)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = bootstrap_fit(data, "frank", b=2, seed=1)
    lo, hi = out["tau_alpha_ci"]
    assert lo == hi
    assert out["failures"] == 0
    assert np.all(out["tau_theta_ci"][:, 0] == out["tau_theta_ci"][:, 1])


def test_bootstrap_percentile_interval_basic():
    cfg = ex2_config(k=2, tau_alpha=0.5, censor_upper=20.0, n_train=90, n_test=0,
                     seed=37)
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = bootstrap_fit(data, "frank", b=8, seed=2)
    lo, hi = out["tau_alpha_ci"]
    assert 0.0 < lo < hi < 1.0
    assert out["tau_alpha_draws"].size == 8
    for b in (1, 0, -5):  # a count below 2 is a config error, not an estimation one
        with pytest.raises(ConfigError, match="at least 2 replicates"):
            bootstrap_fit(data, "frank", b=b)


@pytest.mark.parametrize(
    "tau_bounds, tau_tol",
    [
        ((0.01, 0.95), float("nan")),
        ((0.01, 0.95), 0.0),
        ((0.01, 0.95), float("inf")),
        ((0.9, 0.1), 1e-4),
        ((0.01, 1.5), 1e-4),
        ((-0.5, 0.95), 1e-4),
        ((float("nan"), 0.95), 1e-4),
    ],
)
def test_fit_rejects_bad_tau_search(tau_bounds, tau_tol):
    data = simulate_dataset(ex1_config(k=2, n_train=30, n_test=0, seed=5)).train
    with pytest.raises(ConfigError, match="tau search"):
        fit_joint_model(data, "frank", tau_bounds=tau_bounds, tau_tol=tau_tol)


def test_aic_definition():
    cfg = ex2_config(k=2, tau_alpha=0.4, censor_upper=20.0, n_train=60, n_test=0,
                     seed=41)
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "frank")
    aic = model_aic(fit)
    fit.loglik += 1.0
    assert model_aic(fit) == pytest.approx(aic - 2.0)


@pytest.mark.slow
def test_ex2_profile_interior_maximum_replicated():
    hits = 0
    reps = 50
    for r in range(reps):
        cfg = ex2_config(k=3, tau_alpha=0.5, censor_upper=20.0, n_train=200,
                         n_test=0, seed=5000 + r)
        data = simulate_dataset(cfg).train
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_joint_model(data, "frank")
        if not fit.diagnostics["alpha_boundary"] and abs(fit.tau_alpha - 0.5) < 0.15:
            hits += 1
    assert hits / reps >= 0.9


@pytest.mark.slow
def test_bootstrap_coverage_ex2():
    # nominal 95% percentile intervals across outer replications
    covered = 0
    reps = 100
    for r in range(reps):
        cfg = ex2_config(k=3, tau_alpha=0.5, censor_upper=20.0, n_train=200,
                         n_test=0, seed=9000 + r)
        data = simulate_dataset(cfg).train
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = bootstrap_fit(data, "frank", b=50, seed=r, threads=2)
        lo, hi = out["tau_alpha_ci"]
        covered += lo <= 0.5 <= hi
    assert 0.88 <= covered / reps <= 0.99


def test_independence_data_hits_lower_boundary():
    # no conditional dependence to find: the search lands at the lower
    # bound and the fit is flagged
    cfg = SimConfig(
        k=2, family="gumbel", tau_alpha=0.0, tau_thetas=(0.4, 0.4),
        n_train=150, n_test=0, censor_upper=20.0, seed=61,
    )
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "frank")
    assert fit.diagnostics["alpha_boundary"]
    assert fit.tau_alpha < 0.05


@pytest.mark.slow
def test_aic_prefers_generating_family():
    from archsurv.simulate import ex2_config

    wins = 0
    reps = 50
    for r in range(reps):
        cfg = ex2_config(k=3, tau_alpha=0.5, censor_upper=20.0, n_train=200,
                         n_test=0, seed=11_000 + r)
        data = simulate_dataset(cfg).train
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aic_f = model_aic(fit_joint_model(data, "frank"))
            aic_g = model_aic(fit_joint_model(data, "gumbel"))
        wins += aic_f < aic_g
    assert wins / reps >= 0.7


@pytest.mark.parametrize(
    "config",
    [
        ex3_config(tau_alpha=0.2, n_train=100, n_test=0, seed=0),
        ex1_config(k=3, tau_alpha=0.2, censor_upper=200.0, n_train=800, n_test=0, seed=0),
    ],
    ids=["ex3-k7", "cohort"],
)
def test_clayton_refit_terms_are_finite_at_strong_association(config):
    # log|psi^(d)| taken after psi^(d) itself underflowed to 0 in 2 (ex3-k7)
    # and 6 (cohort) records of these Frank draws refit with Clayton
    data = simulate_dataset(config).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "clayton")
    ws = LikelihoodWorkspace(
        data, "clayton", [a.theta_hat for a in fit.thetas], fit.marginals, fit.terminal
    )
    terms = ws.loglik_terms(ArchimedeanCopula("clayton", theta_from_tau("clayton", 0.9)))
    assert terms.size == data.n and np.all(np.isfinite(terms))


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_ten_onsets_fit_and_predict(family):
    # no cap on the derivative order: records with 9 or 10 observed onsets
    # once raised EstimationError("[alpha] order 9 exceeds maximum 8")
    config = SimConfig(
        k=10, family=family, tau_thetas=tuple(np.linspace(0.7, 0.3, 10)),
        tau_alpha=0.3, n_train=150, n_test=0, seed=4,
    )
    data = simulate_dataset(config).train
    assert np.sum(data.delta.sum(axis=1) >= 9) > 50
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, family)
    assert np.isfinite(fit.loglik) and 0.01 <= fit.tau_alpha <= 0.95
    i = int(np.flatnonzero(data.delta.sum(axis=1) == 10)[0])
    query = PredictionQuery(tuple((k, float(data.t[i, k])) for k in range(10)))
    curve = predict_curves(query, fit, ("DP",)).values[0]
    assert np.all(np.isfinite(curve)) and curve[0] <= 1.0 and curve[-1] >= 0.0
    assert np.all(np.diff(curve) <= 1e-12)
