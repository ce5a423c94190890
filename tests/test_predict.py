"""Dynamic prediction: reductions, quadrature and generative Monte Carlo
oracles, summary functionals."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate

from archsurv.copulas import ArchimedeanCopula, theta_from_tau
from archsurv import predict
from archsurv.errors import ArchsurvError, ConfigError, DomainError, NotIdentified
from archsurv.likelihood import FittedJointModel
from archsurv.marginals import PairwiseAssociation, WeightSpec
from archsurv.predict import (
    PredictionQuery,
    SurvivalPrediction,
    cmst,
    cqst,
    predict_baseline,
    predict_batch,
    predict_curves,
    predict_survival_dp,
    prediction_interval,
    q_joint_density,
)
from archsurv.simulate import SimConfig, simulate_latent
from archsurv.survival import StepSurvival, kaplan_meier

RATE_K = 1.0
RATE_D = 0.6


def injected_model(tau_thetas=(0.8, 0.5, 0.2), tau_alpha=0.5, family="frank",
                   n_grid=3000, horizon=25.0):
    """True-parameter model on fine discretization grids (no estimation)."""
    grid = np.linspace(horizon / n_grid, horizon, n_grid)
    margs = [StepSurvival(grid, np.exp(-RATE_K * grid), t_max=horizon)
             for _ in tau_thetas]
    term = StepSurvival(grid, np.exp(-RATE_D * grid), t_max=horizon)
    thetas = [
        PairwiseAssociation(k, theta_from_tau(family, t), t, WeightSpec())
        for k, t in enumerate(tau_thetas)
    ]
    alpha = theta_from_tau(family, tau_alpha)
    return FittedJointModel(
        family=family, k=len(tau_thetas), thetas=thetas, marginals=margs,
        terminal=term, censoring=term, t_max=horizon, alpha=alpha,
        tau_alpha=tau_alpha, loglik=0.0,
    )


def km_model(times, events, k=1):
    term = kaplan_meier(times, events)
    marg = StepSurvival([1e9], [1.0], t_max=term.t_max)
    thetas = [PairwiseAssociation(0, 2.0, 0.5, WeightSpec())]
    return FittedJointModel(
        family="frank", k=k, thetas=thetas, marginals=[marg], terminal=term,
        censoring=term, t_max=term.t_max, alpha=2.0, tau_alpha=0.5, loglik=0.0,
    )


# ---------------------------------------------------------------------------
# reductions


def test_dp_m0_is_km_conditional_ratio():
    model = km_model([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
    pred = predict_survival_dp(PredictionQuery(), model, times=[1.0, 2.5, 3.9])
    s = model.terminal.completed()
    expected = np.asarray(s([1.0, 2.5, 3.9])) / 1.0
    assert np.allclose(pred.values, expected)
    assert pred.method == ("DP",)


def test_p0_uncensored_is_empirical_conditional_survival():
    rng = np.random.default_rng(5)
    d = rng.exponential(size=400)
    model = km_model(d, np.ones_like(d))
    lm = float(np.quantile(d, 0.3))
    q = PredictionQuery(((0, lm),))
    pred = predict_baseline(q, model, "P0", times=np.quantile(d, [0.5, 0.7, 0.9]))
    for t, v in zip(pred.times, pred.values[0]):
        emp = (d > t).sum() / (d > lm).sum()
        assert v == pytest.approx(emp, abs=1e-12)


def test_dp_m1_equals_pk_bitwise():
    model = injected_model()
    q = PredictionQuery(((1, 0.7),))
    times = np.linspace(0.8, 6.0, 50)
    dp = predict_survival_dp(q, model, times=times)
    pk = predict_baseline(q, model, "Pk", k=1, times=times)
    assert np.array_equal(dp.values, pk.values)


def test_pkm_at_own_landmark_reduces_to_pk():
    model = injected_model()
    q = PredictionQuery(((2, 1.1),))  # single event: landmark = its time
    times = np.linspace(1.2, 6.0, 30)
    pk = predict_baseline(q, model, "Pk", k=2, times=times)
    pkm = predict_baseline(q, model, "Pkm", k=2, times=times)
    assert np.array_equal(pk.values, pkm.values)


def test_m1_independence_is_terminal_ratio():
    model = injected_model(tau_thetas=(1e-8, 1e-8, 1e-8), tau_alpha=0.3)
    q = PredictionQuery(((0, 0.9),))
    times = np.linspace(1.0, 8.0, 40)
    pred = predict_survival_dp(q, model, times=times)
    s = model.terminal.completed()
    expected = np.asarray(s(times)) / float(s(0.9))
    assert np.max(np.abs(pred.values - expected)) < 1e-6


def test_baseline_requires_observed_event():
    model = injected_model()
    q = PredictionQuery(((0, 0.5),))
    with pytest.raises(DomainError):
        predict_baseline(q, model, "Pk", k=2)


# ---------------------------------------------------------------------------
# joint density factor


def test_q_joint_density_nonnegative_random():
    model = injected_model()
    rng = np.random.default_rng(7)
    for _ in range(20):
        t1, t2 = np.sort(rng.uniform(0.1, 1.5, size=2))
        q = PredictionQuery(((0, t1), (1, t2)))
        ts = rng.uniform(t2 + 0.01, 8.0, size=15)
        vals = q_joint_density(q, ts, model)
        assert np.all(vals >= 0)


def test_q_joint_density_independence_product():
    model = injected_model(tau_thetas=(1e-8, 1e-8, 1e-8), tau_alpha=1e-8)
    q = PredictionQuery(((0, 0.4), (1, 0.8)))
    ts = np.array([1.0, 2.0, 4.0])
    vals = np.asarray(q_joint_density(q, ts, model))
    # under independence the joint onset density given death is the product
    # of the marginal densities, which is the t-free factor prod(-S_k'(t_k))
    # left out of the returned density: what remains is 1 at every t
    assert np.max(np.abs(np.diff(vals))) < 1e-4 * vals[0]
    assert vals[0] == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_q_joint_density_matches_direct_formula(family):
    # the log-domain kernel against the density evaluated term by term:
    # |psi^(m)(sum phi(G_k))| * prod(-phi'(G_k)) * H12_k at S_D's completed
    # midpoint values
    model = injected_model(family=family)
    q = PredictionQuery(((0, 0.3), (1, 0.7), (2, 1.2)))
    atoms, _ = model.terminal.atoms(complete_tail=True)
    ts = atoms[atoms > q.landmark][::50]
    v = model.terminal.completed().mid_value(ts)
    cop_a = model.copula_alpha()
    arg, prod = 0.0, 1.0
    for k, t_k in q.events:
        g, h12 = model.copula_for(k).partials(model.marginals[k](t_k), v)
        arg = arg + cop_a.phi(g)
        prod = prod * -cop_a.phi_prime(g) * h12
    direct = np.abs(cop_a.psi_deriv(arg, q.m)) * prod
    assert np.all(direct > 0)
    assert np.allclose(q_joint_density(q, ts, model), direct, rtol=1e-12, atol=0)


def test_q_joint_density_rejects_times_before_landmark():
    model = injected_model()
    q = PredictionQuery(((0, 0.5), (1, 1.0)))
    with pytest.raises(DomainError):
        q_joint_density(q, [0.9], model)


def test_integrated_q2_matches_mixed_partial_oracle():
    # integral of the m=2 density factor beyond a point vs a brute-force
    # mixed partial of the latent triple survival, by quadrature + differences
    model = injected_model(tau_thetas=(0.5, 0.35, 0.2), tau_alpha=0.45)
    t1, t2, a = 0.6, 1.0, 1.3
    q = PredictionQuery(((0, t1), (1, t2)))
    atoms, masses = model.terminal.atoms(complete_tail=True)
    sel = atoms > a
    impl = float(np.sum(q_joint_density(q, atoms[sel], model) * masses[sel]))
    # the density is returned up to the t-free prod(-S_k'(t_k))
    impl *= (-model.marginals[0].slope(t1)) * (-model.marginals[1].slope(t2))

    cop_a = ArchimedeanCopula("frank", model.alpha)
    cop_1 = model.copula_for(0)
    cop_2 = model.copula_for(1)

    def joint_surv(x1, x2):
        def integrand(y):
            v = np.exp(-RATE_D * y)
            g1, _ = cop_1.partials(np.exp(-RATE_K * x1), v)
            g2, _ = cop_2.partials(np.exp(-RATE_K * x2), v)
            return (
                cop_a.psi(cop_a.phi(g1) + cop_a.phi(g2))
                * RATE_D
                * np.exp(-RATE_D * y)
            )

        val, _ = integrate.quad(integrand, a, 25.0, limit=200)
        return val

    h = 2e-3
    oracle = (
        joint_surv(t1 + h, t2 + h)
        - joint_surv(t1 + h, t2 - h)
        - joint_surv(t1 - h, t2 + h)
        + joint_surv(t1 - h, t2 - h)
    ) / (4 * h * h)
    assert impl == pytest.approx(oracle, rel=2e-2)


# ---------------------------------------------------------------------------
# dynamic prediction against the generative law


def mc_conditional_survival(config, query, times, n_mc, band, seed=0):
    """Rejection-band Monte Carlo estimate of conditional survival given the
    queried onsets and survival past the landmark.

    Within the band the accepted draws tilt toward the high-density corner,
    which biases a plain average at first order in the bandwidth; a local
    linear fit evaluated at the conditioning point removes that tilt.
    """
    lat = simulate_latent(config, n_mc, np.random.default_rng(seed))
    keep = np.ones(n_mc, dtype=bool)
    offsets = []
    for k, t_k in query.events:
        keep &= np.abs(lat.onset[:, k] - t_k) <= band
        offsets.append(lat.onset[:, k] - t_k)
    keep &= lat.d > query.landmark
    d_acc = lat.d[keep]
    assert d_acc.size > 150, "rejection band too narrow"
    if not offsets:
        return np.array([(d_acc > t).mean() for t in times]), d_acc.size
    design = np.column_stack(
        [np.ones(d_acc.size)] + [off[keep] for off in offsets]
    )
    out = []
    for t in times:
        coef, *_ = np.linalg.lstsq(design, (d_acc > t).astype(float), rcond=None)
        out.append(np.clip(coef[0], 0.0, 1.0))
    return np.array(out), d_acc.size


@pytest.mark.parametrize(
    "events",
    [(), ((0, 0.5),), ((0, 0.4), (1, 0.5))],
)
def test_dp_matches_generative_mc(events):
    # the acceptance suite repeats this with 10^6 draws and m up to 3;
    # the rejection band must stay narrow or its own bias dominates
    tau_thetas, tau_alpha = (0.8, 0.5, 0.2), 0.5
    model = injected_model(tau_thetas, tau_alpha)
    cfg = SimConfig(
        k=3, family="frank", tau_alpha=tau_alpha, tau_thetas=tau_thetas,
        n_train=10, n_test=0, seed=0,
    )
    q = PredictionQuery(events)
    times = np.linspace(q.landmark + 0.25, 5.0, 9)
    n_mc = 60_000 if len(events) < 2 else 500_000
    mc, n_acc = mc_conditional_survival(cfg, q, times, n_mc, band=0.08, seed=11)
    pred = predict_survival_dp(q, model, times=times)
    sup = np.max(np.abs(pred.values - mc))
    assert sup < 0.05, (events, sup, n_acc)


def test_dp_independence_equals_p0_any_query():
    model = injected_model(tau_thetas=(1e-8, 1e-8, 1e-8), tau_alpha=1e-8)
    times = np.linspace(1.3, 7.0, 25)
    for events in [(), ((0, 0.5),), ((0, 0.4), (2, 1.2)),
                   ((0, 0.3), (1, 0.7), (2, 1.2))]:
        q = PredictionQuery(events)
        dp = predict_survival_dp(q, model, times=times)
        p0 = predict_baseline(q, model, "P0", times=times)
        assert np.max(np.abs(dp.values - p0.values)) < 2e-3, events


def test_dp_invariant_to_event_order():
    model = injected_model()
    times = np.linspace(1.3, 6.0, 20)
    a = predict_survival_dp(
        PredictionQuery(((0, 0.4), (1, 0.8), (2, 1.2))), model, times=times
    )
    b = predict_survival_dp(
        PredictionQuery(((2, 1.2), (0, 0.4), (1, 0.8))), model, times=times
    )
    assert np.array_equal(a.values, b.values)


def test_dp_monotone_and_one_at_landmark():
    model = injected_model()
    q = PredictionQuery(((0, 0.4), (1, 0.9)))
    pred = predict_survival_dp(q, model)
    assert np.all(np.diff(pred.values) <= 1e-12)
    assert pred.at(q.landmark) == 1.0
    assert np.all((pred.values >= 0) & (pred.values <= 1))


def test_dp_landmark_beyond_followup_not_identified():
    model = km_model([1.0, 2.0], [1, 0])
    with pytest.raises(NotIdentified):
        predict_survival_dp(PredictionQuery(((0, 2.0),)), model)


def with_flat_segment(model, k, t_k):
    """The model with onset k's marginal flat on the grid segment holding
    t_k; S_k(t_k) itself is unchanged."""
    marg = model.marginals[k]
    j = int(np.searchsorted(marg.times, t_k, side="left"))
    values = marg.values.copy()
    values[j] = values[j - 1]
    flat = StepSurvival(marg.times, values, t_max=marg.t_max)
    assert flat(t_k) == marg(t_k) and flat.slope(t_k) == 0.0
    margs = list(model.marginals)
    margs[k] = flat
    return dataclasses.replace(model, marginals=margs)


def test_dp_onset_on_flat_marginal_segment():
    # the slope of an onset's marginal enters the history density as a
    # factor free of the death time, so it cancels in the ratio: an onset on
    # a flat segment predicts as one on a sloped segment with the same S_k
    model = injected_model()
    q = PredictionQuery(((0, 0.404), (1, 0.9)))
    got = predict_survival_dp(q, with_flat_segment(model, 0, 0.404))
    want = predict_survival_dp(q, model)
    assert np.array_equal(got.times, want.times)
    assert np.allclose(got.values, want.values, rtol=1e-12, atol=1e-12)


def test_dp_vanishing_denominator_frame_holds_no_arrays():
    # a caller that stores the exception keeps the raising frames alive
    # through its traceback, so no prediction frame may pin the grid or the
    # per-atom arrays.  An onset before its marginal's first jump has
    # S_k = 1, where a Gumbel theta = 40 density factor H12 underflows to 0
    model = injected_model(family="gumbel")
    model = dataclasses.replace(
        model,
        thetas=[PairwiseAssociation(0, 40.0, 1.0 - 1.0 / 40.0, WeightSpec()),
                *model.thetas[1:]],
    )
    first_jump = float(model.marginals[0].times[0])
    with pytest.raises(NotIdentified, match="denominator") as info:
        predict_survival_dp(
            PredictionQuery(((0, 0.5 * first_jump), (1, 0.9))), model
        )
    held, tb = [], info.value.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == predict.__file__:
            held += [
                name for name, val in tb.tb_frame.f_locals.items()
                if isinstance(val, np.ndarray)
            ]
        tb = tb.tb_next
    assert held == []


def test_dp_curve_that_is_not_finite_is_not_identified():
    # held-out subject 19 has onsets at 0.0040 and 0.0027, where both fitted
    # Gumbel marginals are still 1: at 20 of its 36 atoms both G round to 1,
    # so sum phi(G) = 0, where |psi''| is +inf, and its density is +inf in
    # log space too.  DP returned 130 NaN of 235 points, which evaluation then
    # scored as a NaN DP MSPE with no subject skipped
    from archsurv.likelihood import fit_joint_model
    from archsurv.metrics import MetricConfig, evaluate_model
    from archsurv.simulate import simulate_dataset

    res = simulate_dataset(SimConfig(
        k=2, family="gumbel", tau_alpha=0.5, tau_thetas=(0.3, 0.6), n_train=40,
        n_test=30, seed=1,
    ))
    test = res.test
    query = PredictionQuery(tuple((k, float(test.t[19, k])) for k in range(2)))
    assert test.delta[19].all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_joint_model(res.train, "gumbel")
        with pytest.raises(NotIdentified, match="not finite"):
            predict_curves(query, model, ("DP",))
        reports = evaluate_model(model, test, MetricConfig(), d_true=res.latent_test.d)
    assert reports["DP"].n_skipped == 1
    assert np.isfinite(reports["DP"].mspe) and np.isfinite(reports["DP"].ibs)


def _log_space_dp(model, query, times):
    """The DP curve as a ratio of log-sum-exps of the history's log density
    plus the log atom masses: the terminal mass past each time over the
    mass past the landmark."""
    atoms, masses, _ = model.terminal_measure
    first = np.searchsorted(atoms, query.landmark, side="right")
    x = q_joint_density(query, atoms[first:], model, log=True) + np.log(masses[first:])
    past = [np.logaddexp.reduce(x[atoms[first:] > t]) for t in times]
    return np.exp(np.array(past) - np.logaddexp.reduce(x))


def test_dp_scales_a_history_density_that_underflows():
    # onsets far apart under tau 0.95: the density is below 1e-308 at every
    # atom, so the tail ratio was 0 / 0 ("denominator integral vanished");
    # scaled by its largest value it gives the log-sum-exp ratio
    model = injected_model(tau_thetas=(0.95,) * 4, tau_alpha=0.2, family="clayton", n_grid=400)
    query = PredictionQuery(((0, 0.15), (1, 2.7), (2, 6.3), (3, 16.3)))
    atoms = model.terminal_measure[0]
    first = np.searchsorted(atoms, query.landmark, side="right")
    log_q = q_joint_density(query, atoms[first:], model, log=True)
    assert np.all(q_joint_density(query, atoms[first:], model) == 0.0)
    assert np.isfinite(log_q.max()) and log_q.max() < -745.0
    got = predict_curves(query, model, ("DP", "P0"))
    np.testing.assert_allclose(
        got.values[0], _log_space_dp(model, query, got.times), rtol=1e-12, atol=1e-300
    )
    assert np.all(np.diff(got.values[0]) <= 0.0)
    (_, pred, failures), = predict_batch([query], model, ("DP", "P0"))
    assert not failures and np.array_equal(pred.subject(0).values, got.values)


def test_tail_rows_do_not_depend_on_the_density_scale():
    # a row whose densities all overflow or underflow is scaled by its
    # largest one; other rows keep the unscaled arithmetic bit for bit.  A
    # history with a density of +inf, or none above 0, is not identified
    model = injected_model(n_grid=400)
    queries = [PredictionQuery(ev) for ev in (((0, 0.4), (2, 1.1)), ((0, 0.3), (1, 0.7), (2, 1.2)))]
    atoms = model.terminal_measure[0]
    start = np.searchsorted(atoms, [q.landmark for q in queries], side="right")
    log_q = predict._density_of_many(model, queries, start)
    times = np.tile(np.linspace(1.5, 20.0, 40), (2, 1))
    landmarks = [q.landmark for q in queries]
    base, errors = predict._tail_rows(model, log_q, start, times, landmarks)
    assert not errors
    for shift in (-2000.0, -800.0, 800.0, 2000.0):
        rows, errors = predict._tail_rows(model, log_q + shift, start, times, landmarks)
        assert not errors
        np.testing.assert_allclose(rows, base, rtol=1e-13, atol=1e-300)
    one = log_q + np.array([[0.0], [900.0]])  # only the second row is scaled
    rows, _ = predict._tail_rows(model, one, start, times, landmarks)
    assert np.array_equal(rows[0], base[0])
    bad = log_q.copy()
    bad[0, -3] = np.inf
    bad[1, start[1]:] = -np.inf
    _, errors = predict._tail_rows(model, bad, start, times, landmarks)
    assert "not finite" in str(errors[0]) and "vanished" in str(errors[1])


# ---------------------------------------------------------------------------
# one prediction path for every method


def _one_query(q, model, method, times=None):
    """The curve of one method by the one-curve predictors."""
    if method == "DP":
        return predict_survival_dp(q, model, times=times)
    if method == "P0":
        return predict_baseline(q, model, "P0", times=times)
    base, _, knum = method.partition(":")
    return predict_baseline(q, model, base, k=int(knum) - 1, times=times)


def _close(a, b):
    return np.allclose(a, b, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "events",
    [(), ((1, 0.7),), ((0, 0.4), (2, 1.1)), ((0, 0.3), (1, 0.7), (2, 1.2))],
)
@pytest.mark.parametrize("default_grid", [True, False])
def test_curve_matrix_rows_equal_one_query_composition(events, default_grid):
    # every row of the matrix, and its summaries, against the one-curve
    # predictor followed by cmst, cqst and prediction_interval
    model = injected_model()
    q = PredictionQuery(events)
    methods = ["DP", "P0"] + [
        f"{base}:{k + 1}" for k, _ in q.events for base in ("Pk", "Pkm")
    ]
    t_star = 8.0
    times = None if default_grid else np.linspace(q.landmark, t_star, 61)[1:]
    pred = predict_curves(q, model, methods, times=times)
    assert pred.values.shape == (len(methods), pred.times.size)
    means = cmst(pred, t_star)
    medians = cqst(pred, 0.5)
    iv = prediction_interval(pred, t_u_star=t_star)
    for j, method in enumerate(methods):
        one = _one_query(q, model, method, times=times)
        assert np.array_equal(one.times, pred.times)
        assert _close(pred.values[j], one.values), method
        assert _close(means[j], cmst(one, t_star)), method
        assert _close(medians[j], cqst(one, 0.5)), method
        one_iv = prediction_interval(one, t_u_star=t_star)
        assert _close(iv.lo[j], one_iv.lo) and _close(iv.hi[j], one_iv.hi), method
        assert iv.hi_censored[j] == one_iv.hi_censored, method


def test_curve_matrix_shares_coinciding_rows():
    model = injected_model()
    one = PredictionQuery(((1, 0.7),))
    pred = predict_curves(one, model, ["DP", "Pk:2", "Pkm:2"])
    assert np.array_equal(pred.values[0], pred.values[1])
    assert np.array_equal(pred.values[1], pred.values[2])
    none = predict_curves(PredictionQuery(), model, ["DP", "P0"])
    assert np.array_equal(none.values[0], none.values[1])
    assert pred.method == ("DP", "Pk:2", "Pkm:2")


def test_curve_matrix_method_grammar():
    model = injected_model()
    q = PredictionQuery(((0, 0.5),))
    for bad in ("XX", "Pk", "Pk:one", "Pkx:1"):
        with pytest.raises(ConfigError):
            predict_curves(q, model, [bad])
    with pytest.raises(DomainError, match="^onset 2 not observed in the query$"):
        predict_curves(q, model, ["Pk:2"])
    with pytest.raises(DomainError):
        predict_curves(q, model, ["DP"], times=[0.4, 1.0])
    # cmst, cqst and prediction_interval read the grid in order: on
    # [3, 1, 4, 2] the CMST of one history came out 1.642 instead of 0.751;
    # a one-point NaN grid gave survival 0 at NaN, and a scalar an IndexError
    for times in ([3.0, 1.0, 4.0, 2.0], [1.0, 2.0, 2.0, 3.0], [np.nan], [1.0, np.inf], 2.0):
        with pytest.raises(DomainError, match="strictly increasing"):
            predict_curves(q, model, ["DP", "P0", "Pk:1"], times=times)


def test_summaries_reduce_rows_with_nan_for_unreached_quantiles():
    ts = np.array([2.0, 3.0, 4.0])
    vals = np.array([[0.9, 0.6, 0.3], [0.9, 0.8, 0.7]])
    pred = SurvivalPrediction(ts, vals, ("a", "b"), 1.0)
    q = cqst(pred, 0.5)
    assert q[0] == 4.0 and np.isnan(q[1])
    iv = prediction_interval(pred, t_u_star=4.5)
    assert list(iv.lo) == [2.0, 2.0] and list(iv.hi) == [4.5, 4.5]
    assert list(iv.hi_censored) == [True, True]
    # a lower level out of reach on any one curve is not identified
    high = SurvivalPrediction(ts, np.vstack([vals, [0.99, 0.99, 0.98]]), ("a", "b", "c"), 1.0)
    with pytest.raises(NotIdentified):
        prediction_interval(high)
    with pytest.warns(UserWarning) as coarse:
        means = cmst(pred, 4.0)
        assert len(coarse) == 1  # the grid is shared: one warning for both
        for j in range(2):
            one = SurvivalPrediction(ts, vals[j : j + 1], ("x",), 1.0)
            assert means[j] == cmst(one, 4.0)[0]


# ---------------------------------------------------------------------------
# many histories at once


BATCH_HISTORIES = [
    (), ((1, 0.7),), ((0, 2.0),), ((0, 0.4), (2, 1.1)), ((0, 0.3), (1, 0.7), (2, 1.2)),
    ((1, 4.0), (2, 9.5)), ((0, 12.0), (1, 0.2), (2, 6.0)), ((2, 0.05),),
    # past the last terminal atom (20): not identified inside a chunk
    ((0, 21.0),), ((0, 1.0), (1, 21.0)), ((0, 1.0), (1, 22.0), (2, 2.0)),
    # at the end of follow-up: not identified before any chunk
    ((0, 25.0), (1, 3.0)),
]


def with_dead_tail(model, t_end):
    """The model with its terminal curve dropping to 0 at t_end < t_max."""
    term = model.terminal
    keep = term.times <= t_end
    values = term.values[keep].copy()
    values[-1] = 0.0
    return dataclasses.replace(
        model, terminal=StepSurvival(term.times[keep], values, t_max=term.t_max)
    )


def _all_methods(q):
    return ["DP", "P0"] + [f"{base}:{k + 1}" for k, _ in q.events for base in ("Pk", "Pkm")]


def _batch_outcomes(queries, model, methods, times=None):
    """{position: its own SurvivalPrediction or its exception}, and the
    number of chunks."""
    seen, chunks = {}, 0
    for index, pred, failures in predict_batch(queries, model, methods, times):
        chunks += 1
        assert not set(failures) & set(seen)
        seen.update(failures)
        for r, pos in enumerate(index):
            seen[pos] = pred.subject(r)
    return seen, chunks


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
@pytest.mark.parametrize("default_grid", [True, False])
def test_batch_rows_equal_one_query_curves(family, default_grid, monkeypatch):
    # each history's rows from predict_batch against predict_curves alone:
    # m = 0..3, ragged method lists, histories that are not identified
    # reported one by one, and a chunk budget of a few histories per chunk
    model = with_dead_tail(injected_model(family=family, n_grid=400), 20.0)
    queries = [PredictionQuery(ev) for ev in BATCH_HISTORIES * 3]
    methods = [_all_methods(q) for q in queries]
    times = None if default_grid else np.linspace(0.02, 24.0, 90)
    monkeypatch.setattr(predict, "CHUNK_CELLS", 20_000 if default_grid else 3_000)
    seen, chunks = _batch_outcomes(queries, model, methods, times)
    assert chunks >= 6
    assert sorted(seen) == list(range(len(queries)))
    failed = 0
    for pos, q in enumerate(queries):
        own = None if times is None else times[times > q.landmark]
        try:
            one = predict_curves(q, model, methods[pos], own)
        except ArchsurvError as exc:
            assert type(seen[pos]) is type(exc) and str(seen[pos]) == str(exc)
            failed += isinstance(exc, NotIdentified)
            continue
        got = seen[pos]
        assert got.method == tuple(methods[pos]) and got.landmark == q.landmark
        assert np.array_equal(got.times, one.times)
        assert np.allclose(got.values, one.values, rtol=1e-12, atol=0.0)
    assert failed == 3 * (4 if default_grid else 3)


def test_batch_takes_one_method_list_for_all_and_reports_bad_methods():
    model = injected_model(n_grid=400)
    queries = [PredictionQuery(ev) for ev in BATCH_HISTORIES[:5]]
    seen, _ = _batch_outcomes(queries, model, ("DP", "P0"))
    for pos, q in enumerate(queries):
        assert np.array_equal(seen[pos].values, predict_curves(q, model, ("DP", "P0")).values)
    seen, _ = _batch_outcomes(queries, model, ("Pk:2",))
    assert [type(seen[pos]).__name__ for pos in range(5)] == [
        "DomainError", "SurvivalPrediction", "DomainError", "DomainError", "SurvivalPrediction"
    ]
    seen, _ = _batch_outcomes(queries, model, ("Pk:x",))
    assert all(isinstance(seen[pos], ConfigError) for pos in range(5))
    for times in ([2.0, 1.0], [np.nan]):
        with pytest.raises(DomainError, match="strictly increasing"):
            list(predict_batch(queries, model, ("DP",), times=times))


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_history_cells_density_equals_q_joint_density(family):
    # the cells of many histories give each history's log density bit for
    # bit: K = 3 with the batch histories, and K = 7 and K = 10 with one
    # history of every size from 2 to K, its onsets in a random order
    rng = np.random.default_rng(23)
    cases = [
        (injected_model(family=family, n_grid=400),
         [PredictionQuery(ev) for ev in BATCH_HISTORIES[3:8]]),
    ]
    for k in (7, 10):
        model = injected_model(
            tau_thetas=tuple(np.linspace(0.2, 0.8, k)), family=family, n_grid=400
        )
        queries = [
            PredictionQuery(tuple(zip(rng.permutation(k)[:m].tolist(), rng.uniform(0.05, 3.0, m))))
            for m in range(2, k + 1)
        ]
        cases.append((model, queries))
    for model, queries in cases:
        atoms = model.terminal_measure[0]
        start = np.searchsorted(atoms, [q.landmark for q in queries], side="right")
        many = predict._density_of_many(model, queries, start)
        for i, (q, first) in enumerate(zip(queries, start)):
            one = q_joint_density(q, atoms[first:], model, log=True)
            assert not np.isnan(one).any()
            assert np.all(many[i, :first] == -np.inf)
            assert np.array_equal(many[i, first:], one)
            assert np.array_equal(np.exp(one), q_joint_density(q, atoms[first:], model))


@pytest.mark.parametrize("default_grid", [True, False])
def test_batch_summaries_equal_one_history_summaries(default_grid, monkeypatch):
    # cmst, cqst, prediction_interval and at over (subjects, methods) rows
    # against the same calls on each history's own prediction, bit for bit;
    # on the coarse supplied grid cmst warns once per history
    model = with_dead_tail(injected_model(n_grid=400), 20.0)
    queries = [PredictionQuery(ev) for ev in BATCH_HISTORIES[:8]]
    methods = [_all_methods(q) for q in queries]
    times = None if default_grid else np.linspace(0.0, 24.0, 9)[1:]
    monkeypatch.setattr(predict, "CHUNK_CELLS", 20_000 if default_grid else 200)
    grid = np.linspace(0.0, 20.0, 41)
    parts = warned = 0
    for index, pred, _ in predict_batch(queries, model, methods, times):
        parts += 1
        with warnings.catch_warnings(record=True) as batch_warnings:
            warnings.simplefilter("always")
            means = cmst(pred, 13.0)
        medians = cqst(pred, 0.5)
        iv = prediction_interval(pred, t_u_star=13.0)
        default_iv = prediction_interval(pred)
        values = pred.at(grid)
        assert means.shape == medians.shape == iv.lo.shape == pred.values.shape[:2]
        assert values.shape == pred.values.shape[:2] + grid.shape
        for r in range(index.size):
            one = pred.subject(r)
            n = len(one.method)
            with warnings.catch_warnings(record=True) as own:
                warnings.simplefilter("always")
                assert np.array_equal(means[r, :n], cmst(one, 13.0))
            # one warning per history whose own grid is coarse, in order
            if own:
                assert str(own[0].message) == str(batch_warnings.pop(0).message)
                warned += 1
            assert np.array_equal(medians[r, :n], cqst(one, 0.5), equal_nan=True)
            own_iv = prediction_interval(one, t_u_star=13.0)
            for name in ("lo", "hi", "hi_censored"):
                assert np.array_equal(getattr(iv, name)[r, :n], getattr(own_iv, name))
            own_iv = prediction_interval(one)
            assert np.array_equal(default_iv.hi[r, :n], own_iv.hi)
            assert np.array_equal(values[r, :n], one.at(grid))
        assert not batch_warnings
    assert parts >= 2
    # (the history with landmark 12 has no grid time in (12, 13): no warning)
    assert warned == (0 if default_grid else 7)


def test_batch_memory_is_bounded():
    # 1,400 held-out histories with evaluate's six methods: their curves in
    # one (subjects x methods x grid) array, with its temporaries, peak at
    # about 58 MB here; chunks of CHUNK_CELLS cells at about 2 MB
    import tracemalloc

    from archsurv.likelihood import fit_joint_model
    from archsurv.metrics import DEFAULT_METHODS, _method_for, subject_query
    from archsurv.simulate import ex1_config, simulate_dataset

    res = simulate_dataset(
        ex1_config(k=3, tau_alpha=0.2, censor_upper=5.0, n_train=200, n_test=1400, seed=0)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_joint_model(res.train, "frank")
    queries = [subject_query(res.test, i) for i in range(res.test.n)]
    names = [[_method_for(m, q, model.k) for m in DEFAULT_METHODS] for q in queries]
    model.terminal_measure  # computed once per model, outside the peak
    tracemalloc.start()
    try:
        predicted = sum(index.size for index, _, _ in predict_batch(queries, model, names))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert predicted == 1400
    assert peak < 8e6


# ---------------------------------------------------------------------------
# residual-lifetime summaries


def _flat_pred(value, lm=1.0, t_end=5.0, n=200):
    ts = np.linspace(lm + 1e-9, t_end, n)
    return SurvivalPrediction(ts, np.full((1, n), float(value)), ("DP",), lm)


def test_cmst_constant_curves():
    assert cmst(_flat_pred(1.0), 5.0) == pytest.approx(5.0)
    assert cmst(_flat_pred(0.0), 5.0) == pytest.approx(1.0, abs=1e-6)


def test_cmst_refinement_oracle():
    model = injected_model()
    q = PredictionQuery(((0, 0.5), (1, 1.0)))
    lm = q.landmark
    coarse_times = np.linspace(lm, model.t_max, 300)[1:]
    fine_times = np.linspace(lm, model.t_max, 3000)[1:]
    c1 = cmst(predict_survival_dp(q, model, times=coarse_times), 12.0)
    c2 = cmst(predict_survival_dp(q, model, times=fine_times), 12.0)
    assert abs(c1 - c2) < 1e-3 * (12.0 - lm)


def test_cmst_respects_stochastic_ordering():
    hi = _flat_pred(0.9)
    lo = _flat_pred(0.4)
    assert cmst(hi, 5.0) > cmst(lo, 5.0)


def test_cmst_warns_on_coarse_grid():
    ts = np.array([1.5, 4.9])
    pred = SurvivalPrediction(ts, np.array([[0.9, 0.5]]), ("DP",), 1.0)
    with pytest.warns(UserWarning):
        cmst(pred, 5.0)


def test_cqst_direct_inversion():
    ts = np.array([2.0, 3.0, 4.0, 5.0])
    vals = np.array([[0.9, 0.7, 0.5, 0.2]])
    pred = SurvivalPrediction(ts, vals, ("DP",), 1.0)
    assert cqst(pred, 0.5) == [4.0]
    assert cqst(pred, 0.1) == [2.0]
    assert np.isnan(cqst(pred, 0.9)).all()  # past the curve's reach


def test_cqst_levels_are_ordered():
    model = injected_model()
    pred = predict_survival_dp(PredictionQuery(((0, 0.6),)), model)
    qs = [cqst(pred, lv) for lv in (0.025, 0.5, 0.975)]
    assert qs[0] <= qs[1] <= qs[2]


def test_prediction_interval_degenerate_and_flags():
    ts = np.array([2.0, 2.0001, 5.0])
    pred = SurvivalPrediction(ts, np.array([[1.0, 0.0, 0.0]]), ("DP",), 1.0)
    iv = prediction_interval(pred)
    assert iv.width == [0.0]  # both quantiles hit the single drop point
    assert iv.hi_censored == [False]
    # a curve that never falls low enough right-censors the upper bound
    pred2 = SurvivalPrediction(
        np.array([2.0, 5.0]), np.array([[0.9, 0.5]]), ("DP",), 1.0
    )
    iv2 = prediction_interval(pred2, t_u_star=5.0)
    assert iv2.hi_censored == [True] and iv2.hi == [5.0]
    assert iv2.covers(3.0) == [True] and iv2.covers(1.5) == [False]


def test_cmst_early_events_worsen_outlook():
    # accumulating early onsets lowers the restricted mean, both against the
    # no-history curve and against the uninformed baseline at the same
    # landmark (later events can still raise it by moving the landmark)
    model = injected_model((0.8, 0.5, 0.2), 0.5)
    none = cmst(predict_survival_dp(PredictionQuery(()), model), 12.0)
    one = cmst(predict_survival_dp(PredictionQuery(((0, 0.5),)), model), 12.0)
    two = cmst(
        predict_survival_dp(PredictionQuery(((0, 0.5), (1, 0.5))), model), 12.0
    )
    assert one < none
    assert two <= one
    q3 = PredictionQuery(((0, 0.5), (1, 0.5), (2, 0.9)))
    dp3 = cmst(predict_survival_dp(q3, model), 12.0)
    p0_same_landmark = cmst(predict_baseline(q3, model, "P0"), 12.0)
    assert dp3 < p0_same_landmark


@pytest.mark.slow
def test_interval_width_shrinks_with_more_events():
    # richer histories produce tighter intervals: K=7 beats K=3 on median width
    import warnings

    from archsurv.likelihood import fit_joint_model
    from archsurv.metrics import MetricConfig, evaluate_model
    from archsurv.simulate import ex1_config, simulate_dataset

    mids = {}
    for k in (3, 7):
        vals = []
        for r in range(6):
            res = simulate_dataset(
                ex1_config(k=k, tau_alpha=0.2, censor_upper=20.0, n_train=100,
                           seed=900 + r)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = fit_joint_model(res.train, "frank")
                rep = evaluate_model(
                    fit, res.train, MetricConfig(t_u_star=12.0),
                    d_true=res.latent_train.d, methods=("DP",),
                )
            vals.append(rep["DP"].mid)
        mids[k] = float(np.mean(vals))
    assert mids[7] < mids[3]
