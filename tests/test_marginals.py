"""Stage-one estimators: concordance equation, self-consistency, conditional
survival."""

import tracemalloc
import warnings

import numpy as np
import pytest

from archsurv import likelihood, marginals

from archsurv.copulas import ArchimedeanCopula, theta_from_tau
from archsurv.data import SurvivalData
from archsurv.errors import DomainError, EstimationError, NoComparablePairs, NoRootError
from archsurv.likelihood import (
    FittedJointModel,
    bootstrap_fit,
    fit_joint_model,
    onset_partials,
)
from archsurv.marginals import (
    TAU_BRACKET,
    PairwiseAssociation,
    WeightSpec,
    _block_rows,
    _PairTable,
    censoring_km,
    self_consistent_marginal,
    solve_theta,
    terminal_km,
)
from archsurv.predict import PredictionQuery, q_joint_density
from archsurv.simulate import SimConfig, ex1_config, ex3_config, simulate_dataset
from archsurv.survival import StepSurvival, kaplan_meier
from tests._oracles import (
    _suffix_counts,
    copula_from_tau,
    reference_pair_table,
    reference_self_consistent,
)


def _sim(config):
    return simulate_dataset(config)


def _one_onset(data, k):
    """The records with onset k alone (K = 1)."""
    return SurvivalData(data.t[:, [k]], data.delta[:, [k]], data.y, data.dtilde)


def _marginal(k, data, theta, s_d, family, info=None):
    """Onset k's self-consistent marginal, swept alone; `info` receives its
    sweeps and whether it converged."""
    one = {}
    curve, = self_consistent_marginal(_one_onset(data, k), [theta], s_d, family, info=one)
    if info is not None:
        info.update(iterations=one["iterations"][0], converged=one["converged"][0])
    return curve


def concordance_score(theta, k, data, family):
    """Value of the estimating equation for the k-th association at theta."""
    table = _PairTable(k, data, censoring_km(data), WeightSpec())
    return table.score(ArchimedeanCopula(family, theta))


# ---------------------------------------------------------------------------
# joint exceedance counts against the dense O(n) per query oracle


def _count_joint_exceed(t, y, x_q, y_q, strict=True):
    """#subjects with T > x and Y > y per query (>= both if not strict)."""
    op = np.greater if strict else np.greater_equal
    return (op(t[None, :], x_q[:, None]) & op(y[None, :], y_q[:, None])).sum(axis=1)


def _dense_pair_table(k, data, s_c, weight_spec):
    """(s, conc, w) of the concordance equation, counted subject by subject."""
    t, d = data.t[:, k], data.delta[:, k].astype(bool)
    y, dt, n = data.y, data.dtilde.astype(bool), data.n
    iu, ju = np.triu_indices(n, k=1)
    t_i, t_j, y_i, y_j = t[iu], t[ju], y[iu], y[ju]
    usable = (
        (t_i != t_j) & (y_i != y_j)
        & np.where(t_i < t_j, d[iu], d[ju])
        & np.where(y_i < y_j, dt[iu], dt[ju])
    )
    x_pair = np.minimum(t_i, t_j)[usable]
    y_pair = np.minimum(y_i, y_j)[usable]
    conc = (((t_i - t_j) * (y_i - y_j)) > 0)[usable]
    sc_y = np.asarray(s_c(y_pair), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_val = _count_joint_exceed(t, y, x_pair, y_pair) / (n * sc_y)
    ok = sc_y > 0
    s = np.clip(s_val[ok], 1e-10, 1.0)
    if weight_spec.kind == "unit":
        return s, conc[ok].astype(float), np.ones(s.size)
    a = weight_spec.a if weight_spec.a is not None else np.quantile(t, 0.9)
    b = weight_spec.b if weight_spec.b is not None else np.quantile(y, 0.9)
    inv = _count_joint_exceed(
        t, y, np.minimum(a, x_pair[ok]), np.minimum(b, y_pair[ok]), strict=False
    ) / n
    w = np.where(inv > 0, 1.0 / np.maximum(inv, 1e-12), 0.0)
    return s, conc[ok].astype(float), w


def _tied_data(rng, n):
    """One onset on integer times 0..5: almost every time is tied."""
    y = rng.integers(0, 6, size=n).astype(float)
    delta = rng.integers(0, 2, size=n)
    t = np.where(delta == 1, np.floor(rng.uniform(0, 1, size=n) * (y + 1)), y)
    return SurvivalData(t[:, None], delta[:, None], y, rng.integers(0, 2, size=n))


@pytest.mark.parametrize("seed", range(20))
def test_suffix_counts_match_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    data = _tied_data(rng, int(rng.integers(2, 301)))
    t, y = data.t[:, 0], data.y
    ut, uy, rt, ry, table = _suffix_counts(t, y)
    assert np.array_equal(ut[rt], t) and np.array_equal(uy[ry], y)
    # every (x, y) on data values, strict and non-strict
    x_q, y_q = (g.ravel() for g in np.meshgrid(ut, uy, indexing="ij"))
    strict = _count_joint_exceed(t, y, x_q, y_q, strict=True)
    loose = _count_joint_exceed(t, y, x_q, y_q, strict=False)
    assert np.array_equal(table[1:, 1:].ravel(), strict)
    assert np.array_equal(table[:-1, :-1].ravel(), loose)


@pytest.mark.parametrize("seed", range(20))
def test_pair_table_matches_dense_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    data = _tied_data(rng, int(rng.integers(2, 301)))
    s_c = censoring_km(data)
    t, y = data.t[:, 0], data.y
    specs = [
        WeightSpec(),
        WeightSpec("dampened"),
        WeightSpec("dampened", a=float(t[0]), b=float(y[-1])),  # on data values
        WeightSpec("dampened", a=2.5, b=3.5),  # between data values
        WeightSpec("dampened", a=t.max() + 1.0, b=y.max() + 1.0),  # beyond
    ]
    for spec in specs:
        table = _PairTable(0, data, s_c, spec)
        s, conc, w = _dense_pair_table(0, data, s_c, spec)
        # the statistic: weight per distinct s, and the pair and weight totals
        us, w_by_s = _weight_by_s(table.s, table.w)
        dense_us, dense_w_by_s = _weight_by_s(s, w)
        assert np.array_equal(us, dense_us)
        np.testing.assert_allclose(w_by_s, dense_w_by_s, rtol=1e-13)
        assert table.pairs == s.size
        assert table.w.sum() == pytest.approx(w.sum(), rel=1e-13)
        assert table.wc.sum() == pytest.approx(np.sum(w * conc), rel=1e-13)
        if s.size == 0:
            continue
        for tau in (0.05, 0.3, 0.6, 0.95):
            cop = copula_from_tau("frank", tau)
            gamma = cop.cross_ratio(s)
            u = np.sum(w * (conc - gamma / (gamma + 1.0))) / w.sum()
            assert abs(table.score(cop) - u) <= 1e-15


def _weight_by_s(s, w):
    us, at = np.unique(s, return_inverse=True)
    return us, np.bincount(at, w, us.size)


def _solve_theta_both(monkeypatch, k, data, family, spec):
    """tau-hat from the package's table and from the per-pair reference."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = solve_theta(k, data, family, weight_spec=spec)
        with monkeypatch.context() as m:
            m.setattr(marginals, "_PairTable", reference_pair_table)
            ref = solve_theta(k, data, family, weight_spec=spec)
    return est.tau_hat, ref.tau_hat


# the training designs of the benchmark workloads (perfbench/workloads.py)
_BENCHMARK_DESIGNS = {
    "ex3-k7": ex3_config(tau_alpha=0.2, n_train=100, n_test=0, seed=0),
    "cohort": ex1_config(
        k=3, tau_alpha=0.2, censor_upper=200.0, n_train=800, n_test=0, seed=0
    ),
    "predict-eval": ex1_config(
        k=3, tau_alpha=0.2, censor_upper=5.0, n_train=200, n_test=0, seed=0
    ),
}


@pytest.mark.parametrize("design", sorted(_BENCHMARK_DESIGNS))
def test_reduced_theta_matches_per_pair_reference(monkeypatch, design):
    data = _sim(_BENCHMARK_DESIGNS[design]).train
    for family in ("frank", "clayton", "gumbel"):
        for spec in (WeightSpec(), WeightSpec("dampened")):
            for k in range(data.k):
                tau, ref = _solve_theta_both(monkeypatch, k, data, family, spec)
                assert abs(tau - ref) <= 1e-9, (family, spec.kind, k)


def test_reduced_theta_matches_per_pair_reference_on_ties(monkeypatch):
    data = _tied_data(np.random.default_rng(5), 2000)
    for family in ("frank", "clayton", "gumbel"):
        for spec in (WeightSpec(), WeightSpec("dampened")):
            tau, ref = _solve_theta_both(monkeypatch, 0, data, family, spec)
            assert abs(tau - ref) <= 1e-9, (family, spec.kind)


@pytest.mark.parametrize("kind", ["unit", "dampened"])
@pytest.mark.parametrize(
    "t, delta, y, dtilde",
    [
        ([[1.0]], [[1]], [2.0], [1]),  # one subject
        ([[1.0]] * 4, [[1]] * 4, [2.0, 3.0, 4.0, 5.0], [1] * 4),  # onsets tied
        ([[2.0], [3.0], [4.0]], [[0]] * 3, [2.0, 3.0, 4.0], [1] * 3),  # no onset
        ([[1.0], [2.0], [3.0]], [[1]] * 3, [2.0, 3.0, 4.0], [0] * 3),  # no death
    ],
)
def test_solve_theta_without_comparable_pairs(t, delta, y, dtilde, kind):
    data = SurvivalData(t=t, delta=delta, y=y, dtilde=dtilde)
    with pytest.raises(NoComparablePairs):
        solve_theta(0, data, "frank", weight_spec=WeightSpec(kind))


def test_solve_theta_large_n():
    cfg = ex1_config(k=3, n_train=3200, n_test=0, seed=41)
    data = _sim(cfg).train
    est = solve_theta(0, data, "frank")
    assert est.tau_hat == pytest.approx(cfg.tau_thetas[0], abs=3.5 / np.sqrt(data.n))


def test_theta_counts_in_diagnostics():
    data = _sim(ex1_config(k=3, n_train=150, seed=43)).train
    fit = fit_joint_model(data, "frank")
    s_c = censoring_km(data)
    for k in range(data.k):
        info = {}
        solve_theta(k, data, "frank", s_c=s_c, info=info)
        assert info["pairs"] == _PairTable(k, data, s_c, WeightSpec()).pairs > 0
        assert info["pairs"] == reference_pair_table(k, data, s_c, WeightSpec()).pairs
        assert info["evals"] > 0
        assert fit.diagnostics[f"theta_{k + 1}_pairs"] == info["pairs"]
        assert fit.diagnostics[f"theta_{k + 1}_evals"] == info["evals"]


def test_concordance_single_pair_arithmetic():
    # two subjects, concordant, both minima observed: U = conc - gamma/(gamma+1)
    data = SurvivalData(
        t=[[1.0], [2.0]], delta=[[1], [1]], y=[3.0, 4.0], dtilde=[1, 1]
    )
    # clayton: gamma = theta + 1, so gamma/(gamma+1) = (theta+1)/(theta+2)
    theta = 1.0
    val = concordance_score(theta, 0, data, "clayton")
    assert val == pytest.approx(1.0 - 2.0 / 3.0)


def test_concordance_zero_at_truth_clayton():
    cfg = SimConfig(
        k=1,
        family="clayton",
        tau_alpha=0.5,
        tau_thetas=(0.5,),
        n_train=2000,
        n_test=0,
        censor_upper=20.0,
        seed=101,
    )
    data = _sim(cfg).train
    theta_true = theta_from_tau("clayton", 0.5)
    val = concordance_score(theta_true, 0, data, "clayton")
    # U-statistic scale: projection-based standard error estimate
    assert abs(val) < 0.03


def test_solve_theta_recovers_independence():
    cfg = SimConfig(
        k=1,
        family="gumbel",
        tau_alpha=0.0,
        tau_thetas=(0.0,),
        n_train=2000,
        n_test=0,
        censor_upper=1e9,  # effectively uncensored
        seed=7,
    )
    data = _sim(cfg).train
    est = solve_theta(0, data, "gumbel")
    assert abs(est.tau_hat) < 0.05


def test_solve_theta_recovers_truth_frank():
    cfg = SimConfig(
        k=2,
        family="frank",
        tau_alpha=0.4,
        tau_thetas=(0.5, 0.3),
        n_train=1500,
        n_test=0,
        seed=31,
    )
    data = _sim(cfg).train
    est0 = solve_theta(0, data, "frank")
    est1 = solve_theta(1, data, "frank")
    assert est0.tau_hat == pytest.approx(0.5, abs=0.06)
    assert est1.tau_hat == pytest.approx(0.3, abs=0.06)
    assert est0.tau_hat > est1.tau_hat


def test_solve_theta_comonotone_degenerate():
    rng = np.random.default_rng(3)
    d = rng.exponential(size=120)
    onset = 0.99 * d
    y = d
    data = SurvivalData(
        t=onset[:, None], delta=np.ones((120, 1)), y=y, dtilde=np.ones(120)
    )
    with pytest.raises(NoRootError, match="onset 1: no sign change"):
        solve_theta(0, data, "frank")


def test_messages_name_onsets_from_one(monkeypatch):
    # as Pk:K, t1..tK and theta_k_pairs do; a fit once failed with
    # "theta[2]: event 1: no comparable pairs"
    data = _sim(ex1_config(k=2, n_train=60, n_test=0, seed=1)).train
    t = data.t.copy()
    t[:, 1] = data.y
    no_onset_2 = SurvivalData(t, data.delta * [1, 0], data.y, data.dtilde)
    with pytest.raises(NoComparablePairs, match="^onset 2: no comparable pairs$"):
        solve_theta(1, no_onset_2, "frank")
    with pytest.raises(EstimationError, match=r"^\[theta\[2\]\] onset 2: no comparable"):
        fit_joint_model(no_onset_2, "frank")
    monkeypatch.setattr(marginals, "SC_MAX_SWEEPS", 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        self_consistent_marginal(data, [5.0, 5.0], terminal_km(data), "frank")
    assert [str(w.message) for w in caught] == [
        f"self-consistency for onset {k} stopped after 1 sweeps" for k in (1, 2)
    ]


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_solve_theta_below_independence_returns_lower_end(family):
    # onsets fall as death times rise: every pair is discordant, so U < 0
    # over the whole bracket and the association sits at its lower end
    rng = np.random.default_rng(3)
    d = np.sort(rng.exponential(size=120))
    onset = 0.5 * d[0] * np.linspace(1.0, 0.01, 120)
    data = SurvivalData(
        t=onset[:, None], delta=np.ones((120, 1)), y=d, dtilde=np.ones(120)
    )
    info = {}
    with pytest.warns(UserWarning, match="onset 1: association at or below independence"):
        est = solve_theta(0, data, family, info=info)
    # exactly the bracket end, not the tau of its theta: that read
    # 0.0010000000002364784 for Frank before its series, and reads
    # 0.001000000000000112 for Gumbel and 0.0009999999999999998 for Clayton
    assert est.tau_hat == TAU_BRACKET[0]
    assert est.theta_hat == theta_from_tau(family, TAU_BRACKET[0])
    assert info["boundary"] and info["evals"] == 0


@pytest.mark.parametrize("kind", ["unit", "dampened"])
def test_pair_table_keeps_no_per_pair_array(kind):
    # the table keeps one entry per (count, censoring level) key, never one
    # per pair: n = 300 with 1% censoring has about 38k usable pairs
    data = _sim(ex1_config(k=1, censor_upper=200.0, n_train=300, n_test=0, seed=2)).train
    s_c = censoring_km(data)
    levels = np.unique(np.asarray(s_c(np.unique(data.y)), dtype=float)).size
    table = _PairTable(0, data, s_c, WeightSpec(kind))
    assert table.pairs > (data.n + 1) * levels
    for name, value in vars(table).items():
        if isinstance(value, np.ndarray):
            assert value.size <= (data.n + 1) * levels, name


def _draw_with_onsets(seed, n, onsets):
    """n subjects on continuous times, about 10% censored, of which exactly
    `onsets` have an observed onset; the terminal part depends on the seed
    alone."""
    y_rng, t_rng = (np.random.default_rng([seed, i]) for i in range(2))
    y = y_rng.exponential(size=n)
    dtilde = (y_rng.uniform(size=n) < 0.9).astype(int)
    delta = np.zeros(n, dtype=int)
    delta[t_rng.choice(n, onsets, replace=False)] = 1
    t = np.where(delta == 1, y * t_rng.uniform(size=n), y)
    return SurvivalData(t[:, None], delta[:, None], y, dtilde)


def _sweep_rows(data):
    """Rows per block of `_PairTable`'s sweep on this draw: the grid has one
    column per death value plus two, and (n + 1) L per-key sums."""
    deaths = np.unique(data.y[data.dtilde == 1])
    levels = np.unique(np.asarray(censoring_km(data)(deaths), dtype=float)).size
    return _block_rows((data.n + 1) * levels, deaths.size + 2)


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, "several"])
def test_pair_table_exact_across_block_boundaries(offset):
    # the grid has one row per onset value plus one, swept in blocks of
    # `rows` rows: onset counts around a block's row count put the last
    # block boundary on every side of the grid's end
    n = 600
    rows = _sweep_rows(_draw_with_onsets(0, n, 1))
    onsets = 3 * rows + 7 if offset == "several" else rows + offset
    data = _draw_with_onsets(0, n, onsets)
    assert _sweep_rows(data) == rows
    blocks = -(-(onsets + 1) // rows)
    assert blocks == {-2: 1, -1: 1, 0: 2, 1: 2, "several": 4}[offset]
    s_c = censoring_km(data)
    table = _PairTable(0, data, s_c, WeightSpec())
    ref = reference_pair_table(0, data, s_c, WeightSpec())
    assert table.pairs == ref.pairs > 0
    # per distinct s, the pair and concordant-pair counts are exact integers
    us, w_by_s = _weight_by_s(table.s, table.w)
    ref_us, ref_w_by_s = _weight_by_s(ref.s, ref.w)
    assert np.array_equal(us, ref_us)
    assert np.array_equal(w_by_s, ref_w_by_s)
    assert np.array_equal(_weight_by_s(table.s, table.wc)[1], _weight_by_s(ref.s, ref.conc)[1])

    table = _PairTable(0, data, s_c, WeightSpec("dampened"))
    ref = reference_pair_table(0, data, s_c, WeightSpec("dampened"))
    us, w_by_s = _weight_by_s(table.s, table.w)
    ref_us, ref_w_by_s = _weight_by_s(ref.s, ref.w)
    assert np.array_equal(us, ref_us)
    np.testing.assert_allclose(w_by_s, ref_w_by_s, rtol=1e-13)
    for tau in (0.05, 0.3, 0.6, 0.95):
        cop = copula_from_tau("frank", tau)
        assert abs(table.score(cop) - ref.score(cop)) <= 1e-15


@pytest.mark.parametrize("kind", ["unit", "dampened"])
def test_pair_table_build_memory_is_bounded(kind):
    # 1.03M usable pairs: enumerating all n(n-1)/2 pairs takes about 70 MB
    # here, the grid sweep O(max(2**16, n L)) numbers
    data = _sim(ex1_config(k=1, censor_upper=20.0, n_train=1600, n_test=0, seed=0)).train
    s_c = censoring_km(data)
    tracemalloc.start()
    try:
        _PairTable(0, data, s_c, WeightSpec(kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_bootstrap_survives_replicate_below_independence():
    # replicate 1 of this draw has U(0.001) < 0 on onset 3; it used to raise
    # NoRootError and abort the run as "1/4 replicates failed estimation"
    res = _sim(ex1_config(k=3, censor_upper=5, n_train=200, n_test=200, seed=3))
    out = bootstrap_fit(res.train, "frank", b=4, seed=7)
    assert out["failures"] == 0
    assert out["tau_theta_draws"][1, 2] == TAU_BRACKET[0]
    sample = res.train.resample(np.random.default_rng([7, 1]))
    with pytest.warns(UserWarning, match="onset 3: association at or below independence"):
        fit = fit_joint_model(sample, "frank")
    assert fit.diagnostics["theta_3_boundary"] is True
    assert fit.thetas[2].tau_hat == TAU_BRACKET[0]
    assert "theta_1_boundary" not in fit.diagnostics


def test_solve_theta_rank_invariance():
    cfg = SimConfig(
        k=1, family="frank", tau_alpha=0.4, tau_thetas=(0.5,), n_train=400,
        n_test=0, seed=17,
    )
    data = _sim(cfg).train
    est = solve_theta(0, data, "frank")
    # strictly increasing time transform leaves the rank-based equation alone
    f = lambda x: np.log1p(3.0 * x)
    data2 = SurvivalData(
        t=f(data.t), delta=data.delta, y=f(data.y), dtilde=data.dtilde
    )
    est2 = solve_theta(0, data2, "frank")
    assert est2.tau_hat == pytest.approx(est.tau_hat, abs=1e-6)


def test_solve_theta_dampened_weight_close_to_unit():
    cfg = SimConfig(
        k=1, family="frank", tau_alpha=0.4, tau_thetas=(0.5,), n_train=800,
        n_test=0, seed=23,
    )
    data = _sim(cfg).train
    est_u = solve_theta(0, data, "frank")
    est_w = solve_theta(0, data, "frank", weight_spec=WeightSpec("dampened"))
    assert est_w.tau_hat == pytest.approx(est_u.tau_hat, abs=0.1)
    assert est_w.weight_spec.kind == "dampened"


# ---------------------------------------------------------------------------
# pseudo self-consistency


def test_self_consistency_reduces_to_km_at_independence():
    cfg = SimConfig(
        k=1,
        family="gumbel",
        tau_alpha=0.0,
        tau_thetas=(0.0,),
        n_train=300,
        n_test=0,
        seed=5,
    )
    data = _sim(cfg).train
    s_d = terminal_km(data)
    est = _marginal(0, data, 1.0, s_d, "gumbel")
    km = kaplan_meier(data.t[:, 0], data.delta[:, 0], t_max=data.t_max)
    grid = est.times
    assert np.max(np.abs(np.asarray(est(grid)) - np.asarray(km(grid)))) < 1e-6


def test_self_consistency_no_informative_censoring():
    # no deaths at all: estimator must be exactly the KM of (T_k, delta_k)
    rng = np.random.default_rng(11)
    onset = rng.exponential(size=150)
    c = rng.uniform(0, 2.0, size=150)
    t = np.minimum(onset, c)
    delta = (onset <= c).astype(int)
    data = SurvivalData(t[:, None], delta[:, None], c, np.zeros(150, dtype=int))
    s_d = terminal_km(data)  # constant 1
    est = _marginal(0, data, 2.0, s_d, "frank")
    km = kaplan_meier(t, delta, t_max=data.t_max)
    assert np.max(np.abs(np.asarray(est(est.times)) - np.asarray(km(est.times)))) < 1e-9


def test_self_consistency_monotone_bounded_and_order_invariant():
    cfg = ex1_config(k=3, tau_alpha=0.5, censor_upper=5.0, n_train=150, seed=13)
    data = _sim(cfg).train
    s_d = terminal_km(data)
    theta = theta_from_tau("frank", 0.5)
    est = _marginal(0, data, theta, s_d, "frank")
    assert np.all(np.diff(est.values) <= 1e-12)
    assert est.values.min() >= 0 and est.values.max() <= 1
    assert est(0.0) == 1.0
    perm = np.random.default_rng(0).permutation(data.n)
    est2 = _marginal(0, data.subset(perm), theta, s_d, "frank")
    assert np.max(np.abs(est.values - est2.values)) < 1e-9


def test_self_consistency_tracks_true_marginal():
    # informative censoring present: corrected curve should track Exp(1)
    cfg = ex1_config(k=3, tau_alpha=0.2, censor_upper=20.0, n_train=400, seed=29)
    data = _sim(cfg).train
    s_d = terminal_km(data)
    est_assoc = solve_theta(0, data, "frank")
    est = _marginal(0, data, est_assoc.theta_hat, s_d, "frank")
    grid = np.linspace(0.05, np.quantile(data.t[:, 0], 0.9), 40)
    sup = np.max(np.abs(np.asarray(est(grid)) - np.exp(-grid)))
    assert sup < 0.08
    # the naive KM over-estimates survival here (events censored by death)
    km = kaplan_meier(data.t[:, 0], data.delta[:, 0])
    sup_km = np.max(np.abs(np.asarray(km(grid)) - np.exp(-grid)))
    assert sup < sup_km


def _sweep_data(rng, n, censoring):
    """One onset whose censored onsets are censored by independent censoring
    only ("both"), by death only ("death"), or by either ("mixed").  The two
    earliest records are censored onsets, so the curve is exactly 1 on the
    first grid points; unless censoring is "death", no death precedes them,
    so their terminal survival v is exactly 1."""
    y = np.sort(rng.uniform(0.5, 10.0, size=n))
    delta = (rng.uniform(size=n) < 0.5).astype(int)
    t = np.where(delta == 1, y * rng.uniform(0.05, 1.0, size=n), y)
    died = rng.integers(0, 2, size=n)
    dtilde = {"both": np.where(delta == 1, died, 0),
              "death": np.where(delta == 1, died, 1),
              "mixed": died}[censoring]
    t[:2] = y[:2] = [0.01, 0.02]
    delta[:2] = 0
    dtilde[:2] = 1 if censoring == "death" else 0
    return SurvivalData(t[:, None], delta[:, None], y, dtilde)


def _assert_matches_oracle(data, theta, family):
    s_d = terminal_km(data)
    info = {}
    got, = self_consistent_marginal(data, [theta], s_d, family, info=info)
    want, sweeps = reference_self_consistent(0, data, theta, s_d, family)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.values, want.values)
    assert info["iterations"] == [sweeps]
    return got


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
@pytest.mark.parametrize("censoring", ["both", "death", "mixed"])
def test_self_consistency_equals_fresh_array_oracle(family, censoring):
    # the sweeps lay out only the cells each censored subject enters and read
    # its denominator off its first cell; the oracle builds every (grid x
    # subject) array afresh, and adds the same row entries in the same order
    seed = ("both", "death", "mixed").index(censoring)
    data = _sweep_data(np.random.default_rng(40 + seed), 120, censoring)
    got = _assert_matches_oracle(data, theta_from_tau(family, 0.5), family)
    assert got.values[0] == got.values[1] == 1.0  # rows with u == 1
    cens = data.delta[:, 0] == 0
    both = cens & (data.dtilde == 0)
    death = cens & (data.dtilde == 1)
    assert both.any() == (censoring != "death")
    assert death.any() == (censoring != "both")
    if censoring != "death":  # a column with v == 1
        assert np.any(terminal_km(data).mid_value(data.y[both]) == 1.0)


@pytest.mark.parametrize("family, theta", [("frank", 800.0), ("clayton", 500.0), ("gumbel", 200.0)])
def test_self_consistency_zero_denominator_column_equals_oracle(family, theta):
    # onsets seen early, deaths late, and six onsets censored by deaths at
    # 2-3 where the curve is already low: at this association H2 underflows
    # to 0 at some of their own onset times, and those columns read 0
    rng = np.random.default_rng(3)
    t_seen, y_seen = rng.uniform(0.1, 1.0, 40), rng.uniform(10.0, 20.0, 40)
    y_cens = rng.uniform(2.0, 3.0, 6)
    data = SurvivalData(
        np.r_[t_seen, y_cens][:, None], np.r_[np.ones(40), np.zeros(6)][:, None].astype(int),
        np.r_[y_seen, y_cens], np.ones(46, dtype=int),
    )
    t = data.t[:, 0]
    grid = np.unique(t)
    start = np.asarray(kaplan_meier(t, data.delta[:, 0], t_max=data.t_max)(grid))
    v = np.asarray(terminal_km(data).mid_value(y_cens))
    with np.errstate(all="ignore"):
        den = ArchimedeanCopula(family, theta).h2(start[np.searchsorted(grid, y_cens)], v)
        assert np.any(den == 0.0)
        _assert_matches_oracle(data, theta, family)


# ---------------------------------------------------------------------------
# one sweep for a stack of onsets


def _stack_draw(family, k=10, n=120, seed=8):
    """A K-onset draw whose onset 4 is observed for every subject, so it has
    no censored subject (no cells); and the thetas of its onsets."""
    taus = np.linspace(0.2, 0.7, k)
    data = _sim(SimConfig(
        k=k, family=family, tau_alpha=0.3, tau_thetas=tuple(taus), n_train=n,
        n_test=0, seed=seed,
    )).train
    t, delta = data.t.copy(), data.delta.copy()
    t[:, 3] = data.y * np.random.default_rng(seed).uniform(0.1, 0.9, n)
    delta[:, 3] = 1
    return SurvivalData(t, delta, data.y, data.dtilde), [theta_from_tau(family, x) for x in taus]


def _assert_each_onset_as_alone(data, thetas, family):
    """Every onset's curve, sweeps and convergence from one call equal those
    of the onset swept alone; returns the call's `info`."""
    s_d = terminal_km(data)
    info = {}
    curves = self_consistent_marginal(data, thetas, s_d, family, info=info)
    for k, curve in enumerate(curves):
        one = {}
        alone = _marginal(k, data, thetas[k], s_d, family, info=one)
        assert np.array_equal(curve.times, alone.times)
        assert np.array_equal(curve.values, alone.values)
        assert (info["iterations"][k], info["converged"][k]) == (one["iterations"], one["converged"])
    return info


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_stacked_sweep_equals_each_onset_alone(family, monkeypatch):
    data, thetas = _stack_draw(family)
    s_d = terminal_km(data)
    onsets = [marginals._Onset(data, k, s_d, thetas[k], family) for k in range(data.k)]
    assert list(marginals._stacks(onsets)) == [list(range(10))]  # one stack
    assert onsets[3].cells == 0 and all(o.cells for o in onsets[:3] + onsets[4:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every onset converges
        info = _assert_each_onset_as_alone(data, thetas, family)
    assert info["converged"] == [True] * 10
    assert info["iterations"][3] == 1  # the Kaplan-Meier curve is its fixed point
    assert len(set(info["iterations"])) > 2  # frozen at their own counts

    # a frozen onset's cells drop out: the cells are laid out again, for the
    # onsets still moving, each time one stops
    laid_out = []

    class Spy(marginals._StackCells):
        def __init__(self, onsets, family, width, active):
            laid_out.append(set(np.flatnonzero(active)))
            super().__init__(onsets, family, width, active)

    monkeypatch.setattr(marginals, "_StackCells", Spy)
    self_consistent_marginal(data, thetas, terminal_km(data), family)
    stops = sorted(set(info["iterations"]))[:-1]
    assert laid_out == [
        {k for k in range(10) if info["iterations"][k] > it} for it in [0] + stops
    ]


def test_stacked_sweep_freezes_each_onset_with_its_own_warning(monkeypatch):
    data, thetas = _stack_draw("frank", k=5)
    monkeypatch.setattr(marginals, "SC_MAX_SWEEPS", 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        info = _assert_each_onset_as_alone(data, thetas, "frank")
    stopped = [k + 1 for k in range(5) if k != 3]
    assert info["iterations"] == [4, 4, 4, 1, 4]
    assert info["converged"] == [False, False, False, True, False]
    # the stacked call warns once per onset that stopped, then the alone calls
    messages = [str(w.message) for w in caught]
    assert messages[:4] == [
        f"self-consistency for onset {k} stopped after 4 sweeps" for k in stopped
    ]
    assert len(messages) == 8


@pytest.mark.parametrize("budget", [10, 1000])
def test_cell_budget_splits_stacks_and_chunks(monkeypatch, budget):
    # at 1000 cells the ten onsets run as several stacks, most of them one
    # onset in several chunks; at 10 each column is a chunk of its own
    data, thetas = _stack_draw("gumbel")
    s_d = terminal_km(data)
    want = {}
    curves = self_consistent_marginal(data, thetas, s_d, "gumbel", info=want)
    monkeypatch.setattr(marginals, "SC_CELLS", budget)
    onsets = [marginals._Onset(data, k, s_d, thetas[k], "gumbel") for k in range(data.k)]
    stacks = list(marginals._stacks(onsets))
    assert len(stacks) > 2 and sorted(sum(stacks, [])) == list(range(10))
    for stack in stacks:
        assert len(stack) == 1 or sum(onsets[k].cells for k in stack) <= budget
    cells = marginals._StackCells([onsets[0]], "gumbel", onsets[0].grid.size, np.ones(1, bool))
    assert len(cells.chunks) > 1
    got = {}
    for a, b in zip(curves, self_consistent_marginal(data, thetas, s_d, "gumbel", info=got)):
        assert np.array_equal(a.values, b.values)
    assert got == want


def test_fit_takes_every_onset_from_one_sweep_call(monkeypatch):
    data, _ = _stack_draw("clayton", k=4)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return self_consistent_marginal(*args, **kwargs)

    monkeypatch.setattr(likelihood, "self_consistent_marginal", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "clayton")
    assert calls == [[a.theta_hat for a in fit.thetas]]
    info = {}
    self_consistent_marginal(data, calls[0], terminal_km(data), "clayton", info=info)
    assert [fit.diagnostics[f"marginal_{k}_iterations"] for k in range(1, 5)] == info["iterations"]
    assert [fit.diagnostics[f"marginal_{k}_converged"] for k in range(1, 5)] == info["converged"]


@pytest.mark.slow
def test_self_consistency_ex1_replicated_sup_norm():
    hits = 0
    reps = 200
    for r in range(reps):
        cfg = ex1_config(k=3, tau_alpha=0.2, censor_upper=20.0, n_train=400, seed=1000 + r)
        data = _sim(cfg).train
        s_d = terminal_km(data)
        est_assoc = solve_theta(0, data, "frank")
        est = _marginal(0, data, est_assoc.theta_hat, s_d, "frank")
        grid = np.linspace(0.05, np.quantile(data.t[:, 0], 0.9), 40)
        if np.max(np.abs(np.asarray(est(grid)) - np.exp(-grid))) < 0.08:
            hits += 1
    assert hits / reps >= 0.9


# ---------------------------------------------------------------------------
# conditional survival given death time


def _toy_model():
    grid = np.linspace(0.01, 8.0, 400)
    s_k = StepSurvival(grid, np.exp(-grid), t_max=10.0)
    s_d = StepSurvival(grid, np.exp(-0.6 * grid), t_max=10.0)
    return s_k, s_d


def test_conditional_G_at_zero_is_one():
    s_k, s_d = _toy_model()
    cop = copula_from_tau("frank", 0.5)
    g, _ = onset_partials(s_k, cop, 0.0, s_d(2.0))
    assert g == pytest.approx(1.0, abs=1e-9)


def test_conditional_G_independence_is_marginal():
    s_k, s_d = _toy_model()
    cop = ArchimedeanCopula("gumbel", 1.0)
    g, _ = onset_partials(s_k, cop, 1.0, s_d(3.0))
    assert g == pytest.approx(float(s_k(1.0)), rel=1e-9)


def test_conditional_G_rejects_bad_ordering():
    # G(t_k; t) conditions on death at t >= t_k; prediction, the caller that
    # takes candidate death times, rejects one before an onset
    s_k, s_d = _toy_model()
    assoc = PairwiseAssociation(0, theta_from_tau("frank", 0.5), 0.5, WeightSpec())
    model = FittedJointModel(
        family="frank", k=1, thetas=[assoc], marginals=[s_k], terminal=s_d,
        censoring=s_d, t_max=10.0, alpha=theta_from_tau("frank", 0.3),
    )
    with pytest.raises(DomainError):
        q_joint_density(PredictionQuery(((0, 3.0),)), [1.0], model)


def test_conditional_G_matches_h_finite_difference():
    s_k, s_d = _toy_model()
    rng = np.random.default_rng(37)
    cop = copula_from_tau("clayton", 0.4)
    for _ in range(25):
        t_k = rng.uniform(0.1, 2.0)
        t = t_k + rng.uniform(0.1, 2.0)
        u = float(s_k(t_k))
        v = float(s_d(t))
        g, _ = onset_partials(s_k, cop, t_k, v)
        h = 1e-5
        fd = (cop.h(u, v + h) - cop.h(u, v - h)) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-3)


def test_conditional_G_monotone_in_onset_time():
    s_k, s_d = _toy_model()
    cop = copula_from_tau("frank", 0.6)
    ts = np.linspace(0.1, 2.9, 15)
    gs = [onset_partials(s_k, cop, x, s_d(3.0))[0] for x in ts]
    assert np.all(np.diff(gs) <= 1e-12)


def test_tau_hat_consistency_of_association_record():
    est = PairwiseAssociation(0, 2.0, 0.5, WeightSpec())
    from archsurv.copulas import tau_from_theta

    assert tau_from_theta("clayton", est.theta_hat) == est.tau_hat
