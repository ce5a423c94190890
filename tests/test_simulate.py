"""Generative engine: censoring rates, marginal preservation, wedge
invariance, reproducibility."""

import numpy as np
import pytest
from scipy.stats import kendalltau, ks_2samp, kstest

from archsurv.copulas import ArchimedeanCopula, theta_from_tau
from archsurv.errors import ConfigError, DomainError
from archsurv.simulate import (
    SimConfig,
    ex1_config,
    ex2_config,
    ex3_config,
    simulate_dataset,
    simulate_latent,
)


def pairwise_kendall(matrix: np.ndarray) -> np.ndarray:
    """Sample Kendall-tau matrix across columns (unit diagonal, symmetric)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise DomainError("need an (n >= 2) x p matrix")
    p = matrix.shape[1]
    out = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            tau = kendalltau(matrix[:, i], matrix[:, j]).statistic
            out[i, j] = out[j, i] = tau
    return out


def exact_censor_rate(rate, upper):
    # P(C < D), C ~ U[0, upper], D ~ Exp(rate)
    return (1.0 - np.exp(-rate * upper)) / (rate * upper)


@pytest.mark.parametrize(
    "upper,paper_rate", [(20.0, 0.10), (5.0, 0.35)]
)
def test_censoring_rates(upper, paper_rate):
    cfg = ex2_config(k=1, tau_alpha=0.3, censor_upper=upper, n_train=100_000,
                     n_test=0, seed=12)
    data = simulate_dataset(cfg).train
    emp = 1.0 - data.dtilde.mean()
    exact = exact_censor_rate(cfg.rate_terminal, upper)
    se = np.sqrt(exact * (1 - exact) / data.n)
    assert abs(emp - exact) < 3.5 * se
    assert abs(emp - paper_rate) < 0.04  # quoted rates are rounded


def test_marginal_preservation_ks():
    # unconditional onset marginal (both wedges) must stay Exp(1)
    cfg = ex1_config(k=3, tau_alpha=0.5, censor_upper=20.0, n_train=100_000,
                     n_test=0, seed=13)
    lat = simulate_latent(cfg, 100_000, np.random.default_rng(13))
    for k in range(3):
        assert kstest(lat.onset[:, k], "expon").pvalue > 0.01, k


def test_terminal_marginal_ks():
    cfg = ex2_config(k=2, tau_alpha=0.4, n_train=50_000, n_test=0, seed=14)
    lat = simulate_latent(cfg, 50_000, np.random.default_rng(14))
    assert kstest(lat.d * cfg.rate_terminal, "expon").pvalue > 0.01


def test_conditional_uniforms_on_upper_wedge():
    # G(onset; D) rescaled by its wedge boundary is U(0,1) on upper draws
    cfg = ex2_config(k=1, tau_alpha=0.3, n_train=20_000, n_test=0, seed=15)
    lat = simulate_latent(cfg, 20_000, np.random.default_rng(15))
    cop = ArchimedeanCopula("frank", theta_from_tau("frank", 0.5))
    v = np.exp(-cfg.rate_terminal * lat.d)
    g_onset, _ = cop.partials(np.exp(-lat.onset[:, 0]), v)
    g_bound, _ = cop.partials(np.exp(-lat.d), v)
    upper = lat.upper_wedge[:, 0]
    rescaled = (g_onset[upper] - g_bound[upper]) / (1.0 - g_bound[upper])
    assert kstest(rescaled, "uniform").pvalue > 0.01


def test_latent_pairwise_kendall_matches_theta():
    cfg = SimConfig(k=1, family="clayton", tau_alpha=0.5, tau_thetas=(0.5,),
                    n_train=5000, n_test=0, seed=16)
    lat = simulate_latent(cfg, 5000, np.random.default_rng(16))
    tau = kendalltau(lat.onset[:, 0], lat.d).statistic
    assert abs(tau - 0.5) < 0.03


def test_ex1_heterogeneous_vs_ex2_homogeneous_dependence():
    rng = np.random.default_rng(17)
    lat1 = simulate_latent(ex1_config(k=7, tau_alpha=0.5, n_train=200), 200, rng)
    lat2 = simulate_latent(ex2_config(k=7, tau_alpha=0.5, n_train=200), 200, rng)
    m1 = pairwise_kendall(np.column_stack([lat1.onset, lat1.d]))
    m2 = pairwise_kendall(np.column_stack([lat2.onset, lat2.d]))
    taus_with_d_1 = m1[-1, :-1]
    spread1 = taus_with_d_1.max() - taus_with_d_1.min()
    taus_with_d_2 = m2[-1, :-1]
    spread2 = taus_with_d_2.max() - taus_with_d_2.min()
    assert spread1 > spread2 + 0.1  # 0.8..0.2 ladder vs constant 0.5
    off1 = m1[np.triu_indices(7, 1)]
    assert off1.std() > 0.02  # onset-onset dependence non-exchangeable


def test_pairwise_kendall_basics():
    x = np.random.default_rng(0).normal(size=(300, 2))
    m = pairwise_kendall(np.column_stack([x[:, 0], x[:, 0]]))
    assert m[0, 1] == pytest.approx(1.0)
    m2 = pairwise_kendall(x)
    assert abs(m2[0, 1]) < 0.1
    assert np.allclose(m2, m2.T)
    assert np.allclose(np.diag(m2), 1.0)


def test_lower_wedge_invariance_same_seed_bitwise():
    # observables cannot depend on where past-death onsets are placed
    base = dict(tau_alpha=0.2, n_train=2000, n_test=0, seed=18)
    d1 = simulate_dataset(ex3_config(tau_lower=0.3, **base)).train
    d2 = simulate_dataset(ex3_config(tau_lower=0.7, **base)).train
    assert np.array_equal(d1.t, d2.t)
    assert np.array_equal(d1.delta, d2.delta)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.dtilde, d2.dtilde)


def test_lower_wedge_invariance_distributional():
    # independent seeds, KS on each observed margin plus indicator rates
    a = simulate_dataset(ex3_config(tau_lower=0.3, n_train=30_000, n_test=0,
                                    seed=19)).train
    b = simulate_dataset(ex3_config(tau_lower=0.7, n_train=30_000, n_test=0,
                                    seed=20)).train
    assert ks_2samp(a.y, b.y).pvalue > 0.01
    for k in range(7):
        assert ks_2samp(a.t[:, k], b.t[:, k]).pvalue > 0.005, k
        assert abs(a.delta[:, k].mean() - b.delta[:, k].mean()) < 0.02
    assert abs(a.dtilde.mean() - b.dtilde.mean()) < 0.02


def test_ex3_censoring_pattern():
    d = simulate_dataset(ex3_config(tau_lower=0.5, n_train=50_000, n_test=0,
                                    seed=21)).train
    assert abs((1 - d.dtilde.mean()) - 0.10) < 0.02  # independent censoring of D
    informative = ((d.delta[:, 0] == 0) & (d.dtilde == 1)).mean()
    assert abs(informative - 0.50) < 0.04  # onset censored by observed death


def test_reproducibility_bitwise():
    cfg = ex1_config(k=3, tau_alpha=0.2, n_train=500, seed=22)
    r1 = simulate_dataset(cfg)
    r2 = simulate_dataset(cfg)
    assert np.array_equal(r1.train.t, r2.train.t)
    assert np.array_equal(r1.latent_test.onset, r2.latent_test.onset)
    r3 = simulate_dataset(ex1_config(k=3, tau_alpha=0.2, n_train=500, seed=23))
    assert not np.array_equal(r1.train.t, r3.train.t)


def test_observed_records_are_consistent():
    res = simulate_dataset(ex1_config(k=3, tau_alpha=0.5, censor_upper=5.0,
                                      n_train=2000, seed=24))
    data = res.train
    assert data.validate() == []
    # delta_k = 1 iff onset within follow-up
    lat = res.latent_train
    y = np.minimum(lat.d, data.y)
    assert np.array_equal(data.delta, (lat.onset <= data.y[:, None]).astype(int))


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(k=2, tau_thetas=(0.5,))
    with pytest.raises(ConfigError):
        SimConfig(k=1, family="clayton", tau_alpha=-0.5, tau_thetas=(0.5,))
    with pytest.raises(ConfigError):
        SimConfig(k=1, tau_thetas=(0.5,), censor_upper=-1.0)


def test_latent_onset_or_inf_encoding():
    cfg = ex2_config(k=2, tau_alpha=0.3, n_train=500, n_test=0, seed=25)
    lat = simulate_latent(cfg, 500, np.random.default_rng(25))
    enc = lat.onset_or_inf()
    assert np.all(np.isinf(enc[~lat.upper_wedge]))
    assert np.all(enc[lat.upper_wedge] == lat.onset[lat.upper_wedge])


def test_tie_policy_onset_at_terminal_time_accepted():
    # an onset recorded exactly at the terminal time stays an event
    from archsurv.data import SurvivalData

    data = SurvivalData(t=[[2.0]], delta=[[1]], y=[2.0], dtilde=[1])
    assert data.validate() == []
