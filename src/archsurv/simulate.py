"""Generative engine for the benchmark scenarios.

Subjects are drawn from the layered copula model: a death time from its
marginal, exchangeable conditional uniforms across the K onsets, and each
onset placed by inverting its conditional survival given the death time.
Draws with no admissible onset before death are placed past death ("lower
wedge"); the observed-data law provably does not depend on how, which the
mixed-wedge scenario (ex3) exercises by swapping the association there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import ArchimedeanCopula, theta_from_tau
from .data import SurvivalData
from .errors import ConfigError


@dataclass(frozen=True)
class SimConfig:
    k: int
    family: str = "frank"
    tau_alpha: float = 0.5
    tau_thetas: tuple = ()
    tau_lower: float = None  # lower-wedge association; defaults to upper
    rate_intermediate: float = 1.0
    rate_terminal: float = 0.6
    censor_upper: float = 20.0
    n_train: int = 100
    n_test: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if len(self.tau_thetas) != self.k:
            raise ConfigError("tau_thetas must have length k")
        if self.rate_intermediate <= 0 or self.rate_terminal <= 0:
            raise ConfigError("marginal rates must be positive")
        if self.censor_upper <= 0:
            raise ConfigError("censoring upper bound must be positive")
        try:
            theta_from_tau(self.family, self.tau_alpha)
            for tau in self.tau_thetas:
                theta_from_tau(self.family, tau)
            if self.tau_lower is not None:
                theta_from_tau(self.family, self.tau_lower)
        except Exception as exc:
            raise ConfigError(f"invalid association for {self.family}: {exc}") from exc


def ex1_config(k=3, tau_alpha=0.2, censor_upper=20.0, n_train=100, **kw) -> SimConfig:
    """Heterogeneous onset-death associations, tau from 0.8 down to 0.2."""
    taus = tuple(np.linspace(0.8, 0.2, k)) if k > 1 else (0.8,)
    return SimConfig(
        k=k,
        tau_alpha=tau_alpha,
        tau_thetas=taus,
        censor_upper=censor_upper,
        n_train=n_train,
        **kw,
    )


def ex2_config(k=3, tau_alpha=0.2, censor_upper=20.0, n_train=100, **kw) -> SimConfig:
    """All onsets equally associated with death (tau 0.5)."""
    return SimConfig(
        k=k,
        tau_alpha=tau_alpha,
        tau_thetas=(0.5,) * k,
        censor_upper=censor_upper,
        n_train=n_train,
        **kw,
    )


def ex3_config(tau_alpha=0.2, tau_lower=0.5, n_train=100, **kw) -> SimConfig:
    """Mixed-wedge robustness design: K=7, unit-rate margins, tau_u = 0.5."""
    return SimConfig(
        k=7,
        tau_alpha=tau_alpha,
        tau_thetas=(0.5,) * 7,
        tau_lower=tau_lower,
        rate_terminal=1.0,
        censor_upper=10.0,
        n_train=n_train,
        **kw,
    )


@dataclass
class LatentTruth:
    """True event times kept aside for oracle evaluation."""

    d: np.ndarray  # (n,) true death times
    onset: np.ndarray  # (n, K) generated onset times (finite on both wedges)
    ids: np.ndarray = None

    def __post_init__(self):
        if self.ids is None:
            self.ids = np.arange(1, self.d.size + 1)

    @property
    def upper_wedge(self) -> np.ndarray:
        return self.onset <= self.d[:, None]

    def onset_or_inf(self) -> np.ndarray:
        """Onsets with lower-wedge draws mapped to +inf (never happened)."""
        out = self.onset.copy()
        out[~self.upper_wedge] = np.inf
        return out


@dataclass
class SimResult:
    train: SurvivalData
    test: SurvivalData
    latent_train: LatentTruth
    latent_test: LatentTruth
    config: SimConfig


def _bisect(g, target, lo, hi, tol):
    """Midpoints of [lo, hi] after bisecting each entry for g(x) = target,
    g decreasing; at most 64 halvings, fewer once every width is below tol."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        too_low = g(mid) > target  # root right of mid
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
        if np.max(hi - lo) < tol:
            break
    return 0.5 * (lo + hi)


def _invert_conditional(cop_u, cop_l, u_target, v_death, d_time, rate, tol=1e-10):
    """Place one onset column given death times.

    Solves H2(S(x), v; theta_u) = u on [0, D] when the draw lands in the
    upper wedge; otherwise continues past D along the (rescaled) lower-wedge
    branch with theta_l.  Bisection to `tol` in time units.
    """
    n = u_target.size
    s_of = lambda x: np.exp(-rate * x)

    def g_upper(x):
        _, h2, _ = cop_u.partials(s_of(x), v_death)
        return h2

    c_boundary = g_upper(d_time)
    upper = u_target >= c_boundary
    out = np.empty(n)
    out[upper] = _bisect(g_upper, u_target, np.zeros(n), d_time, tol)[upper]

    if np.any(~upper):
        idx = ~upper
        v = v_death[idx]
        d_sub = d_time[idx]
        _, h2_at_d, _ = cop_l.partials(s_of(d_sub), v)
        h2_at_d = np.maximum(h2_at_d, 1e-300)
        # target on the raw lower branch: u / c * H2_l(S(D), v)
        target = u_target[idx] / np.maximum(c_boundary[idx], 1e-300) * h2_at_d

        def g_lower(x):
            _, h2, _ = cop_l.partials(s_of(x), v)
            return h2

        span = 80.0 / rate
        hi = d_sub + span
        for _ in range(40):
            grow = g_lower(hi) > target
            if not np.any(grow):
                break
            hi = np.where(grow, hi + span, hi)
        out[idx] = _bisect(g_lower, target, d_sub, hi, tol)
    return out


def simulate_latent(config: SimConfig, n: int, rng: np.random.Generator) -> LatentTruth:
    """Draw n subjects' true (onset_1..K, D)."""
    cop_alpha = ArchimedeanCopula(
        config.family, theta_from_tau(config.family, config.tau_alpha)
    )
    d_time = rng.exponential(1.0 / config.rate_terminal, size=n)
    u = cop_alpha.sample_exchangeable_uniforms(config.k, rng, n=n)
    u = np.atleast_2d(u)
    v_death = np.exp(-config.rate_terminal * d_time)

    onset = np.empty((n, config.k))
    for k in range(config.k):
        cop_u = ArchimedeanCopula(
            config.family, theta_from_tau(config.family, config.tau_thetas[k])
        )
        tau_l = config.tau_lower if config.tau_lower is not None else config.tau_thetas[k]
        cop_l = ArchimedeanCopula(config.family, theta_from_tau(config.family, tau_l))
        onset[:, k] = _invert_conditional(
            cop_u, cop_l, u[:, k], v_death, d_time, config.rate_intermediate
        )
    return LatentTruth(d=d_time, onset=onset)


def observe(latent: LatentTruth, censor: np.ndarray) -> SurvivalData:
    """Apply censoring times to latent truths, producing observed records."""
    y = np.minimum(latent.d, censor)
    dtilde = (latent.d <= censor).astype(int)
    t_obs = np.minimum(latent.onset, y[:, None])
    delta = (latent.onset <= y[:, None]).astype(int)
    return SurvivalData(t_obs, delta, y, dtilde, ids=latent.ids)


def simulate_dataset(config: SimConfig) -> SimResult:
    """Generate the train/test datasets plus latent truths, reproducibly."""
    rng = np.random.default_rng(config.seed)
    n = config.n_train + config.n_test
    latent = simulate_latent(config, n, rng)
    censor = rng.uniform(0.0, config.censor_upper, size=n)
    data = observe(latent, censor)

    tr = np.arange(config.n_train)
    te = np.arange(config.n_train, n)
    lat_tr = LatentTruth(latent.d[tr], latent.onset[tr], ids=latent.ids[tr])
    lat_te = LatentTruth(latent.d[te], latent.onset[te], ids=latent.ids[te])
    return SimResult(
        train=data.subset(tr),
        test=data.subset(te),
        latent_train=lat_tr,
        latent_test=lat_te,
        config=config,
    )

