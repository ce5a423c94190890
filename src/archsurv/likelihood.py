"""Stage-two estimation of the global association across onsets.

Every subject contributes one Stieltjes sum over terminal-survival atoms,

    log sum_atoms w * prod_obs(-phi'(G_k)) * |psi^(d)(sum_k phi(G_k))|,

with phi/psi the generator of the global copula, d the number of observed
onsets and G_k the conditional survival of onset k given death at the atom.
A subject with an observed death has one atom, its death time.  A subject
alive at last follow-up has every atom after its censoring time, with G_k
taken at the censoring time for each unobserved onset: summed over which
unobserved onsets happen between censoring and death, the subset terms
telescope to that single term by the Laplace identity
E[V^d exp(-sV)] = |psi^(d)(s)| of the frailty V.  The likelihood is exact;
no Monte Carlo is involved.

Stage-one estimates (terminal KM, per-onset association and marginal) are
plugged in and held fixed; only the global parameter moves.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import _cells
from ._roots import minimize_bounded
from .copulas import (
    U_FLOOR,
    ArchimedeanCopula,
    _log_abs_psi_deriv_cells,
    _partials_cells,
    _phi_cells,
    _phi_prime_cells,
    theta_from_tau,
)
from .data import SurvivalData
from .errors import ConfigError, EstimationError
from .marginals import (
    PairwiseAssociation,
    WeightSpec,
    censoring_km,
    self_consistent_marginal,
    solve_theta,
    terminal_km,
)
from .survival import StepSurvival

# accepted and recorded for compatibility; the likelihood does not use them.
# `perfbench/checks.py` still passes them to LikelihoodWorkspace.
DEFAULT_MC_N = 500
DEFAULT_MC_SEED = 20200
TAU_BOUNDS = (0.01, 0.95)
CI_PERCENTILES = (2.5, 97.5)  # bootstrap percentile interval


def _safe_log(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


def _segment_logsumexp(x, starts, seg):
    """log sum exp(x) over the contiguous segments beginning at `starts`;
    `seg` maps each element to its segment."""
    top = np.maximum.reduceat(x, starts)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.add.reduceat(np.exp(x - shift[seg]), starts))


def terminal_atoms(s_d: StepSurvival):
    """(times, masses, S_D values) of the terminal measure with its residual
    mass completed onto t_max.  The S_D value of an atom is the midpoint
    across its jump of the completed curve, so the tail atom takes
    S_D(t_max-) / 2."""
    times, masses = s_d.atoms(complete_tail=True)
    return times, masses, np.asarray(s_d.completed().mid_value(times))


def _sum_onsets(x):
    """x.sum(axis=0) over the onset rows, added in onset order.  (numpy adds
    8 or more terms pairwise, so a cell's sum would depend on the rows of
    the onsets it does not observe.)"""
    out = x[0].copy()
    for row in x[1:]:
        out += row
    return out


def cell_log_terms(cop_alpha: ArchimedeanCopula, g, obs, log_w, d_groups):
    """Log integrand of every cell under the global generator:

        log w + sum_obs log(-phi'(G_k)) + log|psi^(d)(sum_k phi(G_k))|,

    with G (onsets x cells, in [0, 1]), the observed-onset mask `obs` of
    the same shape, the log weight of each cell and `d_groups`, (d, cell
    index) pairs grouping the cells by their number d of observed onsets.
    The sums run in onset order, and an onset a cell does not observe adds
    an exact 0 to them (phi(1) = 0).  The generator is applied to G clipped
    to [U_FLOOR, 1], the floor `phi` clamps to; its arguments are valid by
    construction, so the unchecked kernels serve."""
    fam, th = cop_alpha.family, cop_alpha.theta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        arg = _sum_onsets(_phi_cells(fam, th, g.clip(U_FLOOR, 1.0)))
        lp = np.log(-_phi_prime_cells(fam, th, g))
        x = log_w + _sum_onsets(np.where(obs, lp, 0.0))
        for d, idx in d_groups:
            x[idx] += _log_abs_psi_deriv_cells(fam, th, arg[idx], int(d))
    return x


class LikelihoodWorkspace:
    """Per-dataset caches for the profile log-likelihood in the global
    association parameter.

    Each record is laid out as cells, one per terminal atom it sums over
    (see the module docstring).  Everything free of the global parameter is
    computed once per cell: the conditional onset survivals G, the
    observed-onset mask and the log weight (atom mass times -G' of every
    observed onset).  An evaluation applies the working generator to G and
    reduces the cells of each record with logsumexp.  Both run in chunks of
    whole records within `_cells.CELLS` (onset x cell) entries each; a
    record's logsumexp reads only its own cells, whatever the chunks.

    `mc_n` and `mc_seed` are accepted and stored so that existing callers
    (the benchmark's checks among them) and model files keep working; the
    likelihood does not use them.
    """

    def __init__(
        self,
        data: SurvivalData,
        family: str,
        thetas,
        marginals,
        s_d: StepSurvival,
        mc_n: int = DEFAULT_MC_N,
        mc_seed: int = DEFAULT_MC_SEED,
    ):
        self.family = family
        self.k = data.k
        self.mc_n = int(mc_n)
        self.mc_seed = int(mc_seed)
        self.cops = [ArchimedeanCopula(family, th) for th in thetas]
        self.s_d = s_d
        self.marginals = list(marginals)
        self.skipped = []
        self._prepare(data)

    # -- alpha-free caches ---------------------------------------------------

    def _prepare(self, data: SurvivalData):
        atom_t, atom_m, atom_v = terminal_atoms(self.s_d)
        theta = np.array([[cop.theta] for cop in self.cops])

        # cells: a death record has one, at its death time; an alive record
        # has one per atom after its censoring time
        dead = data.dtilde == 1
        first = np.searchsorted(atom_t, data.y, side="right")
        n_cells = np.where(dead, 1, atom_t.size - first)
        self._chunks = []
        for recs in _cells.chunks(n_cells * self.k):
            rec, pos = _cells.suffix(n_cells[recs])
            row = recs.start + rec
            # (a death cell's atom index is a placeholder, overwritten below)
            atom = np.minimum(first[row] + pos, atom_t.size - 1)
            v, mass = atom_v[atom], atom_m[atom]
            cd = dead[row]
            v[cd] = self.s_d.mid_value(data.y[row[cd]])
            mass[cd] = self.s_d.jump_mass(data.y[row[cd]])

            # a censored onset's time is the censoring time, so its row is the
            # onset survival at censoring.  G = H2 and the density factor H12
            # at (S_k(t_k), v) come from one copula call over the chunk's
            # (onsets x cells) entries, with one theta per onset
            obs = data.delta.T[:, row] == 1
            t = data.t.T[:, row]
            uc = np.array([marg(t_k) for marg, t_k in zip(self.marginals, t)])
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                g, h12 = _partials_cells(
                    self.family, theta, uc.clip(U_FLOOR, 1.0 - U_FLOOR),
                    v.clip(U_FLOOR, 1.0 - U_FLOOR),
                )
            log_w = _safe_log(mass)
            for marg, t_k, obs_k, h12_k in zip(self.marginals, t, obs, h12):
                neg_gp = h12_k * -np.asarray(marg.slope(t_k))
                log_w[obs_k] += _safe_log(neg_gp[obs_k])

            keep = np.isfinite(log_w)
            counts = np.bincount(rec[keep], minlength=recs.stop - recs.start)
            for i in recs.start + np.flatnonzero(counts == 0):
                why = "zero density factor" if n_cells[i] else "no terminal mass beyond censoring"
                self.skipped.append((int(data.ids[i]), why))
            kept, rec, obs = np.flatnonzero(counts), rec[keep], obs[:, keep]
            d = obs.sum(axis=0)
            groups = [(int(j), np.flatnonzero(d == j)) for j in np.unique(d)]
            # the arguments of `cell_log_terms`, then each kept record's first
            # cell and each cell's record among them, for `_segment_logsumexp`
            self._chunks.append((
                (g[:, keep], obs, log_w[keep], groups),
                (np.searchsorted(rec, kept), np.searchsorted(kept, rec)),
            ))

    # -- likelihood ------------------------------------------------------------

    def loglik_terms(self, cop_alpha: ArchimedeanCopula):
        """Log contribution of every record that was not skipped, in data
        order: logsumexp over its cells of `cell_log_terms`."""
        return np.concatenate([
            _segment_logsumexp(cell_log_terms(cop_alpha, *cells), *segments)
            for cells, segments in self._chunks
        ])

    # -- profile likelihood ------------------------------------------------------

    def profile_loglik(self, tau_alpha=None, alpha=None):
        """Plugged-in log-likelihood at the given global association.

        Per-record failures (non-finite contributions) are skipped with a
        warning; the sum runs over the rest.
        """
        if alpha is None:
            alpha = theta_from_tau(self.family, float(tau_alpha))
        terms = self.loglik_terms(ArchimedeanCopula(self.family, alpha))
        finite = np.isfinite(terms)
        if not np.all(finite):
            warnings.warn(
                f"{int((~finite).sum())} record(s) contributed non-finite "
                "log-likelihood and were skipped"
            )
        return float(terms[finite].sum())


@dataclass
class FittedJointModel:
    """Output of the full fitting pipeline; serializable to JSON."""

    family: str
    k: int
    thetas: list  # PairwiseAssociation per onset
    marginals: list  # StepSurvival per onset
    terminal: StepSurvival
    censoring: StepSurvival
    t_max: float
    alpha: float = None  # None when K = 1 (no global parameter)
    tau_alpha: float = None
    loglik: float = None
    mc_n: int = DEFAULT_MC_N  # recorded in the model JSON, unused
    mc_seed: int = DEFAULT_MC_SEED  # recorded in the model JSON, unused
    diagnostics: dict = field(default_factory=dict)

    def copula_for(self, k: int) -> ArchimedeanCopula:
        return ArchimedeanCopula(self.family, self.thetas[k].theta_hat)

    # Prediction reads the terminal curve with its tail mass completed onto
    # t_max.  Both are computed once per model (read-only arrays); they are
    # neither serialised nor compared.

    @cached_property
    def completed_terminal(self) -> StepSurvival:
        """The terminal curve dropping to 0 at t_max."""
        return self.terminal.completed()

    @cached_property
    def terminal_measure(self):
        """(times, masses, S_D values) of the completed terminal measure, as
        `terminal_atoms` gives them."""
        arrays = terminal_atoms(self.terminal)
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def copula_alpha(self) -> ArchimedeanCopula:
        if self.alpha is None:
            raise EstimationError("alpha", "model has no global association")
        return ArchimedeanCopula(self.family, self.alpha)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "k": self.k,
            "alpha": self.alpha,
            "tau_alpha": self.tau_alpha,
            "thetas": [
                {
                    "k": a.k,
                    "theta": a.theta_hat,
                    "tau": a.tau_hat,
                    "weight": a.weight_spec.kind,
                }
                for a in self.thetas
            ],
            "marginals": [s.to_dict() for s in self.marginals],
            "terminal": self.terminal.to_dict(),
            "censoring": self.censoring.to_dict(),
            "t_max": self.t_max,
            "loglik": self.loglik,
            "mc": {"n": self.mc_n, "seed": self.mc_seed},
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedJointModel":
        thetas = [
            PairwiseAssociation(
                t["k"], t["theta"], t["tau"], WeightSpec(t["weight"])
            )
            for t in doc["thetas"]
        ]
        return cls(
            family=doc["family"],
            k=doc["k"],
            thetas=thetas,
            marginals=[StepSurvival.from_dict(d) for d in doc["marginals"]],
            terminal=StepSurvival.from_dict(doc["terminal"]),
            censoring=StepSurvival.from_dict(doc["censoring"]),
            t_max=doc["t_max"],
            alpha=doc["alpha"],
            tau_alpha=doc["tau_alpha"],
            loglik=doc["loglik"],
            mc_n=doc["mc"]["n"],
            mc_seed=doc["mc"]["seed"],
            diagnostics=doc.get("diagnostics", {}),
        )

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FittedJointModel":
        return cls.from_dict(json.loads(text))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=2))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FittedJointModel":
        with open(path) as fh:
            return cls.from_json(fh.read())


def check_tau_search(tau_bounds, tau_tol):
    """Raise ConfigError unless 0 < tau_min < tau_max < 1 and the tolerance
    is finite and positive."""
    lo, hi = tau_bounds
    if not 0.0 < lo < hi < 1.0:
        raise ConfigError(
            f"tau search bounds must satisfy 0 < tau_min < tau_max < 1, got ({lo}, {hi})"
        )
    if not 0.0 < tau_tol < np.inf:
        raise ConfigError(f"tau search tolerance must be finite and positive, got {tau_tol}")


def maximize_alpha(
    workspace: LikelihoodWorkspace,
    tau_bounds=TAU_BOUNDS,
    tau_tol=1e-4,
):
    """Bounded maximization of the profile log-likelihood on the tau scale.

    Returns (alpha_hat, tau_hat, loglik, hit_boundary).  The profile is an
    exact, smooth function of tau, so a derivative-free bounded search
    suffices.
    """
    lo, hi = tau_bounds

    def neg(tau):
        return -workspace.profile_loglik(tau_alpha=float(tau))

    tau_hat, neg_max = minimize_bounded(neg, lo, hi, xatol=tau_tol)
    boundary = tau_hat - lo < 2 * tau_tol or hi - tau_hat < 2 * tau_tol
    if boundary:
        warnings.warn(f"global association maximized at boundary (tau={tau_hat:.4f})")
    alpha_hat = theta_from_tau(workspace.family, tau_hat)
    return alpha_hat, tau_hat, -float(neg_max), boundary


def fit_joint_model(
    data: SurvivalData,
    family: str,
    weight_spec: WeightSpec = WeightSpec(),
    mc_n: int = DEFAULT_MC_N,
    mc_seed: int = DEFAULT_MC_SEED,
    tau_bounds=TAU_BOUNDS,
    tau_tol=1e-4,
) -> FittedJointModel:
    """Full pipeline: terminal/censoring KM, per-onset association and
    marginal, then the global association by pseudo-likelihood.

    `mc_n` and `mc_seed` are accepted and recorded in the model; the exact
    likelihood does not use them."""
    check_tau_search(tau_bounds, tau_tol)
    diagnostics = {}
    try:
        s_d = terminal_km(data)
        s_c = censoring_km(data)
    except Exception as exc:
        raise EstimationError("km", str(exc)) from exc

    thetas, roots = [], []
    for k in range(data.k):
        root = {}
        try:
            thetas.append(solve_theta(k, data, family, weight_spec, s_c=s_c, info=root))
        except Exception as exc:
            raise EstimationError(f"theta[{k + 1}]", str(exc)) from exc
        roots.append(root)
    sweeps = {}
    try:
        marginals = self_consistent_marginal(
            data, [a.theta_hat for a in thetas], s_d, family, info=sweeps
        )
    except Exception as exc:
        raise EstimationError("marginals", str(exc)) from exc
    for k, root in enumerate(roots):
        diagnostics[f"theta_{k + 1}_pairs"] = root["pairs"]
        diagnostics[f"theta_{k + 1}_evals"] = root["evals"]
        if root["boundary"]:
            diagnostics[f"theta_{k + 1}_boundary"] = True
        diagnostics[f"marginal_{k + 1}_iterations"] = sweeps["iterations"][k]
        diagnostics[f"marginal_{k + 1}_converged"] = sweeps["converged"][k]

    workspace = LikelihoodWorkspace(
        data, family, [a.theta_hat for a in thetas], marginals, s_d, mc_n, mc_seed
    )
    diagnostics["skipped_records"] = list(workspace.skipped)

    if data.k == 1:
        # the likelihood is free of the global parameter when K = 1;
        # evaluate it at an arbitrary admissible value for reporting
        alpha = tau_alpha = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loglik = workspace.profile_loglik(tau_alpha=0.5)
    else:
        try:
            alpha, tau_alpha, loglik, boundary = maximize_alpha(
                workspace, tau_bounds, tau_tol
            )
        except Exception as exc:
            raise EstimationError("alpha", str(exc)) from exc
        diagnostics["alpha_boundary"] = boundary

    return FittedJointModel(
        family=family,
        k=data.k,
        thetas=thetas,
        marginals=marginals,
        terminal=s_d,
        censoring=s_c,
        t_max=data.t_max,
        alpha=alpha,
        tau_alpha=tau_alpha,
        loglik=loglik,
        mc_n=mc_n,
        mc_seed=mc_seed,
        diagnostics=diagnostics,
    )


def model_aic(fitted: FittedJointModel) -> float:
    """Akaike criterion counting the association parameters; nonparametric
    plug-ins are treated as fixed."""
    if fitted.loglik is None or not np.isfinite(fitted.loglik):
        raise EstimationError("aic", "log-likelihood is not finite")
    n_par = fitted.k + (1 if fitted.alpha is not None else 0)
    return -2.0 * fitted.loglik + 2.0 * n_par


def bootstrap_fit(
    data: SurvivalData,
    family: str,
    b: int = 200,
    seed: int = 0,
    threads: int = 1,
    **fit_kw,
):
    """Percentile bootstrap over subjects for the association parameters.

    Returns a dict with per-replicate draws and percentile intervals on the
    Kendall-tau scale.  Replicates failing estimation are dropped and
    counted; more than 20% failures aborts.
    """
    if b < 2:
        raise ConfigError(f"bootstrap needs at least 2 replicates, got {b}")
    worker = partial(_bootstrap_worker, data=data, family=family, seed=seed, fit_kw=fit_kw)
    results = _run_indexed(worker, b, threads)
    ok = [r for r in results if not isinstance(r, Exception)]
    failures = b - len(ok)
    if failures > 0.2 * b:
        raise EstimationError("bootstrap", f"{failures}/{b} replicates failed estimation")
    tau_alpha_draws = np.array([r[0] for r in ok], dtype=float)
    theta_tau_draws = np.array([r[1] for r in ok], dtype=float)
    out = {
        "b": b,
        "failures": failures,
        "tau_alpha_draws": tau_alpha_draws,
        "tau_theta_draws": theta_tau_draws,
        "tau_theta_ci": np.percentile(theta_tau_draws, CI_PERCENTILES, axis=0).T,
    }
    if not np.any(np.isnan(tau_alpha_draws)):
        out["tau_alpha_ci"] = tuple(np.percentile(tau_alpha_draws, CI_PERCENTILES))
    return out


def _bootstrap_worker(rep, data, family, seed, fit_kw):
    sample = data.resample(np.random.default_rng([seed, rep]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(sample, family, **fit_kw)
    return (fit.tau_alpha, [a.tau_hat for a in fit.thetas])


def _run_indexed(fn, count, threads):
    """Run fn(0..count-1), optionally in worker processes; order preserved,
    so results do not depend on the degree of parallelism.  A call that
    raises yields its exception."""
    if threads and threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            calls = [pool.submit(fn, i).result for i in range(count)]
            return [_caught(call) for call in calls]
    return [_caught(partial(fn, i)) for i in range(count)]


def _caught(call):
    try:
        return call()
    except Exception as exc:  # collected, not raised
        return exc
