"""The benchmark's workloads: the data each one generates, and the held-out
histories it queries.

Every workload runs the same user path on its own data: simulate_dataset,
fit_joint_model on the training set, predict_survival_dp for each queried
held-out history, then evaluate_model on the queried held-out subjects.
The workloads differ only in where that path spends its time.

The training set is a fixed draw of each design (TRAIN_SEED).  Fit cost
depends strongly on the draw (a few alive records with many censored onsets
dominate an ex3 fit), so training sets that changed with --seed spread
fit_s across seeds by far more than any bound a regression check can use.

The queried histories are a fixed number of each history size, taken in
draw order from two held-out draws, by a rule on the data alone (the
number of onsets, and a landmark before the end of follow-up): histories
with no or one onset come from a draw seeded by --seed; histories with two
or more onsets come from a fixed draw (HELDOUT_FIXED_SEED).  Whether a
history of two or more onsets predicts depends on the draw (see the
zero-slope fault in README.md), so drawing those from --seed would make the
share of failed operations change from seed to seed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from archsurv import simulate as S
from archsurv.data import SurvivalData
from archsurv.predict import PredictionQuery


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; BENCHMARK.json says why each was chosen."""

    name: str
    example: str  # "ex1" or "ex3"
    n_train: int
    n_candidates: int  # held-out subjects generated in each held-out draw
    per_size: tuple  # histories queried with m = 0, m = 1 and m >= 2 onsets
    censor_upper: float = None  # ex1 only; ex3 fixes its own censoring

    def config(self, seed: int) -> S.SimConfig:
        """The design at a given draw seed."""
        if self.example == "ex3":
            return S.ex3_config(tau_alpha=0.2, n_train=self.n_train, seed=seed)
        return S.ex1_config(
            k=3, tau_alpha=0.2, censor_upper=self.censor_upper,
            n_train=self.n_train, seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ex3-k7", example="ex3", n_train=100, n_candidates=1500,
            per_size=(100, 150, 650),
        ),
        Workload(
            name="cohort", example="ex1", n_train=800, n_candidates=1200,
            per_size=(30, 100, 370), censor_upper=200.0,
        ),
        Workload(
            name="predict-eval", example="ex1", n_train=200, n_candidates=2000,
            per_size=(200, 260, 900), censor_upper=5.0,
        ),
    )
}

TRAIN_SEED = 0
HELDOUT_SEED = 1_000_000  # plus --seed
HELDOUT_FIXED_SEED = 999_999

# Sizes for the self-check: every workload end to end in a few seconds.
TINY = {
    "ex3-k7": dict(n_train=60, n_candidates=150, per_size=(5, 5, 10)),
    "cohort": dict(n_train=150, n_candidates=150, per_size=(3, 7, 20)),
    "predict-eval": dict(n_train=120, n_candidates=400, per_size=(40, 60, 80)),
}


@dataclass
class Queries:
    """The held-out subjects of one run: their histories, their records and
    their latent death times, in the same order."""

    histories: list
    test: SurvivalData
    d_true: np.ndarray


def history(data, i) -> PredictionQuery:
    """Observed onset history of subject i: its exactly observed onsets."""
    return PredictionQuery(
        tuple((k, float(data.t[i, k])) for k in range(data.k) if data.delta[i, k])
    )


def _take(held, sizes, t_max, want):
    """Indices of the first `want` subjects of each history size in `sizes`
    whose landmark lies before t_max."""
    picked = {m: [] for m in sizes}
    for i in range(held.test.n):
        q = history(held.test, i)
        m = min(q.m, 2)
        if m in picked and q.landmark < t_max and len(picked[m]) < want[m]:
            picked[m].append(i)
    for m in sizes:
        if len(picked[m]) < want[m]:
            sys.exit(
                f"perfbench: {len(picked[m])} held-out histories with "
                f"{'>= 2' if m == 2 else m} onsets before follow-up ends; "
                f"the workload needs {want[m]}"
            )
    return [i for m in sizes for i in picked[m]]


def generate(workload: Workload, seed: int):
    """(training draw, held-out queries) of one run."""
    train = S.simulate_dataset(replace(workload.config(TRAIN_SEED), n_test=0))
    t_max = train.train.t_max
    want = dict(enumerate(workload.per_size))
    parts = []
    for draw_seed, sizes in ((HELDOUT_SEED + seed, (0, 1)), (HELDOUT_FIXED_SEED, (2,))):
        held = S.simulate_dataset(
            replace(workload.config(draw_seed), n_train=0, n_test=workload.n_candidates)
        )
        idx = _take(held, sizes, t_max, want)
        parts.append((held.test.subset(idx), held.latent_test.d[idx]))
    t, delta, y, dtilde = (
        np.concatenate([getattr(p, f) for p, _ in parts])
        for f in ("t", "delta", "y", "dtilde")
    )
    test = SurvivalData(t, delta, y, dtilde)
    return train, Queries(
        [history(test, i) for i in range(test.n)], test,
        np.concatenate([d for _, d in parts]),
    )
