"""Spans around calls into archsurv, recorded from the benchmark's side.

The traced run replaces the names that archsurv's callers look up (module
functions and class methods) with wrappers that record one span per call:
name, start, end, parent span and an optional size.  Spans stay in memory
and are written out when the run ends.  Nothing is wrapped in an untraced
run, so end-to-end metrics carry no tracing cost.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

from archsurv import copulas, likelihood, marginals, metrics, predict, simulate

NAME, START, END, PARENT, SIZE, ERROR = range(6)

COPULA_METHODS = (
    "phi", "phi_prime", "psi", "psi_deriv", "partials", "cross_ratio",
    "frailty_from_uniforms",
)


def _size_of_second(args, kwargs):
    return int(getattr(args[1], "size", 1)) if len(args) > 1 else 0


def _history_size(args, kwargs):
    return args[0].m


class Tracer:
    """Records spans while active; wrappers pass calls straight through
    while it is not."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = False
        self._patches = []

    def _open(self, name, size=0):
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, size, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name):
        """A timed phase of the benchmark, itself a span; spans are recorded
        only inside one."""
        self.active = True
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.active = False

    def wrap(self, owner, attr, name, size=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer._open(name, size(args, kwargs) if size else 0)
            try:
                return original(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                tracer._close(span)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap the layer boundaries of every archsurv module on the path."""
        w = self.wrap
        for meth in COPULA_METHODS:
            w(copulas.ArchimedeanCopula, meth, f"copulas.{meth}",
              _size_of_second if meth == "cross_ratio" else None)
        w(marginals, "kaplan_meier", "survival.kaplan_meier")
        w(likelihood, "solve_theta", "marginals.solve_theta")
        w(likelihood, "self_consistent_marginal", "marginals.self_consistent_marginal")
        w(likelihood.LikelihoodWorkspace, "__init__", "likelihood.workspace")
        w(likelihood.LikelihoodWorkspace, "profile_loglik", "likelihood.profile_loglik")
        w(likelihood, "maximize_alpha", "likelihood.maximize_alpha")
        w(predict, "q_joint_density", "predict.q_joint_density")
        for mod in (predict, metrics):
            w(mod, "predict_survival_dp", "predict.predict_survival_dp", _history_size)
        w(metrics, "predict_baseline", "predict.predict_baseline")
        for fn in ("cmst", "cqst", "prediction_interval"):
            w(metrics, fn, f"metrics.summary.{fn}")
        for fn in ("point_errors", "brier_curve", "auc_t"):
            w(metrics, fn, f"metrics.score.{fn}")
        w(metrics, "evaluate_model", "metrics.evaluate_model")
        w(simulate, "simulate_dataset", "simulate.simulate_dataset")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """One JSON array per span: name, start, end, parent, size, error."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def summarize(spans, passes, counts):
    """Per-layer metrics from the spans.

    Totals are reported per pass (one fit, its queries and its scoring).
    `counts` holds per-pass counts the benchmark took itself (sweeps, alive records, subset terms,
    not-identified histories, skipped subjects).  Times of archsurv
    functions are inclusive; copulas.* are self times (a copula call has
    no traced children but a nested copula call).  Spans of the set-up
    phase count only towards simulate.dataset_s, so the data generation's
    copula calls do not enter the per-pass figures.
    """
    dur = lambda s: s[END] - s[START]
    by_name, child, root, sims = {}, {}, [], []
    for i, s in enumerate(spans):
        root.append(i if s[PARENT] < 0 else root[s[PARENT]])
        if spans[root[i]][NAME] == "bench.setup":
            if s[NAME] == "simulate.simulate_dataset":
                sims.append(dur(s))
            continue
        by_name.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            child.setdefault(s[PARENT], []).append(i)

    def total(name, parent=None):
        return sum(
            dur(spans[i]) for i in by_name.get(name, ())
            if parent is None
            or (spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == parent)
        )

    def self_time(name):
        return sum(
            dur(spans[i]) - sum(dur(spans[c]) for c in child.get(i, ()))
            for i in by_name.get(name, ())
        )

    def n_spans(prefix):
        return sum(len(v) for k, v in by_name.items() if k.startswith(prefix))

    per = lambda x: x / passes
    score_calls = [
        [c for c in child.get(i, ()) if spans[c][NAME] == "copulas.cross_ratio"]
        for i in by_name.get("marginals.solve_theta", ())
    ]
    durs = lambda name: [dur(spans[i]) for i in by_name.get(name, ())]
    profile = durs("likelihood.profile_loglik")
    dp = {"m0": [], "m1": [], "m2plus": []}
    for i in by_name.get("predict.predict_survival_dp", ()):
        m = spans[i][SIZE]
        dp["m0" if m == 0 else "m1" if m == 1 else "m2plus"].append(dur(spans[i]))
    ev = "metrics.evaluate_model"
    mean_ms = lambda xs: 1e3 * sum(xs) / len(xs) if xs else 0.0

    return {
        "marginals.solve_theta_s": (per(total("marginals.solve_theta")), "s/pass"),
        "marginals.score_evals": (per(sum(map(len, score_calls))), "count/pass"),
        "marginals.pairs": (
            per(sum(spans[c[0]][SIZE] for c in score_calls if c)), "count/pass"
        ),
        "marginals.self_consistent_s": (
            per(total("marginals.self_consistent_marginal")), "s/pass"
        ),
        "marginals.sweeps": (counts["sweeps"], "count/pass"),
        "likelihood.workspace_s": (per(total("likelihood.workspace")), "s/pass"),
        "likelihood.maximize_alpha_s": (
            per(total("likelihood.maximize_alpha")), "s/pass"
        ),
        "likelihood.profile_evals": (per(len(profile)), "count/pass"),
        "likelihood.profile_eval_ms": (mean_ms(profile), "ms"),
        "likelihood.alive_records": (counts["alive_records"], "count/pass"),
        "likelihood.subset_terms": (counts["subset_terms"], "count/pass"),
        "copulas.psi_deriv_s": (per(self_time("copulas.psi_deriv")), "s/pass"),
        "copulas.partials_s": (per(self_time("copulas.partials")), "s/pass"),
        "copulas.calls": (per(n_spans("copulas.")), "count/pass"),
        "predict.dp_ms.m0": (mean_ms(dp["m0"]), "ms"),
        "predict.dp_ms.m1": (mean_ms(dp["m1"]), "ms"),
        "predict.dp_ms.m2plus": (mean_ms(dp["m2plus"]), "ms"),
        "predict.q_joint_density_s": (
            per(total("predict.q_joint_density")), "s/pass"
        ),
        "predict.not_identified": (counts["not_identified"], "count/pass"),
        "metrics.evaluate.predict_s": (
            per(total("predict.predict_survival_dp", ev)
                + total("predict.predict_baseline", ev)),
            "s/pass",
        ),
        "metrics.evaluate.summary_s": (
            per(sum(total(f"metrics.summary.{f}", ev)
                    for f in ("cmst", "cqst", "prediction_interval"))),
            "s/pass",
        ),
        "metrics.evaluate.score_s": (
            per(sum(total(f"metrics.score.{f}", ev)
                    for f in ("point_errors", "brier_curve", "auc_t"))),
            "s/pass",
        ),
        "metrics.subjects_skipped": (counts["subjects_skipped"], "count/pass"),
        "survival.km_s": (per(total("survival.kaplan_meier")), "s/pass"),
        "simulate.dataset_s": (sum(sims) / len(sims) if sims else 0.0, "s"),
    }
