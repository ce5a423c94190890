"""One workload's passes: fit, query, score, and the untimed checks."""

import time

import checks
from archsurv import likelihood as L
from archsurv import metrics as M
from archsurv import predict as P
from archsurv.errors import ArchsurvError


class Run:
    """One workload's passes: fit the training set, query the held-out
    histories, score the held-out subjects, and check the outputs
    (untimed)."""

    def __init__(self, wl, train, design, queries, phase):
        self.wl, self.train, self.design = wl, train, design
        self.queries, self.phase = queries, phase
        self.errors, self.counts = [], {}
        self.fit_s, self.predict_ms, self.evaluate_ms = [], [], []
        self.attempted = self.failed = 0
        # (estimates, failed query positions, skipped, DP MSPE) of the first pass
        self.first = None

    def one_pass(self):
        """Fit, query and score; returns the seconds spent in timed
        operations."""
        first = self.first is None
        start = time.perf_counter()
        with self.phase("bench.fit"):
            model = L.fit_joint_model(self.train, self.design.family)
        fit_s = time.perf_counter() - start
        self.attempted += 1
        estimates = ([a.tau_hat for a in model.thetas], model.tau_alpha)
        if first:
            self.errors.extend(checks.check_fit(model, self.train, self.design))
            self.errors.extend(checks.check_profile(model, self.train, L.TAU_BOUNDS))
            self.count_fit(model)

        predict_s, fails = self.query(model, check=first)

        test = self.queries.test
        start = time.perf_counter()
        with self.phase("bench.evaluate"):
            reports = M.evaluate_model(
                model, test, M.MetricConfig(), d_true=self.queries.d_true
            )
        evaluate_s = time.perf_counter() - start
        skipped = reports["DP"].n_skipped
        self.attempted += test.n
        self.failed += skipped
        outcome = (estimates, fails, skipped, reports["DP"].mspe)
        if first:
            self.errors.extend(
                checks.check_reports(
                    reports, test.n, len(fails),
                    dp_beats_p0=self.wl.name == "predict-eval",
                )
            )
            self.counts["not_identified"] = len(fails)
            self.counts["subjects_skipped"] = skipped
            self.first = outcome
        elif outcome != self.first:
            self.errors.append("a repeated pass gave a different result")

        self.fit_s.append(fit_s)
        self.predict_ms.append(1e3 * predict_s / len(self.queries.histories))
        self.evaluate_ms.append(1e3 * evaluate_s / max(test.n - skipped, 1))
        return fit_s + predict_s + evaluate_s

    def count_fit(self, model):
        """Per-fit counts taken from the data and the fitted model."""
        atoms, _ = model.terminal.atoms(complete_tail=True)
        alive = (self.train.dtilde == 0) & (self.train.y < atoms.max())
        self.counts.update(
            sweeps=sum(
                model.diagnostics[f"marginal_{k + 1}_iterations"] for k in range(model.k)
            ),
            alive_records=int(alive.sum()),
            subset_terms=int((2 ** (self.train.delta[alive] == 0).sum(axis=1)).sum()),
        )

    def query(self, model, check):
        """Every history once; returns (seconds spent in calls, positions of
        the queries that raised)."""
        outcomes, spent = [], 0.0
        with self.phase("bench.queries"):
            for q in self.queries.histories:
                start = time.perf_counter()
                try:
                    out = P.predict_survival_dp(q, model)
                except ArchsurvError as exc:
                    out = exc
                spent += time.perf_counter() - start
                outcomes.append(out)
        fails = frozenset(
            pos for pos, out in enumerate(outcomes) if isinstance(out, Exception)
        )
        self.attempted += len(outcomes)
        self.failed += len(fails)
        if check:
            for q, out in zip(self.queries.histories, outcomes):
                if isinstance(out, Exception):
                    self.errors.extend(checks.check_failure(q, out, model))
                else:
                    self.errors.extend(checks.check_prediction(q, out, model))
        return spent, fails
