"""Acceptance gate: every criterion at its stated scale and tolerance,
one pass/fail line printed per criterion (run with -s to see them live)."""

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor


import numpy as np
import pytest

from archsurv.copulas import ArchimedeanCopula, tau_from_theta, theta_from_tau
from archsurv.likelihood import fit_joint_model

from archsurv.metrics import MetricConfig, evaluate_model
from archsurv.predict import PredictionQuery, predict_survival_dp
from archsurv.simulate import SimConfig, ex1_config, ex2_config, ex3_config, simulate_dataset

from tests._cli import run_cli_subprocess
from tests._oracles import copula_from_tau
from tests.test_copulas import TAU_GRID, finite_diff_psi
from tests.test_likelihood import (
    _alive_rows_by_censored_count,
    _ex_workspace,
    _oracle_j_terms,
    _record_term,
    smooth_workspace,
    subset_terms,
)
from tests.test_predict import injected_model, mc_conditional_survival

pytestmark = pytest.mark.acceptance

JOBS = int(os.environ.get("ARCHSURV_ACCEPT_JOBS", os.cpu_count() or 1))


def _pmap(fn, arglist):
    """Order-preserving parallel map; exceptions propagate."""
    if JOBS <= 1:
        return [fn(a) for a in arglist]
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(fn, arglist, chunksize=1))


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: copula algebra suite -------------------------------------------------


def test_criterion_1_copula_algebra():
    grid = np.linspace(0.02, 1.0, 30)
    worst_round = 0.0
    for family in ("frank", "clayton", "gumbel"):
        for tau in TAU_GRID:
            cop = copula_from_tau(family, tau)
            err = np.abs(cop.psi(np.asarray(cop.phi(grid))) - grid).max()
            worst_round = max(worst_round, err)
    tau_err = max(
        abs(tau_from_theta("clayton", th) - th / (th + 2.0))
        for th in (0.5, 1.0, 2.0, 5.0)
    )
    tau_err = max(
        tau_err,
        max(
            abs(tau_from_theta("gumbel", th) - (1 - 1 / th))
            for th in (1.25, 2.0, 4.0)
        ),
    )
    worst_fd = 0.0
    for family in ("frank", "clayton", "gumbel"):
        for tau in TAU_GRID:
            cop = copula_from_tau(family, tau)
            for d in (1, 2, 3, 4):
                for t in (0.08, 0.4, 1.3, 3.0):
                    fd = finite_diff_psi(cop, t, d)
                    rel = abs(cop.psi_deriv(t, d) - fd) / max(abs(fd), 1e-12)
                    worst_fd = max(worst_fd, rel)
    ok = worst_round < 1e-10 and tau_err < 1e-8 and worst_fd < 1e-3
    _report(
        1,
        ok,
        f"psi∘phi sup={worst_round:.2e} (<1e-10), tau closed-form err="
        f"{tau_err:.2e} (<1e-8), psi-deriv FD rel={worst_fd:.2e} (<1e-3)",
    )


# -- 2: global association reproduction --------------------------------------


def _c2_worker(rep):
    cfg = ex2_config(
        k=3, tau_alpha=0.5, censor_upper=20.0, n_train=200, n_test=0,
        seed=20_000 + rep,
    )
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "frank")
    return fit.tau_alpha


def test_criterion_2_association_estimation():
    reps = 200
    taus = np.array(_pmap(_c2_worker, range(reps)))
    rbias = (taus.mean() - 0.5) / 0.5
    sd = taus.std(ddof=1)
    ok = abs(rbias) <= 0.05 and 0.02 <= sd <= 0.06
    _report(
        2,
        ok,
        f"Ex2 K=3 tau=0.5 n=200 x{reps}: RBias={rbias:+.4f} (|.|<=0.05, "
        f"paper -0.008), SD={sd:.4f} (in [0.02,0.06], paper 0.037)",
    )


# -- 3 and 4: mixed-wedge estimation and lower-wedge insensitivity ------------


def _c34_worker(args):
    rep, tau_lower, seed_base = args
    cfg = ex3_config(
        tau_alpha=0.2, tau_lower=tau_lower, n_train=100, n_test=0,
        seed=seed_base + rep,
    )
    data = simulate_dataset(cfg).train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(data, "frank")
    return (fit.tau_alpha, tuple(a.tau_hat for a in fit.thetas))


@pytest.fixture(scope="module")
def ex3_runs():
    reps = 200
    out = {}
    for tau_lower, seed_base in ((0.5, 30_000), (0.3, 40_000), (0.7, 50_000)):
        res = _pmap(_c34_worker, [(r, tau_lower, seed_base) for r in range(reps)])
        out[tau_lower] = {
            "alpha": np.array([r[0] for r in res]),
            "theta": np.array([r[1] for r in res]),
        }
    return out


def test_criterion_3_theta_estimation(ex3_runs):
    theta = ex3_runs[0.5]["theta"]
    bias = theta.mean(axis=0) - 0.5
    sd = theta.std(axis=0, ddof=1)
    ok = np.all(np.abs(bias) <= 0.08) and np.all(sd <= 0.12)
    _report(
        3,
        ok,
        f"Ex3 tau_u=0.5 n=100 x{theta.shape[0]}: max|bias|="
        f"{np.abs(bias).max():.4f} (<=0.08, paper 0.002-0.07), max SD="
        f"{sd.max():.4f} (<=0.12, paper ~0.07-0.10)",
    )


def test_criterion_4_lower_wedge_insensitivity(ex3_runs):
    base_a = ex3_runs[0.5]["alpha"].mean()
    base_t = ex3_runs[0.5]["theta"].mean(axis=0)
    worst = 0.0
    for tl in (0.3, 0.7):
        worst = max(worst, abs(ex3_runs[tl]["alpha"].mean() - base_a))
        worst = max(
            worst, np.abs(ex3_runs[tl]["theta"].mean(axis=0) - base_t).max()
        )
    ok = worst < 0.05
    _report(
        4,
        ok,
        f"lower-wedge tau in {{0.3, 0.7}} vs 0.5: max mean shift={worst:.4f} "
        "(<0.05; observables are provably invariant, shifts are Monte Carlo)",
    )


# -- 5: prediction ordering ----------------------------------------------------


def _c5_worker(rep):
    res = simulate_dataset(
        ex1_config(k=3, tau_alpha=0.2, censor_upper=5.0, n_train=100, seed=60_000 + rep)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(res.train, "frank")
        rep_out = evaluate_model(
            fit, res.test, MetricConfig(t_u_star=12.0), d_true=res.latent_test.d,
            methods=("DP", "P0", "PK"),
        )
    return {m: (r.mspe, r.ibs) for m, r in rep_out.items()}


def test_criterion_5_prediction_ordering():
    reps = 50
    rows = _pmap(_c5_worker, range(reps))
    mspe = {m: np.mean([r[m][0] for r in rows]) for m in ("DP", "P0", "PK")}
    ibs = {m: np.mean([r[m][1] for r in rows]) for m in ("DP", "P0")}
    r_p0 = mspe["DP"] / mspe["P0"]
    r_pk = mspe["DP"] / mspe["PK"]
    r_ibs = ibs["DP"] / ibs["P0"]
    ok = r_p0 <= 0.70 and r_pk <= 0.70 and r_ibs <= 0.5
    _report(
        5,
        ok,
        f"Ex1 K=3 35% cens x{reps} out-of-sample: MSPE DP/P0={r_p0:.3f} "
        f"(<=0.70, paper 0.55), DP/PK={r_pk:.3f} (<=0.70, paper 0.52), "
        f"IBS DP/P0={r_ibs:.3f} (<=0.5, paper 0.41)",
    )


# -- 6: interval reliability ---------------------------------------------------


def _c6_worker(rep):
    res = simulate_dataset(
        ex1_config(k=3, tau_alpha=0.2, censor_upper=20.0, n_train=100, seed=70_000 + rep)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_joint_model(res.train, "frank")
        rep_in = evaluate_model(
            fit, res.train, MetricConfig(t_u_star=12.0),
            d_true=res.latent_train.d, methods=("DP",),
        )
    return rep_in["DP"].cp, rep_in["DP"].mid


def test_criterion_6_interval_reliability():
    reps = 50
    rows = _pmap(_c6_worker, range(reps))
    cp = float(np.mean([r[0] for r in rows]))
    mid = float(np.mean([r[1] for r in rows]))
    ok = 0.90 <= cp <= 0.97 and abs(mid - 1.402) <= 0.3 * 1.402
    _report(
        6,
        ok,
        f"Ex1 K=3 10% cens x{reps} in-sample: CP={cp:.3f} (in [0.90,0.97], "
        f"paper 0.937), MID={mid:.3f} (within ±30% of 1.402)",
    )


# -- 7: dynamic prediction vs generative Monte Carlo ---------------------------


def test_criterion_7_dp_oracle_agreement():
    tau_thetas, tau_alpha = (0.8, 0.5, 0.2), 0.5
    model = injected_model(tau_thetas, tau_alpha)
    cfg = SimConfig(
        k=3, family="frank", tau_alpha=tau_alpha, tau_thetas=tau_thetas,
        n_train=10, n_test=0, seed=0,
    )
    cases = [
        ((), 0.10),
        (((0, 0.5),), 0.10),
        (((0, 0.4), (1, 0.6)), 0.08),
        (((0, 0.4), (1, 0.6), (2, 0.9)), 0.13),
    ]
    sups = []
    for events, band in cases:
        q = PredictionQuery(events)
        times = np.linspace(q.landmark + 0.25, 5.0, 9)
        mc, n_acc = mc_conditional_survival(
            cfg, q, times, n_mc=1_000_000, band=band, seed=13
        )
        pred = predict_survival_dp(q, model, times=times)
        sups.append(float(np.max(np.abs(pred.values - mc))))
    ok = max(sups) < 0.05
    _report(
        7,
        ok,
        "true-parameter DP vs 1e6-draw generative MC, m=0..3 sup-norms "
        + ", ".join(f"{s:.4f}" for s in sups)
        + " (<0.05)",
    )


# -- 8: likelihood oracle -------------------------------------------------------


def test_criterion_8_likelihood_oracle():
    from archsurv.data import SurvivalData

    t2, y = 0.7, 1.2
    data = SurvivalData(t=[[y, t2]], delta=[[0, 1]], y=[y], dtilde=[0])
    ws = smooth_workspace(data, mc_n=12_000, n_grid=1000)
    cop_a = ArchimedeanCopula("frank", theta_from_tau("frank", 0.5))
    j_empty_o, j_one_o = _oracle_j_terms((0.5, 0.35), 0.5, t2, y)
    total = _record_term(ws, cop_a, 0)
    rel = abs(total - (j_empty_o + j_one_o)) / (j_empty_o + j_one_o)

    ws7, data7 = _ex_workspace(k=7, n=60, censor_upper=2.0)
    rows, sizes = _alive_rows_by_censored_count(ws7, data7)
    cop = ArchimedeanCopula("frank", theta_from_tau("frank", 0.4))
    worst = 0.0
    for row in rows[-3:]:
        subset_sum = subset_terms(ws7, data7, row, cop).sum()
        worst = max(worst, abs(_record_term(ws7, cop, row) - subset_sum) / subset_sum)
    checked = sorted(int(m) for m in sizes[-3:])
    ok = rel < 2e-2 and worst <= 1e-10 and max(checked) == 7
    _report(
        8,
        ok,
        f"K=2 alive record vs nested quadrature rel={rel:.2e} (<0.02); "
        f"closed form vs subset-sum oracle for m={checked} (incl. 7) "
        f"rel={worst:.2e} (<=1e-10)",
    )


# -- 9: metric unit suite --------------------------------------------------------


def test_criterion_9_metric_units():
    from archsurv.metrics import auc_t, brier_curve, interval_metrics, point_errors
    from archsurv.predict import PredictionInterval
    from archsurv.survival import StepSurvival

    flat_sc = StepSurvival([1e12], [1.0], t_max=1e12)
    cfg = MetricConfig(t_u_star=12.0)
    checks = []
    mspe, qpe, _ = point_errors([2.0, 5.0], [2.0, 5.0], cfg, d_true=[2.0, 5.0])
    checks.append(mspe == 0.0 and qpe == 0.0)
    mspe, qpe, _ = point_errors([3.0], [3.0], cfg, d_true=[2.0])
    checks.append(mspe == 1.0 and qpe == 0.5)

    y = np.array([1.0, 2.0, 3.0, 4.0])
    dt = np.ones(4, int)
    lms = np.zeros(4)
    times = np.array([0.5, 1.5, 2.5, 3.5])
    perfect = np.array([[float(yy > t) for t in times] for yy in y])
    checks.append(np.allclose(brier_curve(perfect, times, y, dt, lms, flat_sc), 0.0))
    half = np.full((4, 4), 0.5)
    checks.append(np.allclose(brier_curve(half, times, y, dt, lms, flat_sc), 0.25))

    scores = np.array([0.1, 0.2, 0.8, 0.9])
    checks.append(auc_t(scores, y, dt, lms, flat_sc, 2.5) == 1.0)
    checks.append(auc_t(np.full(4, 0.3), y, dt, lms, flat_sc, 2.5) == 0.5)

    ivs = [PredictionInterval(1.0, 3.0), PredictionInterval(2.0, 2.0)]
    cp, mid, _ = interval_metrics([2.0, 2.0], ivs)
    checks.append(cp == 1.0)
    cp0, mid0, _ = interval_metrics([5.0, 7.0], [PredictionInterval(5.0, 5.0),
                                                 PredictionInterval(7.0, 7.0)])
    checks.append(cp0 == 1.0 and mid0 == 0.0)

    # IPCW off-switch reduction
    rng = np.random.default_rng(8)
    d = rng.exponential(size=50) * 3
    m1, q1, _ = point_errors(d * 0.9, d * 1.1, cfg, d_true=d)
    m2, q2, _ = point_errors(
        d * 0.9, d * 1.1, MetricConfig(t_u_star=12.0, ipcw=True),
        y=d, dtilde=np.ones(50, int), s_c=flat_sc,
    )
    checks.append(np.isclose(m1, m2) and np.isclose(q1, q2))

    invariant = True
    for _ in range(100):
        n = 25
        yy = rng.exponential(size=n) * 4
        ss = rng.uniform(size=n)
        t = float(np.median(yy))
        a1 = auc_t(ss, yy, np.ones(n, int), np.zeros(n), flat_sc, t)
        a2 = auc_t(ss**3, yy, np.ones(n, int), np.zeros(n), flat_sc, t)
        invariant &= np.isclose(a1, a2)
    checks.append(invariant)
    ok = all(checks)
    _report(9, ok, f"{sum(checks)}/{len(checks)} exact metric unit checks passed")


# -- 10: determinism across seeds and thread counts -------------------------------


def _run_cli(args, cwd):
    proc = run_cli_subprocess(args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "family = frank\nsim.example = ex2\nsim.k = 2\nsim.tau_alpha = 0.4\n"
        "sim.n_train = 60\nsim.n_test = 10\nsim.seed = 77\nmc.n = 300\n"
        "metrics.t_u_star = 10\nmetrics.grid_points = 15\n"
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    checks = []

    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}.csv"
        _run_cli(["simulate", "--config", cfg, "--out", out], tmp_path)
        blobs.append(out.read_bytes())
    checks.append(blobs[0] == blobs[1])

    data_csv = tmp_path / "sim_a.csv"
    fit_blobs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"model_t{threads}.json"
        _run_cli(
            ["fit", "--data", data_csv, "--config", cfg, "--out", out,
             "--bootstrap", 8, "--seed", 3, "--threads", threads],
            tmp_path,
        )
        fit_blobs.append(out.read_bytes())
    checks.append(fit_blobs[0] == fit_blobs[1] == fit_blobs[2])

    cv_blobs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"cv_t{threads}.json"
        _run_cli(
            ["crossval", "--data", data_csv, "--config", cfg, "--out", out,
             "--folds", 3, "--seed", 11, "--threads", threads],
            tmp_path,
        )
        cv_blobs.append(out.read_bytes())
    checks.append(cv_blobs[0] == cv_blobs[1] == cv_blobs[2])
    ok = all(checks)
    _report(
        10,
        ok,
        f"byte-identical outputs: simulate repeat={checks[0]}, "
        f"fit+bootstrap over threads 1/4/8={checks[1]}, crossval={checks[2]}",
    )
