"""Command-line surface: simulate, fit, predict, evaluate, crossval.

Exit codes: 0 success, 2 configuration/parse problem, 3 estimation failure,
4 prediction/identifiability failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .config import RunConfig


from .dataio import (
    config_digest,
    provenance_line,
    read_data_csv,
    read_latent_csv,
    read_query_csv,
    write_data_csv,
    write_latent_csv,
)
from .errors import ArchsurvError, ConfigError, EstimationError, NotIdentified
from .likelihood import FittedJointModel, bootstrap_fit, fit_joint_model, model_aic
from .marginals import WeightSpec
from .metrics import MetricConfig, cross_validate, evaluate_model
from .predict import cmst, cqst, predict_curves, prediction_interval
from .simulate import simulate_dataset


def _fail(code, message):
    print(f"archsurv: error: {message}", file=sys.stderr)
    sys.exit(code)


def _fmt(x):
    return repr(float(x))


def _write_report(path, command, args, cfg, head=(), **tail):
    """Write `head`'s entries, the run's provenance, then `tail` as JSON."""
    provenance = {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "config_sha256": config_digest(cfg.digest_items()),
    }
    with open(path, "w") as fh:
        json.dump({**dict(head), "provenance": provenance, **tail}, fh, indent=2)
        fh.write("\n")


def cmd_simulate(args):
    cfg = RunConfig.load(args.config)
    seed = args.seed if args.seed is not None else cfg["sim.seed"]
    sim_cfg = cfg.sim_config(seed=seed)
    res = simulate_dataset(sim_cfg)
    header = provenance_line("simulate", seed, config_digest(cfg.digest_items()))
    write_data_csv(args.out, res.train, header)
    if args.test_out:
        write_data_csv(args.test_out, res.test, header)
    if args.latent_out:
        write_latent_csv(args.latent_out, res.latent_train, header)
    if args.latent_test_out:
        write_latent_csv(args.latent_test_out, res.latent_test, header)
    print(
        f"simulated {res.train.n} train / {res.test.n} test subjects "
        f"(K={sim_cfg.k}, family={sim_cfg.family}, seed={seed})"
    )
    return 0


def _fit_summary(fit: FittedJointModel, boot=None):
    lines = [f"family: {fit.family}   K: {fit.k}   subjects' max follow-up: {fit.t_max:.6g}"]
    if fit.tau_alpha is not None:
        row = f"tau_alpha   {fit.tau_alpha: .4f}"
        if boot and "tau_alpha_ci" in boot:
            lo, hi = boot["tau_alpha_ci"]
            row += f"   [{lo:.4f}, {hi:.4f}]"
        lines.append(row)
    for j, a in enumerate(fit.thetas):
        row = f"tau_theta_{j + 1}  {a.tau_hat: .4f}"
        if boot is not None:
            lo, hi = boot["tau_theta_ci"][j]
            row += f"   [{lo:.4f}, {hi:.4f}]"
        lines.append(row)
    if fit.loglik is not None:
        lines.append(f"loglik {fit.loglik:.4f}   AIC {model_aic(fit):.4f}")
    return "\n".join(lines)


def _fit_kwargs(cfg):
    """Keywords of every model fit a command makes, from the run config."""
    return dict(
        weight_spec=WeightSpec(cfg["weights.kind"]),
        mc_n=cfg["mc.n"],
        mc_seed=cfg["mc.seed"],
        tau_bounds=(cfg["optimizer.tau_min"], cfg["optimizer.tau_max"]),
        tau_tol=cfg["optimizer.tau_tol"],
    )


def cmd_fit(args):
    cfg = RunConfig.load(args.config)
    try:
        data = read_data_csv(args.data)
    except ConfigError as exc:
        _fail(2, str(exc))
    fit_kw = _fit_kwargs(cfg)
    # a bare --bootstrap (None) takes bootstrap.b replicates
    b = cfg["bootstrap.b"] if args.bootstrap is None else args.bootstrap
    if b and b < 2:
        raise ConfigError(f"bootstrap needs at least 2 replicates, got {b}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_joint_model(data, cfg["family"], **fit_kw)
            boot = None
            if b:
                boot = bootstrap_fit(
                    data,
                    cfg["family"],
                    b=b,
                    seed=args.seed if args.seed is not None else 0,
                    threads=args.threads,
                    **fit_kw,
                )
    except EstimationError as exc:
        _fail(3, str(exc))
    tail = {}
    if boot is not None:
        tail["bootstrap"] = {
            "b": boot["b"],
            "failures": boot["failures"],
            "tau_alpha_ci": boot.get("tau_alpha_ci"),
            "tau_theta_ci": [list(row) for row in np.asarray(boot["tau_theta_ci"])],
        }
    _write_report(args.out, "fit", args, cfg, fit.to_dict(), **tail)
    print(_fit_summary(fit, boot))
    return 0


def _float_list(text, flag):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _methods_for(query, spec):
    if spec != "all":
        return [spec]
    methods = ["DP", "P0"]
    for k, _ in query.events:
        methods += [f"Pk:{k + 1}", f"Pkm:{k + 1}"]
    return methods


def cmd_predict(args):
    try:
        model = FittedJointModel.load(args.model)
        ids, queries = read_query_csv(args.queries, k=model.k)
    except (ConfigError, OSError, KeyError, ValueError) as exc:
        _fail(2, str(exc))
    if args.t_u_star is not None and not 0.0 < args.t_u_star < np.inf:
        raise ConfigError(f"--t-u-star must be a positive finite time, got {args.t_u_star}")
    t_u_star = args.t_u_star if args.t_u_star is not None else model.t_max
    levels = _float_list(args.cqst_levels, "--cqst-levels")
    if not all(0.0 < lv < 1.0 for lv in levels):
        raise ConfigError(f"--cqst-levels must lie in (0, 1), got {args.cqst_levels}")
    times_flag = np.array(_float_list(args.times, "--times")) if args.times else None
    if times_flag is not None and not np.all(np.diff(times_flag) > 0):
        raise ConfigError(f"--times must be strictly increasing, got {args.times}")
    header = provenance_line("predict", args.seed, "-")
    curve_rows, summary_rows = [], []
    for rid, q in zip(ids, queries):
        methods = _methods_for(q, args.method)
        try:
            times = None if times_flag is None else times_flag[times_flag > q.landmark]
            pred = predict_curves(q, model, methods, times)
            quantiles = [cqst(pred, lv) for lv in levels]
            iv = prediction_interval(pred, t_u_star=t_u_star)
            mean = cmst(pred, t_u_star)
        except ConfigError as exc:
            _fail(2, str(exc))
        except ArchsurvError as exc:
            _fail(4, f"subject {rid}: {exc}")
        for j, method in enumerate(methods):
            curve_rows += [
                (rid, method, _fmt(t), _fmt(v)) for t, v in zip(pred.times, pred.values[j])
            ]
            summary_rows.append((
                rid, method, _fmt(q.landmark), _fmt(mean[j]),
                *("" if np.isnan(at[j]) else _fmt(at[j]) for at in quantiles),
                _fmt(iv.lo[j]), _fmt(iv.hi[j]), str(int(iv.hi_censored[j])),
            ))
    with open(args.out, "w") as fh:
        fh.write(header + "\n")
        fh.write("id,method,t,survival\n")
        for row in curve_rows:
            fh.write(",".join(row) + "\n")
    if args.summary_out:
        with open(args.summary_out, "w") as fh:
            fh.write(header + "\n")
            level_cols = ",".join(f"cqst_{lv}" for lv in levels)
            fh.write(
                f"id,method,landmark,cmst,{level_cols},interval_lo,interval_hi,hi_censored\n"
            )
            for row in summary_rows:
                fh.write(",".join(row) + "\n")
    print(f"wrote {len(curve_rows)} curve rows for {len(ids)} subjects")
    return 0


def _report_table(reports) -> str:
    hdr = f"{'method':<8}{'MSPE':>10}{'QPE':>10}{'IBS':>10}{'CP':>8}{'MID':>8}{'relMSPE':>9}"
    lines = [hdr]
    for name, rep in reports.items():
        rel = rep.relative_accuracy.get("mspe", float("nan"))
        lines.append(
            f"{name:<8}{rep.mspe:>10.4f}{rep.qpe:>10.4f}{rep.ibs:>10.4f}"
            f"{rep.cp:>8.3f}{rep.mid:>8.3f}{rel:>9.3f}"
        )
    return "\n".join(lines)


def _metric_config(cfg, ipcw):
    return MetricConfig(
        cfg["metrics.t_u_star"], cfg["metrics.qpe_tau"], cfg["metrics.grid_points"], ipcw
    )


def cmd_evaluate(args):
    cfg = RunConfig.load(args.config)
    try:
        model = FittedJointModel.load(args.model)
        data = read_data_csv(args.data)
        d_true = None
        if args.latent:
            lat_ids, d_true_all, _ = read_latent_csv(args.latent)
            lookup = {i: v for i, v in zip(lat_ids, d_true_all)}
            missing = [str(i) for i in data.ids if str(i) not in lookup]
            if missing:
                raise ConfigError(
                    f"latent file lacks ids: {', '.join(missing[:5])}"
                )
            d_true = np.array([lookup[str(i)] for i in data.ids])
    except (ConfigError, KeyError, ValueError) as exc:
        _fail(2, str(exc))
    mcfg = _metric_config(cfg, ipcw=cfg["metrics.ipcw"] or d_true is None)
    # the scores use the restriction time capped at the follow-up end, and
    # so does the report
    mcfg = replace(mcfg, t_u_star=min(mcfg.t_u_star, model.t_max))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = evaluate_model(model, data, mcfg, d_true=d_true)
    except ArchsurvError as exc:
        _fail(4, str(exc))
    _write_report(
        args.out, "evaluate", args, cfg, t_u_star=mcfg.t_u_star,
        methods={name: rep.to_dict() for name, rep in reports.items()},
    )
    if args.curves_out:
        grid = mcfg.grid()
        with open(args.curves_out, "w") as fh:
            fh.write(provenance_line("evaluate", args.seed, "-") + "\n")
            fh.write("method,t,bs,auc\n")
            for name, rep in reports.items():
                for t, b, a in zip(grid, rep.bs_curve, rep.auc_curve):
                    a_txt = "" if np.isnan(a) else _fmt(a)
                    fh.write(f"{name},{_fmt(t)},{_fmt(b)},{a_txt}\n")
    print(_report_table(reports))
    return 0


def cmd_crossval(args):
    cfg = RunConfig.load(args.config)
    try:
        data = read_data_csv(args.data)
    except ConfigError as exc:
        _fail(2, str(exc))
    mcfg = _metric_config(cfg, ipcw=True)
    folds = args.folds if args.folds is not None else cfg["cv.folds"]
    repeats = args.repeats if args.repeats is not None else cfg["cv.repeats"]
    try:
        out = cross_validate(
            data,
            cfg["family"],
            scheme=cfg["cv.scheme"],
            folds=folds,
            test_fraction=cfg["cv.test_fraction"],
            repeats=repeats,
            config=mcfg,
            seed=args.seed if args.seed is not None else 0,
            threads=args.threads,
            **_fit_kwargs(cfg),
        )
    except ConfigError as exc:
        _fail(2, str(exc))
    except ArchsurvError as exc:
        _fail(3, str(exc))
    _write_report(args.out, "crossval", args, cfg, **out)
    print(
        f"cross-validation: {out['splits']} splits, {out['failures']} failures; "
        f"DP mean MSPE {out['methods']['DP']['mean']['mspe']:.4f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="archsurv",
        description=(
            "Joint modeling of multiple onset times informatively censored "
            "by death, with dynamic survival prediction."
        ),
    )
    p.add_argument("--version", action="version", version=f"archsurv {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate benchmark datasets")
    sp.add_argument("--config", help="run-config file (sim.* block)")
    sp.add_argument("--out", required=True, help="training data CSV")
    sp.add_argument("--test-out", help="test data CSV")
    sp.add_argument("--latent-out", help="latent truths CSV (training)")
    sp.add_argument("--latent-test-out", help="latent truths CSV (test)")
    sp.add_argument("--seed", type=int, help="override sim.seed")
    sp.set_defaults(func=cmd_simulate)

    fp = sub.add_parser("fit", help="fit the joint model")
    fp.add_argument("--data", required=True)
    fp.add_argument("--config")
    fp.add_argument("--out", required=True, help="model JSON path")
    fp.add_argument(
        "--bootstrap", type=int, nargs="?", default=0, metavar="B",
        help="percentile CIs from B replicates (bare: bootstrap.b)",
    )
    fp.add_argument("--seed", type=int, help="bootstrap seed")
    fp.add_argument("--threads", type=int, default=os.cpu_count())
    fp.set_defaults(func=cmd_fit)

    pp = sub.add_parser("predict", help="dynamic survival prediction")
    pp.add_argument("--model", required=True)
    pp.add_argument("--queries", required=True, help="CSV id,t1..tK (empty = unseen)")
    pp.add_argument("--out", required=True, help="curve CSV")
    pp.add_argument("--summary-out", help="CMST/CQST/interval CSV")
    pp.add_argument("--method", default="all",
                    help="all | DP | P0 | Pk:K | Pkm:K")
    pp.add_argument("--times", help="comma list of evaluation times")
    pp.add_argument("--cqst-levels", default="0.025,0.5,0.975")
    pp.add_argument("--t-u-star", type=float, help="restriction time (default: follow-up end)")
    pp.add_argument("--seed", type=int)
    pp.set_defaults(func=cmd_predict)

    ep = sub.add_parser("evaluate", help="score predictions on a dataset")
    ep.add_argument("--model", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--latent", help="latent truths CSV (oracle metrics)")
    ep.add_argument("--config")
    ep.add_argument("--out", required=True, help="report JSON")
    ep.add_argument("--curves-out", help="BS/AUC curve CSV")
    ep.add_argument("--seed", type=int)
    ep.set_defaults(func=cmd_evaluate)

    cp = sub.add_parser("crossval", help="stratified cross-validation")
    cp.add_argument("--data", required=True)
    cp.add_argument("--config")
    cp.add_argument("--out", required=True, help="report JSON")
    cp.add_argument("--folds", type=int)
    cp.add_argument("--repeats", type=int)
    cp.add_argument("--seed", type=int)
    cp.add_argument("--threads", type=int, default=os.cpu_count())
    cp.set_defaults(func=cmd_crossval)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _fail(2, str(exc))
    except EstimationError as exc:
        _fail(3, str(exc))
    except NotIdentified as exc:
        _fail(4, str(exc))
    except OSError as exc:
        _fail(2, str(exc))


if __name__ == "__main__":
    sys.exit(main())
