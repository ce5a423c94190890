"""Command-line flows: schemas, determinism, exit codes, round trips."""

import json

import numpy as np
import pytest

from archsurv.cli import main
from archsurv.config import RunConfig
from archsurv.dataio import (
    read_data_csv,
    read_latent_csv,
    read_query_csv,
    write_data_csv,
    write_query_csv,
)
from archsurv.errors import ConfigError
from archsurv.predict import PredictionQuery
from archsurv.simulate import SimConfig, ex1_config, ex2_config, ex3_config, simulate_dataset
from tests._cli import run_cli_subprocess


def run_cli(args):
    return main([str(a) for a in args])


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


SMALL_SIM = """
# small benchmark dataset
family = frank
sim.example = ex2
sim.k = 2
sim.tau_alpha = 0.4
sim.censor_upper = 20
sim.n_train = 70
sim.n_test = 12
sim.seed = 99
metrics.t_u_star = 10
metrics.grid_points = 20
mc.n = 300
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_cfg(tmp / "run.cfg", SMALL_SIM)
    assert (
        run_cli(
            ["simulate", "--config", cfg, "--out", tmp / "train.csv",
             "--test-out", tmp / "test.csv", "--latent-out", tmp / "latent.csv",
             "--latent-test-out", tmp / "latent_test.csv"]
        )
        == 0
    )
    assert (
        run_cli(
            ["fit", "--data", tmp / "train.csv", "--config", cfg, "--out",
             tmp / "model.json", "--threads", 1]
        )
        == 0
    )
    return tmp, cfg


def test_simulate_outputs_schema(workdir):
    tmp, _ = workdir
    first = (tmp / "train.csv").read_text().splitlines()
    assert first[0].startswith("# archsurv command=simulate")
    assert first[1] == "id,t1,t2,d1,d2,y,dtilde"  # 2K + 3 columns
    data = read_data_csv(tmp / "train.csv")
    assert data.n == 70 and data.k == 2
    assert data.validate() == []


def test_simulate_deterministic_bytes(workdir, tmp_path):
    tmp, cfg = workdir
    out2 = tmp_path / "again.csv"
    run_cli(["simulate", "--config", cfg, "--out", out2])
    assert out2.read_bytes() == (tmp / "train.csv").read_bytes()


@pytest.mark.parametrize("tau", ["-0.3", "0"])
def test_simulate_rejects_a_frank_global_tau_at_or_below_zero(tmp_path, capsys, tau):
    # the global copula is sampled through a frailty, which needs theta > 0;
    # -0.3 once passed the config and died with a RangeError traceback
    cfg = write_cfg(tmp_path / "bad.cfg", f"family = frank\nsim.tau_alpha = {tau}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x.csv"])
    assert exc.value.code == 2
    assert "tau_alpha" in capsys.readouterr().err


def test_simulate_rejects_bad_tau(tmp_path):
    cfg = write_cfg(
        tmp_path / "bad.cfg",
        "family = clayton\nsim.example = ex2\nsim.k = 2\nsim.tau_alpha = -0.4\n",
    )
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x.csv"])
    assert exc.value.code == 2


def test_config_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.parse("family = frank\nnot.a.key = 3\n")


_SIM_SETTINGS = """
family = clayton
sim.k = 2
sim.tau_alpha = 0.3
sim.tau_thetas = 0.3, 0.6
sim.tau_lower = 0.4
sim.rate_intermediate = 1.5
sim.rate_terminal = 0.8
sim.censor_upper = 9
sim.n_train = 40
sim.n_test = 7
sim.seed = 3
"""


@pytest.mark.parametrize("example", ["ex1", "ex2", "ex3", "custom"])
def test_sim_config_equals_the_direct_builder_call(example):
    cfg = RunConfig.parse(_SIM_SETTINGS + f"sim.example = {example}\n")
    common = dict(family="clayton", rate_intermediate=1.5, n_test=7, seed=3)
    sized = dict(
        k=2, tau_alpha=0.3, censor_upper=9.0, n_train=40, rate_terminal=0.8, **common
    )
    if example == "ex1":
        expected = ex1_config(**sized)
    elif example == "ex2":
        expected = ex2_config(**sized)
    elif example == "ex3":
        expected = ex3_config(tau_alpha=0.3, tau_lower=0.4, n_train=40, **common)
    else:
        expected = SimConfig(tau_thetas=(0.3, 0.6), tau_lower=0.4, **sized)
    assert cfg.sim_config() == expected


def test_data_roundtrip_idempotent(workdir, tmp_path):
    tmp, _ = workdir
    data = read_data_csv(tmp / "train.csv")
    p1 = tmp_path / "copy1.csv"
    write_data_csv(p1, data)
    data2 = read_data_csv(p1)
    p2 = tmp_path / "copy2.csv"
    write_data_csv(p2, data2)
    assert p1.read_bytes() == p2.read_bytes()


def test_data_csv_row_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,t1,d1,y,dtilde\n1,0.5,1,2.0,1\n2,3.0,1,2.0,1\n")
    with pytest.raises(ConfigError, match="t1=3.0 exceeds"):
        read_data_csv(bad)


def test_fit_summary_and_model_json(workdir):
    tmp, _ = workdir
    doc = json.loads((tmp / "model.json").read_text())
    assert doc["family"] == "frank"
    assert doc["k"] == 2
    assert doc["provenance"]["command"] == "fit"
    assert 0 < doc["tau_alpha"] < 1
    assert len(doc["thetas"]) == 2


def test_fit_bare_bootstrap_uses_config_replicates(workdir, tmp_path):
    tmp, _ = workdir
    cfg = write_cfg(tmp_path / "boot.cfg", SMALL_SIM + "bootstrap.b = 3\n")
    counts = []
    for flag in (["--bootstrap"], ["--bootstrap", 4]):
        out = tmp_path / "boot.json"
        assert (
            run_cli(
                ["fit", "--data", tmp / "train.csv", "--config", cfg, "--out", out,
                 *flag, "--seed", 5, "--threads", 1]
            )
            == 0
        )
        counts.append(json.loads(out.read_text())["bootstrap"]["b"])
    assert counts == [3, 4]


@pytest.mark.parametrize(
    "flag, settings",
    [
        (["--bootstrap", 1], ""),
        (["--bootstrap", -5], ""),
        (["--bootstrap", -1], "bootstrap.b = 3\n"),  # not read as a bare flag
        (["--bootstrap"], "bootstrap.b = 1\n"),
    ],
    ids=["one", "negative", "minus-one", "bare-config-one"],
)
def test_fit_invalid_bootstrap_count_exits_2_before_fitting(
    workdir, tmp_path, monkeypatch, flag, settings
):
    tmp, _ = workdir
    cfg = write_cfg(tmp_path / "boot.cfg", SMALL_SIM + settings)
    out = tmp_path / "boot.json"

    def no_fit(*args, **kwargs):
        raise AssertionError("the point fit ran")

    monkeypatch.setattr("archsurv.cli.fit_joint_model", no_fit)
    with pytest.raises(SystemExit) as exc:
        run_cli(["fit", "--data", tmp / "train.csv", "--config", cfg, "--out", out,
                 *flag, "--threads", 1])
    assert exc.value.code == 2
    assert not out.exists()


def test_predict_flow_and_m0_equals_p0(workdir, tmp_path):
    tmp, _ = workdir
    qpath = tmp_path / "queries.csv"
    queries = [PredictionQuery(()), PredictionQuery(((0, 0.4), (1, 0.8)))]
    write_query_csv(qpath, queries, k=2, ids=["empty", "both"])
    out = tmp_path / "pred.csv"
    summ = tmp_path / "summary.csv"
    assert (
        run_cli(
            ["predict", "--model", tmp / "model.json", "--queries", qpath,
             "--out", out, "--summary-out", summ, "--method", "all",
             "--times", "1.0,2.0,4.0"]
        )
        == 0
    )
    rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
    methods_empty = {r[1] for r in rows if r[0] == "empty"}
    assert methods_empty == {"DP", "P0"}  # no events: only blank-history methods
    methods_both = {r[1] for r in rows if r[0] == "both"}
    assert methods_both == {"DP", "P0", "Pk:1", "Pkm:1", "Pk:2", "Pkm:2"}
    # an empty history makes the dynamic prediction the plain landmark ratio
    dp = [float(r[3]) for r in rows if r[0] == "empty" and r[1] == "DP"]
    p0 = [float(r[3]) for r in rows if r[0] == "empty" and r[1] == "P0"]
    assert dp == p0
    summary = summ.read_text().splitlines()
    assert summary[1].startswith("id,method,landmark,cmst,cqst_0.025")


def test_predict_onset_on_flat_marginal_segment(tmp_path):
    # the marginal's slope at an onset cancels from the dynamic prediction,
    # so an onset where the fitted marginal is flat still predicts
    from tests.test_predict import injected_model, with_flat_segment

    model = with_flat_segment(injected_model(), 0, 0.404)
    model.save(tmp_path / "model.json")
    qpath = tmp_path / "queries.csv"
    write_query_csv(qpath, [PredictionQuery(((0, 0.404), (1, 0.9)))], k=3, ids=["a"])
    out = tmp_path / "pred.csv"
    assert (
        run_cli(
            ["predict", "--model", tmp_path / "model.json", "--queries", qpath,
             "--out", out, "--method", "DP"]
        )
        == 0
    )
    values = [float(ln.split(",")[3]) for ln in out.read_text().splitlines()[2:]]
    assert values and np.all(np.diff(values) <= 1e-12)


@pytest.mark.parametrize(
    "flags",
    [
        ["--t-u-star", 0.5],  # restriction time before the landmark
        ["--times", "0.2,0.5"],  # no evaluation time past the landmark
    ],
)
def test_predict_query_errors_exit_4(workdir, tmp_path, capsys, flags):
    tmp, _ = workdir
    qpath = tmp_path / "q.csv"
    write_query_csv(qpath, [PredictionQuery(((0, 0.8),))], k=2, ids=["late"])
    with pytest.raises(SystemExit) as exc:
        run_cli(["predict", "--model", tmp / "model.json", "--queries", qpath,
                 "--out", tmp_path / "p.csv", *flags])
    assert exc.value.code == 4
    assert "subject late:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--times", "1.0,x"],
        ["--cqst-levels", "0.5,x"],
        ["--cqst-levels", "0.5,1.5"],
        ["--times", "3,1,4,2"],  # out of order: the summaries read the grid in order
        ["--times", "1,2,2,3"],
        ["--t-u-star", "nan"],
        ["--t-u-star", "inf"],
        ["--t-u-star", "0"],
        ["--t-u-star", "-1"],
        ["--times", "nan"],  # one point: the order check alone passed it
        ["--times", "1,inf"],
    ],
)
def test_predict_bad_number_flags_exit_2(workdir, tmp_path, flags):
    tmp, _ = workdir
    qpath = tmp_path / "q.csv"
    write_query_csv(qpath, [PredictionQuery(())], k=2, ids=["a"])
    with pytest.raises(SystemExit) as exc:
        run_cli(["predict", "--model", tmp / "model.json", "--queries", qpath,
                 "--out", tmp_path / "p.csv", *flags])
    assert exc.value.code == 2


def _one_history_files(model, ids, queries, flags):
    """The lines (past the provenance line) of the curve and summary CSVs
    of `archsurv predict`, from one predict_curves call per history."""
    from archsurv.cli import _methods_for
    from archsurv.predict import cmst, cqst, predict_curves, prediction_interval

    opts = dict(zip(flags[::2], flags[1::2]))
    method = opts.get("--method", "all")
    levels = [float(x) for x in opts.get("--cqst-levels", "0.025,0.5,0.975").split(",")]
    times = np.array([float(x) for x in opts["--times"].split(",")]) if "--times" in opts else None
    t_u_star = float(opts.get("--t-u-star", model.t_max))
    fmt = lambda x: repr(float(x))  # noqa: E731
    curves = ["id,method,t,survival"]
    summary = [
        "id,method,landmark,cmst," + ",".join(f"cqst_{lv}" for lv in levels)
        + ",interval_lo,interval_hi,hi_censored"
    ]
    for rid, q in zip(ids, queries):
        methods = _methods_for(q, method)
        own = None if times is None else times[times > q.landmark]
        pred = predict_curves(q, model, methods, own)
        quantiles = [cqst(pred, lv) for lv in levels]
        iv = prediction_interval(pred, t_u_star=t_u_star)
        mean = cmst(pred, t_u_star)
        for j, m in enumerate(methods):
            curves += [f"{rid},{m},{fmt(t)},{fmt(v)}" for t, v in zip(pred.times, pred.values[j])]
            summary.append(",".join([
                rid, m, fmt(q.landmark), fmt(mean[j]),
                *("" if np.isnan(at[j]) else fmt(at[j]) for at in quantiles),
                fmt(iv.lo[j]), fmt(iv.hi[j]), str(int(iv.hi_censored[j])),
            ]))
    return curves, summary


PREDICT_HISTORIES = [
    (), ((0, 0.4),), ((1, 1.3),), ((0, 0.4), (1, 0.8)), ((0, 2.5), (1, 0.1)), ((1, 4.0),),
]


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--method", "DP"],
        ["--method", "Pkm:1", "--times", "0.5,1,2,3,4,6,8"],
        ["--times", "0.3,0.9,1.7,2.2,3.5,5,7.5", "--t-u-star", "9", "--cqst-levels", "0.1,0.5"],
    ],
)
@pytest.mark.filterwarnings("ignore:prediction grid spacing")
def test_predict_files_equal_one_history_reference(workdir, tmp_path, flags, monkeypatch):
    # the batched command writes the curve and summary files byte for byte
    # as one prediction per history does; the query file holds the held-out
    # subjects' histories and some fixed ones, m = 0, 1 and 2, and chunks
    # hold a few histories each
    from archsurv.likelihood import FittedJointModel

    monkeypatch.setattr("archsurv.predict.CHUNK_CELLS", 3000)

    tmp, _ = workdir
    model = FittedJointModel.load(tmp / "model.json")
    test = read_data_csv(tmp / "test.csv")
    queries = [
        PredictionQuery(tuple((k, float(test.t[i, k])) for k in range(2) if test.delta[i, k]))
        for i in range(test.n)
    ] + [PredictionQuery(ev) for ev in PREDICT_HISTORIES]
    if "--method" in flags:  # a history without onset 1 has no Pkm:1
        queries = [q for q in queries if 0 in dict(q.events) or flags[1] == "DP"]
    ids = [f"s{i}" for i in range(len(queries))]
    qpath = tmp_path / "q.csv"
    write_query_csv(qpath, queries, k=2, ids=ids)
    out, summ = tmp_path / "p.csv", tmp_path / "s.csv"
    assert run_cli(["predict", "--model", tmp / "model.json", "--queries", qpath,
                    "--out", out, "--summary-out", summ, *flags]) == 0
    curves, summary = _one_history_files(model, ids, queries, flags)
    assert out.read_text().splitlines()[1:] == curves
    assert summ.read_text().splitlines()[1:] == summary
    assert len(summary) > len(queries)


def test_predict_exits_4_at_the_first_failing_subject(workdir, tmp_path, capsys):
    tmp, _ = workdir
    from archsurv.likelihood import FittedJointModel

    t_max = FittedJointModel.load(tmp / "model.json").t_max
    histories = [(), ((0, 0.4),), ((0, t_max + 1.0),), ((1, 0.5),), ((1, t_max),)]
    qpath = tmp_path / "q.csv"
    write_query_csv(qpath, [PredictionQuery(ev) for ev in histories], k=2,
                    ids=["a", "b", "late", "c", "later"])
    with pytest.raises(SystemExit) as exc:
        run_cli(["predict", "--model", tmp / "model.json", "--queries", qpath,
                 "--out", tmp_path / "p.csv"])
    assert exc.value.code == 4
    assert "subject late: landmark" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli(["predict", "--model", tmp / "model.json", "--queries", qpath,
                 "--out", tmp_path / "p.csv", "--method", "Pk:9"])
    assert exc.value.code == 4
    assert "subject a: onset 9 not observed" in capsys.readouterr().err


def test_predict_reload_identical(workdir, tmp_path):
    tmp, _ = workdir
    from archsurv.likelihood import FittedJointModel
    from archsurv.predict import predict_survival_dp

    m1 = FittedJointModel.load(tmp / "model.json")
    m2 = FittedJointModel.from_json(m1.to_json())
    q = PredictionQuery(((0, 0.5),))
    t = np.linspace(0.6, 5.0, 20)
    p1 = predict_survival_dp(q, m1, times=t)
    p2 = predict_survival_dp(q, m2, times=t)
    assert np.array_equal(p1.values, p2.values)


def test_evaluate_flow(workdir, tmp_path):
    tmp, cfg = workdir
    out = tmp_path / "report.json"
    curves = tmp_path / "curves.csv"
    assert (
        run_cli(
            ["evaluate", "--model", tmp / "model.json", "--data", tmp / "test.csv",
             "--latent", tmp / "latent_test.csv", "--config", cfg,
             "--out", out, "--curves-out", curves]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert "DP" in doc["methods"]
    assert doc["methods"]["DP"]["relative_accuracy"]["mspe"] == 1.0
    header = curves.read_text().splitlines()[1]
    assert header == "method,t,bs,auc"


def test_evaluate_reports_the_capped_restriction_time(workdir, tmp_path):
    # a restriction time past the follow-up end is capped for the scores,
    # and the report and the curve grid say so
    tmp, _ = workdir
    t_max = json.loads((tmp / "model.json").read_text())["t_max"]
    docs, grids = [], []
    for t_u_star in (1000.0, t_max):
        cfg = write_cfg(tmp_path / "run.cfg", f"metrics.t_u_star = {t_u_star!r}\n")
        out, curves = tmp_path / "report.json", tmp_path / "curves.csv"
        assert run_cli(
            ["evaluate", "--model", tmp / "model.json", "--data", tmp / "test.csv",
             "--latent", tmp / "latent_test.csv", "--config", cfg,
             "--out", out, "--curves-out", curves]
        ) == 0
        docs.append(json.loads(out.read_text()))
        grids.append(curves.read_text().splitlines()[2:])
    assert docs[0]["t_u_star"] == t_max
    assert docs[0]["methods"] == docs[1]["methods"]
    assert grids[0] == grids[1]
    assert float(grids[0][-1].split(",")[1]) == t_max


@pytest.mark.parametrize(
    "line",
    [
        "metrics.grid_points = 0",
        "metrics.qpe_tau = 1.5",
        "metrics.qpe_tau = 0",
        "metrics.t_u_star = 0",
        "metrics.t_u_star = -2",
    ],
)
@pytest.mark.parametrize("command", ["evaluate", "crossval"])
def test_bad_metrics_values_exit_2(workdir, tmp_path, line, command):
    tmp, _ = workdir
    cfg = write_cfg(tmp_path / "run.cfg", line + "\n")
    inputs = (
        ["--model", tmp / "model.json", "--data", tmp / "test.csv"]
        if command == "evaluate"
        else ["--data", tmp / "train.csv", "--threads", 1]
    )
    with pytest.raises(SystemExit) as exc:
        run_cli([command, *inputs, "--config", cfg, "--out", tmp_path / "out.json"])
    assert exc.value.code == 2


def test_fit_and_crossval_fit_with_the_same_keywords(workdir, tmp_path, monkeypatch):
    # crossval fits each split with the optimizer and weight settings fit uses
    import archsurv.cli as cli

    class Recorded(Exception):
        pass

    seen = {}

    def recorder(name, own=()):
        def record(*args, **kwargs):
            seen[name] = {k: v for k, v in kwargs.items() if k not in own}
            raise Recorded
        return record

    monkeypatch.setattr(cli, "fit_joint_model", recorder("fit"))
    monkeypatch.setattr(cli, "cross_validate", recorder("crossval", own=(
        "scheme", "folds", "test_fraction", "repeats", "config", "seed", "threads",
    )))
    tmp, _ = workdir
    cfg = write_cfg(
        tmp_path / "run.cfg",
        "optimizer.tau_min = 0.05\noptimizer.tau_max = 0.8\n"
        "optimizer.tau_tol = 0.001\nweights.kind = dampened\n",
    )
    for command in ("fit", "crossval"):
        with pytest.raises(Recorded):
            run_cli([command, "--data", tmp / "train.csv", "--config", cfg,
                     "--out", tmp_path / "out.json", "--threads", 1])
    assert seen["fit"]["tau_bounds"] == (0.05, 0.8)
    assert seen["fit"]["tau_tol"] == 0.001
    assert seen["crossval"] == seen["fit"]


_BAD_OPTIMIZER = [
    "optimizer.tau_tol = nan",
    "optimizer.tau_tol = 0",
    "optimizer.tau_tol = inf",
    "optimizer.tau_min = 0.9\noptimizer.tau_max = 0.1",
    "optimizer.tau_max = 1.5",
    "optimizer.tau_min = -0.5",
    "optimizer.tau_min = 0",
    "optimizer.tau_min = nan",
]


@pytest.mark.parametrize("text", _BAD_OPTIMIZER)
def test_config_rejects_bad_optimizer_settings(text):
    with pytest.raises(ConfigError):
        RunConfig.parse(text + "\n")


@pytest.mark.parametrize("text", _BAD_OPTIMIZER)
@pytest.mark.parametrize("command", ["fit", "crossval"])
def test_bad_optimizer_settings_exit_2(workdir, tmp_path, text, command):
    tmp, _ = workdir
    cfg = write_cfg(tmp_path / "run.cfg", text + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--data", tmp / "train.csv", "--config", cfg,
                 "--out", tmp_path / "out.json", "--threads", 1])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "id,d,tt1,tt2\n1,abc,0.5,\n",
        "id,d,tt1,tt2\n1,2.0,0.5\n",
        "id,d,tt1,tt2\n1,2.0,0.5,x\n",
        "id,d,tt1,tt2\n1,nan,0.5,\n",
        "id,d,tt1,tt2\n1,-1.0,0.5,\n",
        "id,d,tt1,tt2\n1,inf,,\n",
        "id,d,tt1,tt2\n1,2.0,nan,\n",
        "id,death,tt1\n1,2.0,0.5\n",
        "id,d,tt1,tt2\n",
    ],
)
def test_read_latent_rejects_malformed(tmp_path, text):
    path = tmp_path / "latent.csv"
    path.write_text(text)
    with pytest.raises(ConfigError):
        read_latent_csv(path)


@pytest.mark.parametrize(
    "text",
    ["", "\n", "id,t1,t2\n", "id,t1,t2\na,0.5\n", "id,t1,t2\na,0.5,x\n", "id,t1,t2\na,-1.0,\n",
     "id,t1,t2\na,0.5,nan\n", "id,t1,t2\na,inf,\n"],
)
def test_read_query_rejects_malformed(tmp_path, text):
    path = tmp_path / "q.csv"
    path.write_text(text)
    with pytest.raises(ConfigError):
        read_query_csv(path, k=2)


@pytest.mark.parametrize("text", ["", "id,d,tt1,tt2\n1,abc,0.5,\n"])
def test_evaluate_malformed_latent_exits_2(workdir, tmp_path, text):
    tmp, cfg = workdir
    latent = tmp_path / "latent.csv"
    latent.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_cli(["evaluate", "--model", tmp / "model.json", "--data", tmp / "test.csv",
                 "--latent", latent, "--config", cfg, "--out", tmp_path / "r.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("row", ["1,0.5,nan", "1,nan,"])
def test_predict_non_finite_onset_exits_2(workdir, tmp_path, capsys, row):
    # a NaN onset passed a `t < 0` check: the row got a DP curve with
    # landmark 0.5, or ended as "no terminal mass beyond nan" (exit 4)
    tmp, _ = workdir
    qpath = tmp_path / "q.csv"
    qpath.write_text(f"id,t1,t2\n{row}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["predict", "--model", tmp / "model.json", "--queries", qpath,
                 "--out", tmp_path / "p.csv"])
    assert exc.value.code == 2
    assert "line 2: onset times must be finite" in capsys.readouterr().err


def test_evaluate_nan_latent_death_exits_2(workdir, tmp_path, capsys):
    # a NaN death time passed, and the report held NaN MSPE, QPE and relMSPE
    tmp, cfg = workdir
    lines = (tmp / "latent_test.csv").read_text().splitlines()
    row = lines[2].split(",")  # after the provenance line and the header
    lines[2] = ",".join([row[0], "nan", *row[2:]])
    latent = tmp_path / "latent.csv"
    latent.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["evaluate", "--model", tmp / "model.json", "--data", tmp / "test.csv",
                 "--latent", latent, "--config", cfg, "--out", tmp_path / "r.json"])
    assert exc.value.code == 2
    assert "line 3:" in capsys.readouterr().err  # file line: provenance, header, row


def test_data_parse_error_names_the_file_line(workdir, tmp_path, capsys):
    # the row after the provenance line and the header is line 3 of the file
    tmp, cfg = workdir
    lines = (tmp / "train.csv").read_text().splitlines()
    row = lines[2].split(",")
    lines[2] = ",".join([*row[:-2], "abc", row[-1]])
    data = tmp_path / "train.csv"
    data.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["fit", "--data", data, "--config", cfg, "--out", tmp_path / "m.json",
                 "--threads", 1])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "line 3:" in err and "line 2:" not in err


def test_query_parse_error_names_the_file_line(workdir, tmp_path, capsys):
    tmp, _ = workdir
    qpath = tmp_path / "q.csv"
    qpath.write_text("# archsurv command=test\n# second comment\nid,t1,t2\n1,0.5,\n2,0.5,nan\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["predict", "--model", tmp / "model.json", "--queries", qpath,
                 "--out", tmp_path / "p.csv"])
    assert exc.value.code == 2
    assert "line 5: onset times must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"family": "frank"}', "not json"])
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_malformed_model_exits_2(workdir, tmp_path, text, command):
    tmp, cfg = workdir
    model = tmp_path / "model.json"
    model.write_text(text)
    inputs = (
        ["--queries", tmp / "test.csv"] if command == "predict"
        else ["--data", tmp / "test.csv", "--config", cfg]
    )
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--model", model, *inputs, "--out", tmp_path / "out"])
    assert exc.value.code == 2


@pytest.mark.parametrize("folds", [0, 1])
def test_crossval_invalid_folds_exit_2(workdir, tmp_path, folds):
    tmp, cfg = workdir
    with pytest.raises(SystemExit) as exc:
        run_cli(["crossval", "--data", tmp / "train.csv", "--config", cfg,
                 "--out", tmp_path / "cv.json", "--folds", folds, "--threads", 1])
    assert exc.value.code == 2


def test_crossval_flow_and_thread_invariance(workdir, tmp_path):
    tmp, cfg = workdir
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"cv{threads}.json"
        assert (
            run_cli(
                ["crossval", "--data", tmp / "train.csv", "--config", cfg,
                 "--out", out, "--folds", 3, "--seed", 4, "--threads", threads]
            )
            == 0
        )
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["splits"] == 3 and doc["failures"] == 0


def test_cli_exit_code_on_missing_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["fit", "--data", tmp_path / "none.csv", "--out", tmp_path / "m.json"])
    assert exc.value.code == 2


def test_cli_entrypoint_subprocess(workdir, tmp_path):
    tmp, cfg = workdir
    proc = run_cli_subprocess(["--version"])
    assert proc.returncode == 0
    assert "archsurv" in proc.stdout


def test_query_roundtrip(tmp_path):
    qpath = tmp_path / "q.csv"
    queries = [PredictionQuery(((1, 2.5),)), PredictionQuery(())]
    write_query_csv(qpath, queries, k=3, ids=["a", "b"])
    ids, back = read_query_csv(qpath, k=3)
    assert ids == ["a", "b"]
    assert back[0].events == ((1, 2.5),)
    assert back[1].m == 0


def test_latent_roundtrip(workdir):
    tmp, _ = workdir
    ids, d, onset = read_latent_csv(tmp / "latent.csv")
    assert d.size == 70
    assert np.all(np.isfinite(d))
    assert np.any(np.isinf(onset))  # never-happened onsets encoded as empty


def test_fit_recovers_truth_end_to_end(tmp_path):
    # Ex2-style preset: the fitted global association lands within three
    # replication SDs of the truth
    cfg = write_cfg(
        tmp_path / "e2e.cfg",
        "family = frank\nsim.example = ex2\nsim.k = 3\nsim.tau_alpha = 0.5\n"
        "sim.censor_upper = 20\nsim.n_train = 200\nsim.n_test = 0\nsim.seed = 777\n",
    )
    run_cli(["simulate", "--config", cfg, "--out", tmp_path / "d.csv"])
    run_cli(["fit", "--data", tmp_path / "d.csv", "--config", cfg,
             "--out", tmp_path / "m.json", "--threads", 1])
    doc = json.loads((tmp_path / "m.json").read_text())
    assert abs(doc["tau_alpha"] - 0.5) <= 3 * 0.037


def test_fit_k1_summary_omits_alpha(tmp_path):
    cfg = write_cfg(
        tmp_path / "k1.cfg",
        "family = frank\nsim.example = ex2\nsim.k = 1\nsim.tau_alpha = 0.3\n"
        "sim.n_train = 60\nsim.n_test = 0\nsim.seed = 5\n",
    )
    run_cli(["simulate", "--config", cfg, "--out", tmp_path / "d.csv"])
    import contextlib, io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run_cli(["fit", "--data", tmp_path / "d.csv", "--config", cfg,
                 "--out", tmp_path / "m.json", "--threads", 1])
    summary = buf.getvalue()
    assert "tau_alpha" not in summary
    assert "tau_theta_1" in summary
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["alpha"] is None


@pytest.mark.parametrize("family", ["frank", "clayton", "gumbel"])
def test_fit_ten_onsets_exits_0(tmp_path, family):
    # 9 or more observed onsets once ended the fit with exit code 3
    config = SimConfig(
        k=10, family=family, tau_thetas=tuple(np.linspace(0.7, 0.3, 10)),
        tau_alpha=0.3, n_train=150, n_test=0, seed=4,
    )
    write_data_csv(tmp_path / "train.csv", simulate_dataset(config).train)
    cfg = write_cfg(tmp_path / "run.cfg", f"family = {family}\n")
    args = ["fit", "--data", tmp_path / "train.csv", "--config", cfg, "--out", tmp_path / "m.json"]
    assert run_cli(args) == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["k"] == 10 and 0 < doc["tau_alpha"] < 1
