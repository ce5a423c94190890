"""The package as a user meets it: what importing and running it loads."""

import subprocess
import sys
from pathlib import Path

from tests._cli import cli_env

README = Path(__file__).resolve().parents[1] / "README.md"

# fit, predict and evaluate in a fresh interpreter, then list the loaded
# scipy modules
USER_PATH = """
import sys, warnings
warnings.simplefilter("ignore")
import archsurv as A
res = A.simulate_dataset(A.ex1_config(k=2, n_train=60, n_test=20, seed=4))
model = A.fit_joint_model(res.train, "frank")
pred = A.predict_survival_dp(A.PredictionQuery(((0, 0.3), (1, 0.5))), model)
A.cmst(pred, float(pred.times[-1]))
A.prediction_interval(pred)
A.evaluate_model(model, res.test, A.MetricConfig(t_u_star=4.0), d_true=res.latent_test.d)
print([m for m in sys.modules if m.startswith("scipy")])
"""

CONFIG = """
family = frank
sim.example = ex2
sim.k = 2
sim.n_train = 50
sim.n_test = 10
sim.seed = 3
metrics.t_u_star = 10
metrics.grid_points = 20
"""


def test_user_path_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", USER_PATH], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_chain_does_not_load_scipy(tmp_path):
    # each subcommand runs in its own interpreter; -X importtime lists on
    # standard error every module that interpreter imports
    (tmp_path / "run.cfg").write_text(CONFIG)
    (tmp_path / "queries.csv").write_text("id,t1,t2\n1,,\n2,0.4,\n3,0.3,0.8\n")
    chain = [
        ["simulate", "--config", "run.cfg", "--out", "train.csv", "--test-out", "test.csv",
         "--latent-test-out", "latent_test.csv"],
        ["fit", "--data", "train.csv", "--config", "run.cfg", "--out", "model.json",
         "--threads", "1"],
        ["predict", "--model", "model.json", "--queries", "queries.csv", "--out", "pred.csv"],
        ["evaluate", "--model", "model.json", "--data", "test.csv", "--latent",
         "latent_test.csv", "--config", "run.cfg", "--out", "report.json"],
    ]
    for args in chain:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "archsurv.cli", *args],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = [
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "archsurv.likelihood" in loaded
        assert [m for m in loaded if m.startswith("scipy")] == [], args[0]
    assert (tmp_path / "report.json").is_file()


def test_readme_library_sketch_runs():
    # the documented API stays the one the package has
    example = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
