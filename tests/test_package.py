"""The package as a user meets it: what importing and running it loads."""

import subprocess
import sys
from pathlib import Path

from tests._cli import cli_env

README = Path(__file__).resolve().parents[1] / "README.md"

# fit, predict and evaluate in a fresh interpreter, then list the loaded
# scipy.stats modules
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
print([m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")])
"""


def test_user_path_does_not_load_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c", USER_PATH], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_library_sketch_runs():
    # the documented API stays the one the package has
    example = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
