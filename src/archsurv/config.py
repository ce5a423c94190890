"""Run-configuration file: `key = value` lines, `#` comments, dotted keys.

Unknown keys are rejected; every key has a documented default.  The full
grammar:

    family               frank | clayton | gumbel          (default frank)
    mc.n                 accepted and ignored; recorded    (500)
    mc.seed              accepted and ignored; recorded    (20200)
    bootstrap.b          replicates for a bare --bootstrap (200)
    optimizer.tau_min    lower search bound on tau         (0.01)
    optimizer.tau_max    upper search bound on tau         (0.95)
    optimizer.tau_tol    search tolerance on tau           (1e-4)
    weights.kind         unit | dampened                   (unit)
    metrics.t_u_star     restriction time, > 0             (12.0)
    metrics.qpe_tau      check-loss quantile, in (0,1)     (0.5)
    metrics.grid_points  score-curve grid size, >= 1       (100)
    metrics.ipcw         true | false                      (false)
    cv.scheme            kfold | random                    (kfold)
    cv.folds             folds for kfold, >= 2             (3)
    cv.test_fraction     random-split test share, in (0,1) (0.3333)
    cv.repeats           repetitions, >= 1                 (1)
    sim.example          ex1 | ex2 | ex3 | custom          (ex1)
    sim.k                number of intermediate events     (3)
    sim.tau_alpha        global association (Kendall)      (0.2)
    sim.tau_thetas       comma list, custom example only   ()
    sim.tau_lower        lower-wedge association (ex3)     (0.5)
    sim.rate_intermediate onset hazard rate                (1.0)
    sim.rate_terminal    death hazard rate                 (0.6)
    sim.censor_upper     censoring Uniform[0, c] bound     (20.0)
    sim.n_train          training subjects                 (100)
    sim.n_test           test subjects                     (50)
    sim.seed             generation seed                   (1)
"""

from __future__ import annotations



from .errors import ConfigError
from .simulate import SimConfig, ex1_config, ex2_config, ex3_config


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _tau_list(text):
    if not text.strip():
        return ()
    return tuple(float(p) for p in text.split(","))


_SCHEMA = {
    "family": (str, "frank"),
    "mc.n": (int, 500),
    "mc.seed": (int, 20200),
    "bootstrap.b": (int, 200),
    "optimizer.tau_min": (float, 0.01),
    "optimizer.tau_max": (float, 0.95),
    "optimizer.tau_tol": (float, 1e-4),
    "weights.kind": (str, "unit"),
    "metrics.t_u_star": (float, 12.0),
    "metrics.qpe_tau": (float, 0.5),
    "metrics.grid_points": (int, 100),
    "metrics.ipcw": (_bool, False),
    "cv.scheme": (str, "kfold"),
    "cv.folds": (int, 3),
    "cv.test_fraction": (float, 1.0 / 3.0),
    "cv.repeats": (int, 1),
    "sim.example": (str, "ex1"),
    "sim.k": (int, 3),
    "sim.tau_alpha": (float, 0.2),
    "sim.tau_thetas": (_tau_list, ()),
    "sim.tau_lower": (float, None),
    "sim.rate_intermediate": (float, 1.0),
    "sim.rate_terminal": (float, 0.6),
    "sim.censor_upper": (float, 20.0),
    "sim.n_train": (int, 100),
    "sim.n_test": (int, 50),
    "sim.seed": (int, 1),
}

_CHOICES = {
    "family": {"frank", "clayton", "gumbel"},
    "weights.kind": {"unit", "dampened"},
    "cv.scheme": {"kfold", "random"},
    "sim.example": {"ex1", "ex2", "ex3", "custom"},
}


class RunConfig:
    """Validated key-value configuration with documented defaults."""

    def __init__(self, items: dict = None):
        self.items = {key: default for key, (_, default) in _SCHEMA.items()}
        for key, value in (items or {}).items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            self.items[key] = value
        for key, choices in _CHOICES.items():
            if self.items[key] is not None and self.items[key] not in choices:
                raise ConfigError(
                    f"{key}: {self.items[key]!r} not one of {sorted(choices)}"
                )

    def __getitem__(self, key):
        return self.items[key]

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        items = {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line {ln}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"config line {ln}: unknown key {key!r}")
            caster, _ = _SCHEMA[key]
            try:
                items[key] = caster(value)
            except ValueError as exc:
                raise ConfigError(f"config line {ln}: {key}: {exc}") from exc
        return cls(items)

    @classmethod
    def load(cls, path) -> "RunConfig":
        if path is None:
            return cls()
        with open(path) as fh:
            return cls.parse(fh.read())

    def sim_config(self, seed=None) -> SimConfig:
        s = self.items
        seed = s["sim.seed"] if seed is None else seed
        common = dict(
            family=s["family"],
            rate_intermediate=s["sim.rate_intermediate"],
            n_test=s["sim.n_test"],
            seed=seed,
        )
        example = s["sim.example"]
        try:
            build = {"ex1": ex1_config, "ex2": ex2_config}.get(example)
            if build is not None:
                return build(
                    k=s["sim.k"], tau_alpha=s["sim.tau_alpha"],
                    censor_upper=s["sim.censor_upper"], n_train=s["sim.n_train"],
                    rate_terminal=s["sim.rate_terminal"], **common,
                )
            if example == "ex3":
                return ex3_config(
                    tau_alpha=s["sim.tau_alpha"],
                    tau_lower=s["sim.tau_lower"] if s["sim.tau_lower"] is not None else 0.5,
                    n_train=s["sim.n_train"], **common,
                )
            taus = s["sim.tau_thetas"]
            if len(taus) != s["sim.k"]:
                raise ConfigError(
                    "sim.tau_thetas must list one value per event for "
                    "sim.example = custom"
                )
            return SimConfig(
                k=s["sim.k"], tau_alpha=s["sim.tau_alpha"], tau_thetas=taus,
                tau_lower=s["sim.tau_lower"],
                rate_terminal=s["sim.rate_terminal"],
                censor_upper=s["sim.censor_upper"], n_train=s["sim.n_train"],
                **common,
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(str(exc)) from exc

    def digest_items(self) -> dict:
        return dict(self.items)
