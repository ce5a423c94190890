"""Joint modeling of multiple disease-onset times that are informatively
censored by death, built on layered Archimedean copulas, with dynamic
survival prediction and an evaluation/simulation harness."""

__version__ = "0.1.0"

from .copulas import (
    ArchimedeanCopula,
    tau_from_theta,
    theta_from_tau,
)
from .data import SurvivalData
from .likelihood import (
    FittedJointModel,
    LikelihoodWorkspace,
    bootstrap_fit,
    fit_joint_model,
    maximize_alpha,
    model_aic,
)
from .marginals import (
    PairwiseAssociation,
    WeightSpec,
    censoring_km,
    self_consistent_marginal,
    solve_theta,
    terminal_km,
)
from .metrics import (
    MetricConfig,
    auc_t,
    brier_curve,
    cross_validate,
    evaluate_model,
    integrated_brier,
    interval_metrics,
    point_errors,
)
from .predict import (
    PredictionQuery,
    SurvivalPrediction,
    cmst,
    cqst,
    predict_baseline,
    predict_batch,
    predict_curves,
    predict_survival_dp,
    prediction_interval,
    q_joint_density,
)
from .simulate import (
    LatentTruth,
    SimConfig,
    ex1_config,
    ex2_config,
    ex3_config,
    simulate_dataset,
    simulate_latent,
)
from .survival import StepSurvival, kaplan_meier

__all__ = [
    "ArchimedeanCopula",
    "tau_from_theta",
    "theta_from_tau",
    "SurvivalData",
    "StepSurvival",
    "kaplan_meier",
    "PairwiseAssociation",
    "WeightSpec",
    "censoring_km",
    "terminal_km",
    "solve_theta",
    "self_consistent_marginal",
    "LikelihoodWorkspace",
    "FittedJointModel",
    "fit_joint_model",
    "maximize_alpha",
    "bootstrap_fit",
    "model_aic",
    "PredictionQuery",
    "SurvivalPrediction",
    "predict_curves",
    "predict_batch",
    "predict_survival_dp",
    "predict_baseline",
    "q_joint_density",
    "cmst",
    "cqst",
    "prediction_interval",
    "MetricConfig",
    "point_errors",
    "brier_curve",
    "integrated_brier",
    "auc_t",
    "interval_metrics",
    "evaluate_model",
    "cross_validate",
    "SimConfig",
    "LatentTruth",
    "ex1_config",
    "ex2_config",
    "ex3_config",
    "simulate_dataset",
    "simulate_latent",
    "__version__",
]
