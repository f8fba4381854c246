"""gpcal: Gaussian-process regression with coverage-calibrated prediction
intervals.

The package fits kriging models by maximum likelihood or leave-one-out
cross-validation, then recalibrates each interval bound so the proportion
of standardized LOO residuals below the target normal quantile matches the
nominal level, picking among admissible hyperparameters by Wasserstein
proximity to the reference model.
"""

__version__ = "0.1.0"

from .bench import (
    DesignSpec,
    ExperimentScale,
    IntervalMetrics,
    compute_metrics,
    morokoff_caflisch,
    run_experiment,
    sample_design,
    wing_weight,
    zhou_log,
)
from .estimation import (
    BayesPredictive,
    EstimationResult,
    McmcConfig,
    bayes_predictive,
    fit_mle,
    fit_msecv,
    mle_objective,
)
from .gp import (
    Dataset,
    FittedGp,
    HypothesisReport,
    TrendSpec,
    build_covariance,
    build_regression_matrix,
    check_hypotheses,
    compute_kbar,
    fit_gp,
    predict,
    prediction_interval,
)
from .kernels import KernelFamily, KernelSpec
from .loo import (
    LooDiagnostics,
    SmoothingParams,
    loo_coverage,
    loo_mse,
    virtual_loo,
)
from .rpie import (
    CalibratedIntervalModel,
    GridSpec,
    RpieConfig,
    RpieSolution,
    calibrate,
    calibrate_quantile,
    predict_calibrated,
    relaxation_objective,
    sigma_opt,
    wasserstein2_gaussians,
)

__all__ = [
    "__version__",
    "BayesPredictive", "CalibratedIntervalModel", "Dataset", "DesignSpec",
    "EstimationResult", "ExperimentScale", "FittedGp", "GridSpec",
    "HypothesisReport", "IntervalMetrics", "KernelFamily", "KernelSpec",
    "LooDiagnostics", "McmcConfig", "RpieConfig", "RpieSolution",
    "SmoothingParams", "TrendSpec",
    "bayes_predictive", "build_covariance", "build_regression_matrix",
    "calibrate", "calibrate_quantile", "check_hypotheses", "compute_kbar",
    "compute_metrics", "fit_gp", "fit_mle", "fit_msecv", "loo_coverage",
    "loo_mse", "mle_objective", "morokoff_caflisch", "predict",
    "predict_calibrated", "prediction_interval", "relaxation_objective",
    "run_experiment", "sample_design", "sigma_opt", "virtual_loo",
    "wasserstein2_gaussians", "wing_weight", "zhou_log",
]
