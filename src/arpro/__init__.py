"""Property-guided diffusion repair for linearly decomposable anomaly detectors."""

from .data import AnomalySpec, Dataset, Scaler, fit_scaler, gen_synthetic_image, gen_synthetic_ts, load_csv_dataset, save_dataset
from .detector import (
    DecomposableScore,
    GaussDetector,
    ReconDetector,
    binarize,
    calibrate_thresholds,
    fit_gauss,
    fit_recon,
)
from .diffusion import Denoiser, NoiseSchedule, make_schedule, predict_mu, train_denoiser
from .harness import AggregateReport, ExperimentConfig, aggregate_delta, ablation_sweep, run_experiment, write_report
from .properties import (
    LossBreakdown,
    MetricsRecord,
    PropertyWeights,
    Tolerances,
    conformal_threshold,
    grad_guidance,
    loss_breakdown,
    metrics,
    satisfaction_rate,
    tnr,
)
from .repair import (
    RepairConfig,
    RepairResult,
    RepairRow,
    baseline_repair,
    guided_repair,
    make_guidance_schedule,
    repair_batch,
)
from .tensor import AdamW, Mlp, stream

__version__ = "0.1.0"
