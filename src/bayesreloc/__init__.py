"""Monte Carlo dropout camera relocalization with calibrated uncertainty.

A small feed-forward regressor maps image features to camera pose.
Keeping dropout active at test time turns repeated forward passes into
posterior pose samples: their mean is the estimate and their covariance
trace is a per-query uncertainty.  Gamma fits over a scene's trace
population convert raw traces into comparable percentile scores, which
also support recognizing which scene an input comes from.
"""

from .calibration import (
    CalibrationModel,
    GammaModel,
    ZScore,
    calibrate,
    detection_score,
    fit_gamma,
    gamma_cdf,
    ks_statistic,
    load_calibration,
    save_calibration,
    z_score,
)
from .detector import (
    ConfusionMatrix,
    DetectionResult,
    SceneModel,
    confusion,
    detect,
    format_confusion,
)
from .errors import (
    BayesRelocError,
    DegenerateMean,
    DegenerateQuaternion,
    InsufficientPopulation,
    InsufficientVariance,
    InvalidArchitecture,
    InvalidSpec,
    NoConvergence,
    NonFiniteLoss,
    NonPositiveValue,
    ParseError,
    ShapeMismatch,
)
from .geometry import (
    LossConfig,
    Pose,
    UnitQuaternion,
    Vec3,
    normalize,
    pose_loss,
    quaternion_mean,
    rotation_error_deg,
    translation_error,
)
from .harness import (
    EvalReport,
    EvalSummary,
    HistogramReport,
    QueryRecord,
    SweepReport,
    TimingReport,
    run_calibration,
    run_eval,
    run_histogram,
    run_sweep,
    run_timing,
)
from .mc_posterior import (
    DEFAULT_NUM_SAMPLES,
    PoseSampleSet,
    UncertaintyEstimate,
    estimate,
    estimate_determinant,
    localize,
    localize_batch,
    sample_posterior,
)
from .regressor import (
    Layer,
    LayerSpec,
    NetworkParams,
    TrainConfig,
    TrainResult,
    build_network,
    draw_mask,
    draw_masks,
    feature_embedding,
    forward,
    load_checkpoint,
    loss_gradient,
    pose_network,
    save_checkpoint,
    train,
)
from .scenes import (
    Example,
    FeatureMap,
    SceneDataset,
    SceneSpec,
    generate_scene,
    load_dataset,
    load_examples,
    nearest_neighbour_pose,
    save_dataset,
    save_examples,
)

__version__ = "0.1.0"
