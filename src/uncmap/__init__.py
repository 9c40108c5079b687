"""uncmap: probabilistic vectorized road maps and their evaluation stack.

Core layers:

- :mod:`uncmap.geometry` - points, poses, polylines, resampling, frames.
- :mod:`uncmap.probmap` - the one map type (``VectorMap`` of
  ``MapElement``), which stores its vertex locations, Laplace scales and
  class logits as (V, 2), (V, 2) and (V, C) columns and checks a map once;
  NLL loss, scale transforms, uncertainty-augmented vertex feature rows.
- :mod:`uncmap.fitting` - closed-form and gradient Laplace MLE.
- :mod:`uncmap.map_eval` - Chamfer distance, per-class AP, mAP.
- :mod:`uncmap.pred_eval` - minADE / minFDE / miss rate, binned CIs.
- :mod:`uncmap.calibration` - interval coverage, reliability, ECE.
- :mod:`uncmap.synth` - deterministic synthetic scenes, noise model, and
  two goal-snapping baseline predictors.
- :mod:`uncmap.io` / :mod:`uncmap.cli` - file formats, manifests, reports,
  and the ``uncmap`` command-line pipeline.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    ElementClass,
    Polyline,
    Pose2,
    resample,
    transform_point,
    transform_points,
)
from .probmap import (  # noqa: F401
    B_FLOOR,
    MapElement,
    VectorMap,
    b_from_sigma,
    density,
    log_density,
    mean_map,
    nll_loss,
    rotate_uncertainty,
    sample_map,
    sigma_from_b,
    standardize_map,
    vertex_features,
)
from .fitting import FitConfig, FitResult, fit_closed_form, fit_gradient, fit_map  # noqa: F401
from .map_eval import (  # noqa: F401
    APConfig,
    MapEvalReport,
    average_precision,
    chamfer,
    evaluate_map,
    evaluate_scenes,
)
from .pred_eval import (  # noqa: F401
    BinnedStat,
    PredEvalReport,
    TrajectorySet,
    binned_ci,
    evaluate_trajectories,
    min_ade,
    min_fde,
    miss,
)
from .calibration import (  # noqa: F401
    CoverageReport,
    ReliabilityReport,
    coverage_arrays,
    laplace_interval,
    match_vertex_pairs,
    reliability,
)
from .synth import (  # noqa: F401
    AgentTrack,
    Condition,
    DatasetConfig,
    Layout,
    NoiseModel,
    Occluder,
    SceneSpec,
    SyntheticDataset,
    build_dataset,
    generate_records,
    generate_scene,
    observe,
    predict_blind,
    predict_weighted,
)
