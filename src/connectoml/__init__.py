"""Complex-network graph features and neural-network ensembles for
classifying brain connectivity matrices (healthy control vs mild cognitive
impairment)."""

from .cohort import LABEL_HC, LABEL_MCI, LabeledCohort
from .connectome import (
    MEASURE_COMMUNICABILITY,
    MEASURE_SHORTEST_PATH,
    MEASURE_WEIGHTS,
    MEASURES,
    ConnectivityMatrix,
    FeatureVector,
    communicability,
    communicability_matrix,
    extract_features,
    feature_length,
    flatten_upper_triangle,
    matrix_exponential_symmetric,
    node_strengths,
    normalized_adjacency,
    shortest_path_lengths,
    shortest_path_matrix,
    unflatten_upper_triangle,
    validate_matrix,
    weight_features,
)
from .dataio import (
    SyntheticCohortConfig,
    export_report,
    generate_synthetic_cohort,
    load_cohort,
    load_report,
)
from .errors import ConnectomlError, NumericalError, ValidationError
from .evaluation import (
    METRIC_NAMES,
    STRATEGIES,
    EvaluationReport,
    FoldMetrics,
    FoldModels,
    aggregate_metrics,
    auc,
    compute_fold_metrics,
    fit_fold,
    mann_whitney_u,
    predict_label,
    run_experiment,
)
from .folds import FoldAssignment, derive_seed, stratified_kfold
from .lbfgs import LbfgsResult, lbfgs_minimize, strong_wolfe_line_search
from .neuralnet import (
    MinMaxNormalizer,
    MlpParameters,
    TrainConfig,
    fit_normalizer,
    flatten_parameters,
    forward,
    init_parameters,
    loss_and_gradient,
    predict_proba,
    train_classifier,
    unflatten_parameters,
)
from .sampling import (
    SamplerConfig,
    apply_sampler,
    instance_hardness_threshold,
    near_miss_3,
    random_undersample,
)

__version__ = "0.1.0"
