"""finimg: image encodings of financial feature vectors and CNN comparisons."""

from .data import (
    Dataset,
    Observation,
    StandardizationParams,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    load_dataset,
    out_of_time_split,
    save_csv,
)
from .encoding import (
    ZERO_PAD,
    ArrangementSpec,
    ImageGrid,
    arrange,
    category_chunk_arrange,
    default_spec,
    hilbert_arrange,
    randomize_arrangement,
    reduce_features,
    sequential_arrange,
)
from .hilbert import HilbertOrder, hilbert_d2xy, hilbert_xy2d, min_order
from .metrics import (
    NotchDistribution,
    PredictionSet,
    accuracy,
    conditional_notch,
    expected_abs_notch,
    notch_frequency,
    precision_recall_f1_binary,
    precision_recall_f1_macro,
)
from .schema import (
    RATING_TO_CLASS,
    FeatureSchema,
    build_schema,
    fundamental_schema,
    load_schema,
    map_rating,
    ratio_schema,
    save_schema,
)
from .stats import (
    RankGrouping,
    SampleSummary,
    one_sample_t_greater,
    pairwise_t_bonferroni,
    summarize,
    t_cdf,
    welch_t_test,
)
from .synthetic import SyntheticSpec, generate_synthetic
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    RunRecord,
    emit_report,
    run_compare,
    run_method,
)

__version__ = "0.1.0"
