"""Feature-modulated mutually exciting intensity models for conversation
cascades, with simulation, estimation, and feed-ranking evaluation."""

from .core import (
    Cascade,
    Event,
    IntensityState,
    JumpTable,
    ModelParams,
    candidate_cascades,
    corpus_participants,
    intensity,
    separate_ties,
)
from .errors import ConfigError, DataFormatError, EstimationError, HawkesFeedError
from .features import (
    FeatureStore,
    Lexicon,
    annotate_corpus,
    build_feature_store,
    demo_lexicon,
    extract_features,
    feature_set_masks,
    normalize_store,
)
from .fit import CVResult, FitConfig, FitResult, cross_validate, fit
from .likelihood import (
    corpus_log_likelihood,
    gradient,
    objective,
)
from .rank_eval import (
    RANKER_NAMES,
    GroupMetrics,
    IntensityRanker,
    RankReport,
    evaluate,
    evaluate_group,
    make_ranker,
    mean_activity,
    prioritize,
)
from .simulate import (
    SimConfig,
    branching_ratio,
    random_sim_config,
    simulate_cascade,
    simulate_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "Cascade",
    "ConfigError",
    "CVResult",
    "DataFormatError",
    "EstimationError",
    "Event",
    "FeatureStore",
    "FitConfig",
    "FitResult",
    "GroupMetrics",
    "HawkesFeedError",
    "IntensityRanker",
    "IntensityState",
    "JumpTable",
    "Lexicon",
    "ModelParams",
    "RankReport",
    "RANKER_NAMES",
    "SimConfig",
    "annotate_corpus",
    "branching_ratio",
    "build_feature_store",
    "candidate_cascades",
    "corpus_log_likelihood",
    "corpus_participants",
    "cross_validate",
    "demo_lexicon",
    "evaluate",
    "evaluate_group",
    "extract_features",
    "feature_set_masks",
    "fit",
    "gradient",
    "intensity",
    "make_ranker",
    "mean_activity",
    "normalize_store",
    "objective",
    "prioritize",
    "random_sim_config",
    "separate_ties",
    "simulate_cascade",
    "simulate_corpus",
]
