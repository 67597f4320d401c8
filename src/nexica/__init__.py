"""Event-based causal discovery between road-sensor speed time series.

The library turns per-station speed series into binary slowdown events,
estimates per-pair causal probabilities with a closed-form constrained
maximum-likelihood estimator, labels candidate pairs against
rule-derived ground truth, and evaluates an ensemble classifier over the
correspondence-count features.
"""

from .correspond import CorrespondenceCounts, count_correspondences, count_from_indices
from .classify import (
    ForestModel,
    RocResult,
    cross_validate,
    feature_ablation,
    predict_proba,
    roc_auc,
    train_forest,
)
from .errors import NexicaError
from .events import (
    EventSeries,
    detect_slowdowns,
    extract_events,
    leading_edges,
    median_week_profile,
)
from .groundtruth import (
    DatasetSpec,
    GroundTruth,
    GroundTruthDataset,
    LabeledPairs,
    build_dataset,
    full_dataset,
    label_pairs,
)
from .ingest import (
    DriveTimeMatrix,
    SpeedSeries,
    StationMeta,
    completeness,
    filter_stations,
    load_drive_times,
    load_speed_csv,
    load_station_meta,
    write_speed_csv,
)
from .mle import (
    CausalCase,
    CausalEstimate,
    estimate,
    estimate_many,
    log_likelihood,
    pair_probabilities,
)
from .pipeline import RunConfig, SweepTable, grid_search, report, run_pipeline, sweep
from .synth import SynthSpec, generate_event_pair, generate_network

__version__ = "0.1.0"

__all__ = [
    "CausalCase",
    "CausalEstimate",
    "CorrespondenceCounts",
    "DatasetSpec",
    "DriveTimeMatrix",
    "EventSeries",
    "ForestModel",
    "GroundTruth",
    "GroundTruthDataset",
    "LabeledPairs",
    "NexicaError",
    "RocResult",
    "RunConfig",
    "SpeedSeries",
    "StationMeta",
    "SweepTable",
    "SynthSpec",
    "build_dataset",
    "completeness",
    "count_correspondences",
    "count_from_indices",
    "cross_validate",
    "detect_slowdowns",
    "estimate",
    "estimate_many",
    "extract_events",
    "feature_ablation",
    "filter_stations",
    "full_dataset",
    "generate_event_pair",
    "generate_network",
    "grid_search",
    "label_pairs",
    "leading_edges",
    "load_drive_times",
    "load_speed_csv",
    "load_station_meta",
    "log_likelihood",
    "median_week_profile",
    "pair_probabilities",
    "predict_proba",
    "report",
    "roc_auc",
    "run_pipeline",
    "sweep",
    "train_forest",
    "write_speed_csv",
]
