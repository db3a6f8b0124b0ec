"""Distributed ReliefF-style feature weighting over partitioned datasets.

The public surface: domain types and diff math (`model`), the partitioned
execution engine (`engine`), the TCP cluster backend (`cluster`), dataset
loading and synthesis (`ingest`, `synth`), the parallel pipeline
(`pipeline`), its sequential oracle (`reference`), and the experiment
harness (`bench`).
"""

__version__ = "0.1.0"

from .engine import (
    EmptyDatasetError,
    EngineConfig,
    EngineError,
    LocalEngine,
    PartitionedDataset,
)
from .ingest import DatasetSource, IngestError, infer_schema, load
from .model import (
    ClassPriors,
    DiffConfig,
    DiffMode,
    FeatureKind,
    FeatureMeta,
    FeatureRange,
    Instance,
    InstanceBlock,
    ModelError,
    RankConfig,
    Schema,
    WeightVector,
    diff,
    feature_diffs,
    rank_features,
)
from .pipeline import RankResult, rank, read_weights_csv, write_weights_csv
from .reference import relieff_sequential
from .synth import SynthSpec, gen_synthetic, make_dataset

__all__ = [
    "__version__",
    "ClassPriors",
    "DatasetSource",
    "DiffConfig",
    "DiffMode",
    "EmptyDatasetError",
    "EngineConfig",
    "EngineError",
    "FeatureKind",
    "FeatureMeta",
    "FeatureRange",
    "IngestError",
    "Instance",
    "InstanceBlock",
    "LocalEngine",
    "ModelError",
    "PartitionedDataset",
    "RankConfig",
    "RankResult",
    "Schema",
    "SynthSpec",
    "WeightVector",
    "diff",
    "feature_diffs",
    "gen_synthetic",
    "infer_schema",
    "load",
    "make_dataset",
    "rank",
    "rank_features",
    "read_weights_csv",
    "relieff_sequential",
    "write_weights_csv",
]
