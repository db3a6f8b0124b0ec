"""Distributed ReliefF-style feature weighting over partitioned datasets.

The public surface: domain types and diff math (`model`), the partitioned
execution engine (`engine`), the TCP cluster backend (`cluster`), dataset
loading and synthesis (`ingest`, `synth`), the parallel pipeline
(`pipeline`), its sequential oracle (`reference`), and the experiment
harness (`bench`).

Names resolve on first use (PEP 562), so `import direlieff` loads no numpy
and `from direlieff import rank` loads only the modules `rank` needs.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "engine": ("EmptyDatasetError", "EngineConfig", "EngineError", "LocalEngine", "PartitionedDataset"),
    "ingest": ("DatasetSource", "IngestError", "infer_schema", "load"),
    "model": (
        "ClassPriors", "DiffConfig", "DiffMode", "FeatureKind", "FeatureMeta", "FeatureRange",
        "Instance", "InstanceBlock", "ModelError", "RankConfig", "Schema", "WeightVector",
        "diff", "feature_diffs", "rank_features",
    ),
    "pipeline": ("RankResult", "rank", "read_weights_csv", "write_weights_csv"),
    "reference": ("relieff_sequential",),
    "synth": ("SynthSpec", "gen_synthetic", "make_dataset"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
