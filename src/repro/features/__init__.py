"""Feature subsystem: the paper's 387 features, naming and dataset containers."""

from .dataset import DesignDataset, SuiteDataset
from .extractor import extract_features
from .names import (
    CONGESTION_KINDS,
    FEATURE_METAL_LAYERS,
    FEATURE_VIA_LAYERS,
    NUM_FEATURES,
    PLACEMENT_STEMS,
    describe_feature,
    feature_index,
    feature_names,
)

__all__ = [
    "DesignDataset",
    "SuiteDataset",
    "extract_features",
    "CONGESTION_KINDS",
    "FEATURE_METAL_LAYERS",
    "FEATURE_VIA_LAYERS",
    "NUM_FEATURES",
    "PLACEMENT_STEMS",
    "describe_feature",
    "feature_index",
    "feature_names",
]
