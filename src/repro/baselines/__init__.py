"""Baselines: hand-crafted features and self-supervised alternatives
(Section 4.1), plus the supervised/fine-tuning classifier (Phase 2b)."""

from .cpc import CPC
from .handcrafted import FeatureMatrix, handcrafted_features
from .pair_tasks import NSP, SOP
from .pretrain_common import PretrainConfig, random_slice_pair, truncate_tail
from .rtd import RTD, corrupt_batch
from .supervised import FineTuneConfig, SequenceClassifier

__all__ = [
    "handcrafted_features",
    "FeatureMatrix",
    "SequenceClassifier",
    "FineTuneConfig",
    "PretrainConfig",
    "truncate_tail",
    "random_slice_pair",
    "CPC",
    "NSP",
    "SOP",
    "RTD",
    "corrupt_batch",
]
