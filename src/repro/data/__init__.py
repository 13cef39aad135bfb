"""Event-sequence data layer: schemas, sequences, batches, splits, worlds."""

from . import synthetic
from .batches import PaddedBatch, collate, iterate_batches
from .bucketing import (
    bucketed_order,
    iterate_bucketed_batches,
    padded_step_fraction,
    plan_batches,
    plan_cell_batches,
)
from .schema import PADDING_CODE, EventSchema
from .sequences import EventSequence, SequenceDataset
from .split import stratified_kfold, subsample_labels, train_test_split

__all__ = [
    "EventSchema",
    "PADDING_CODE",
    "EventSequence",
    "SequenceDataset",
    "PaddedBatch",
    "collate",
    "iterate_batches",
    "plan_batches",
    "plan_cell_batches",
    "bucketed_order",
    "iterate_bucketed_batches",
    "padded_step_fraction",
    "train_test_split",
    "stratified_kfold",
    "subsample_labels",
    "synthetic",
]
