"""RP008 fixture: batch paths that ask the dataset and gather by rows."""

import numpy as np

from repro.data import EventSequence, collate


def run_dataset(dataset, chunks):
    for chunk in chunks:
        yield collate(dataset, rows=chunk)


def views(dataset, rows, strategy, rng):
    lengths = dataset.lengths()[rows]
    positions = [strategy.sample(int(length), rng) for length in lengths]
    return dataset.ids[rows], dataset.labels[rows], positions


def is_chunk(events):
    return isinstance(events, EventSequence)


def table(frame):
    frame.columns = np.zeros(3)
    return frame
