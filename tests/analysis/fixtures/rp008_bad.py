"""RP008 fixture: batch paths building per-entity objects (five flagged)."""

from repro.data import EventSequence, collate


def run_dataset(dataset, chunks):
    sequences = dataset.sequences
    for chunk in chunks:
        yield collate([sequences[i] for i in chunk], dataset.schema)


def starts(dataset, rows):
    return dataset.offsets[rows], dataset.columns["event_time"]


def view(seq, start, stop, data):
    part = EventSequence(seq.seq_id, {"t": seq.fields["t"][start:stop]})
    return part, data.EventSequence(seq.seq_id, {})
