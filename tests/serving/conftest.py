"""Shared serving-test fixtures: no test may leave a flusher thread running."""

import threading

import pytest

FLUSHER = "repro-ingest-flusher"  # AsyncIngestPipeline's thread name


def _flushers():
    return [thread for thread in threading.enumerate()
            if thread.name == FLUSHER]


@pytest.fixture(autouse=True)
def no_leaked_flusher():
    """Fail a test whose AsyncIngestPipeline flusher outlives it.

    Flushers that were already running when the test started belong to
    an earlier test, which this fixture has already failed.
    """
    before = set(_flushers())
    yield
    leaked = [thread for thread in _flushers() if thread not in before]
    for thread in leaked:
        thread.join(2.0)
    alive = [thread for thread in leaked if thread.is_alive()]
    if alive:
        pytest.fail("%d %s thread(s) still running after the test: close() "
                    "every AsyncIngestPipeline" % (len(alive), FLUSHER))
