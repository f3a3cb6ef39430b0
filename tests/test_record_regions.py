"""The record book's region column after whole tunes.

Every configuration the tournament played must carry the id of the region
:func:`~repro.space.regions.partition_range` put it in; every configuration
it never played keeps the ``-1`` sentinel.
"""

import numpy as np
import pytest

import repro.core.tournament as tournament
from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.records import RecordBook
from repro.space.regions import partition_range, region_of


@pytest.fixture(scope="module")
def app():
    return make_application("gromacs", scale="test")


def tune_with_book(monkeypatch, app, cfg, index_range=None):
    """Run one tune and return its result and the record book it filled."""
    books = []

    class RecordingBook(RecordBook):
        def __init__(self, size):
            super().__init__(size)
            books.append(self)

    monkeypatch.setattr(tournament, "RecordBook", RecordingBook)
    env = CloudEnvironment(seed=4)
    result = tournament.DarwinGame(cfg).tune(app, env, index_range=index_range)
    (book,) = books
    return result, book


@pytest.mark.parametrize(
    "interleaved, index_range",
    [(True, None), (False, None), (True, (200, 840))],
    ids=["interleaved", "contiguous", "index-range"],
)
def test_region_column_matches_partition(monkeypatch, app, interleaved,
                                         index_range):
    cfg = DarwinGameConfig(seed=9, interleaved_regions=interleaved)
    result, book = tune_with_book(monkeypatch, app, cfg, index_range)
    start, stop = index_range or (0, app.space.size)
    regions = partition_range(
        start, stop, result.details["regional"]["regions"],
        interleaved=interleaved,
    )
    assert len(regions) > 1
    assert book.size == app.space.size

    played = np.flatnonzero(book.games > 0)
    assert played.size > len(regions)
    assert ((played >= start) & (played < stop)).all()
    expected = [region_of(regions, int(i)).region_id for i in played]
    assert book.region_id[played].tolist() == expected
    assert (book.region_id[book.games == 0] == -1).all()
    # Several regions are represented, so the check is not vacuous.
    assert len(set(expected)) > 1
