"""Fixtures shared by the test modules."""

import pytest

from qgames import search


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run ``search_space``'s pool in this process; the list of each pool's ``max_workers``.

    The stand-in starts no process, so a test may ask for any worker count.
    """
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
    return sizes
