"""Oracle: the cache manager's hits are what the textbook models predict.

With equal-sized pages and one directory, an LRU cache of ``C`` pages hits
an access exactly when its Mattson reuse distance -- the number of
distinct other pages touched since the previous access to the same page
-- is below ``C`` (Mattson et al., 1970: LRU is a stack algorithm).  FIFO
is not a stack algorithm, so its twin is a plain queue model: a miss
appends the page and, when full, drops the oldest resident; a hit changes
nothing.

Both are checked per access through :meth:`LocalCacheManager.read`, at
``eviction_batch`` 8 (the default) and 1, on Hypothesis-drawn traces and
on a Pareto and a Zipf trace at six capacities.  Golden files only say
"nothing changed"; this says the answer is right.
"""

from collections import OrderedDict, deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CacheConfig, CacheDirectory, LocalCacheManager
from repro.ports.rng import RngStream
from repro.storage.remote import SyntheticDataSource
from repro.workload.zipf import ZipfSampler

PAGE = 64
FILE = "warehouse/t/part-0"
BATCHES = (8, 1)
CAPACITIES = (16, 50, 64, 200, 256, 600)


def lru_oracle(trace: list[int], capacity: int) -> list[bool]:
    """Per access: is its Mattson reuse distance below ``capacity``?"""
    stack: OrderedDict[int, None] = OrderedDict()  # last entry = most recent
    hits = []
    for page in trace:
        if page in stack:
            # distinct pages touched since this one's last access
            distance = len(stack) - 1 - list(stack).index(page)
            hits.append(distance < capacity)
            stack.move_to_end(page)
        else:
            hits.append(False)
            stack[page] = None
    return hits


def fifo_oracle(trace: list[int], capacity: int) -> list[bool]:
    queue: deque[int] = deque()
    resident: set[int] = set()
    hits = []
    for page in trace:
        hits.append(page in resident)
        if page not in resident:
            if len(queue) == capacity:
                resident.discard(queue.popleft())
            queue.append(page)
            resident.add(page)
    return hits


def cache_hits(
    trace: list[int], capacity: int, policy: str, batch: int
) -> list[bool]:
    """Per access: did a one-page ``LocalCacheManager.read`` hit?"""
    n_pages = max(trace, default=0) + 1
    source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
    source.add_file(FILE, n_pages * PAGE)
    cache = LocalCacheManager(
        CacheConfig(
            page_size=PAGE,
            directories=[CacheDirectory("/cache/dir0", capacity * PAGE)],
            eviction_policy=policy,
            eviction_batch=batch,
        )
    )
    hits = []
    for page in trace:
        result = cache.read(FILE, page * PAGE, PAGE, source)
        assert result.page_hits + result.page_misses == 1
        hits.append(result.page_hits == 1)
    return hits


ORACLES = {"lru": lru_oracle, "fifo": fifo_oracle}


def pareto_trace(n_pages: int, length: int) -> list[int]:
    draws = RngStream(7, "oracle/pareto").rng.pareto(1.2, length)
    return [int(x) % n_pages for x in np.floor(draws * 10)]


def zipf_trace(n_pages: int, length: int) -> list[int]:
    sampler = ZipfSampler(n_pages, 0.7, RngStream(7, "oracle/zipf"))
    return [int(rank) for rank in sampler.sample(length)]


TRACES = {
    "pareto400": lambda: pareto_trace(400, 3000),
    "zipf1000": lambda: zipf_trace(1000, 3000),
}


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("policy", sorted(ORACLES))
def test_skewed_traces_match_the_oracle(policy, trace_name, capacity, batch):
    trace = TRACES[trace_name]()
    expected = ORACLES[policy](trace, capacity)
    assert 0 < sum(expected) < len(trace)  # both hits and misses occur
    assert cache_hits(trace, capacity, policy, batch) == expected


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=st.lists(st.integers(min_value=0, max_value=40), max_size=200),
    capacity=st.integers(min_value=1, max_value=30),
    policy=st.sampled_from(sorted(ORACLES)),
    batch=st.sampled_from(BATCHES),
)
def test_every_access_matches_the_oracle(trace, capacity, policy, batch):
    assert cache_hits(trace, capacity, policy, batch) == ORACLES[policy](
        trace, capacity
    )
