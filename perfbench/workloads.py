"""Seeded inputs for the two workloads.

Every spec is a pure function of ``(workload seed, index)``, generated
here from the standard library alone: the program under test only ever
receives the resulting JSON.  Each workload keeps a fixed *shape* (the
mix of dynamics, sizes and recording) and lets the seed vary only the
values inside it, so runs with different seeds measure the same work.

Index ranges keep phases apart: a spec's ``seed`` field is unique per
``(workload seed, index)``, so no two requests of one run share a cache
key unless the workload sends a duplicate on purpose.
"""

from __future__ import annotations

import random

STOP_AT_090 = {"rule": "plurality-fraction", "fraction": 0.9}
RECORD = {"metrics": ["bias", "plurality-fraction"], "every": 1}

#: First index of each phase (setup launches, warm-up, timed, traced).
SETUP_BASE = 9_000_000
WARMUP_BASE = 0
TIMED_BASE = 100_000
TRACED_BASE = 5_000_000

#: One cold-graph spec in this many is sent twice, concurrently.
DUPLICATE_EVERY = 6

#: large-k strata: one call per k in each cycle; the median falls in the
#: middle stratum (k = 2^13).
LARGE_K = [2**10, 2**11, 2**12, 2**13, 2**14, 2**15, 2**16]
LARGE_N = 1_000_000
LARGE_REPLICAS = 2


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _spec_seed(seed: int, index: int) -> int:
    return seed * 100_000_000 + index


def graph_spec(seed: int, index: int) -> dict:
    """3-majority on a random 8-regular graph of ~1000 nodes, R=4.

    Every other pair of indices is recorded, so the trace recorder and
    the cache's larger writes are in every stretch of the stream.

    At n~2000 the graph generator's time per seed is spread wide enough that
    the median of a 12 s run (~90 replies) moved by a fifth between seeds;
    at n~1000 builds are tighter and twice as many replies fit in a run,
    while the two builds per miss (~30 ms each on a 2-vCPU host) still
    dwarf the engine run (~2 ms).
    """
    rng = _rng(seed, index)
    spec = {
        "dynamics": "3-majority",
        "n": 2 * rng.randint(490, 510),
        "k": rng.randint(3, 8),
        "initial": "paper-biased",
        "replicas": 4,
        "max_rounds": 800,
        "stopping": STOP_AT_090,
        "topology": "random-regular",
        "topology_params": {"d": 8, "seed": _spec_seed(seed, index)},
        "seed": _spec_seed(seed, index),
    }
    if (index // 2) % 2 == 0:
        spec["record"] = RECORD
    return spec


def large_k_spec(seed: int, index: int) -> dict:
    """3-majority from the paper's biased start, run to consensus.

    ``index % len(LARGE_K)`` picks the stratum; the sparse layout is what
    ``engine: auto`` chooses at these k.
    """
    return {
        "dynamics": "3-majority",
        "n": LARGE_N,
        "k": LARGE_K[index % len(LARGE_K)],
        "initial": "paper-biased",
        "replicas": LARGE_REPLICAS,
        "max_rounds": 100_000,
        "seed": _spec_seed(seed, index),
    }


def setup_spec(seed: int, launch: int) -> dict:
    """The one request each fresh launch answers before the timed phase:
    3-majority on a small clique (n 1k-5k, k 3-16, R=4)."""
    index = SETUP_BASE + launch
    rng = _rng(seed, index)
    return {
        "dynamics": "3-majority",
        "n": rng.randint(1000, 5000),
        "k": rng.randint(3, 16),
        "initial": "paper-biased",
        "replicas": 4,
        "max_rounds": 800,
        "stopping": STOP_AT_090,
        "seed": _spec_seed(seed, index),
    }


def cold_stream(base: int):
    """Unique spec indices from ``base`` on; one in six sent twice.

    Yields ``(index, copies)``; ``copies == 2`` asks the load generator to
    send the same body on two connections at once, so the service
    coalesces the pair.
    """
    index = base
    while True:
        yield index, 2 if (index - base) % DUPLICATE_EVERY == DUPLICATE_EVERY - 1 else 1
        index += 1
