"""The large-k workload's fresh interpreter: ``simulate_ensemble`` in-process.

Usage: ``python perfbench/largek.py --seed S --seconds T --mode M``
with ``PYTHONPATH=src``.  Prints one JSON line ``{"event": "ready"}``
once the first call (outside the timed set) has returned, then, unless
``--mode setup``, one ``{"event": "done", ...}`` line with every timed
call's wall time and result fingerprint, and each cycle's wall time.

* ``--mode timed`` warms each stratum once, then runs whole cycles (one
  call per k in ``workloads.LARGE_K``, shuffled by the seed) until
  ``--seconds`` have passed, so every stratum gets the same count.
* ``--mode traced`` installs the span wrappers and runs exactly one
  cycle after the warm-up, so span counts repeat for a given seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import tracer
import workloads


def fingerprint(result) -> list:
    """The fields the output check compares, as plain JSON values."""
    trace = result.trace
    return [
        [int(w) for w in result.winners],
        [int(r) for r in result.rounds],
        [bool(c) for c in result.converged],
        None if trace is None else trace.digest(),
    ]


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def cycle(seed: int, number: int, base: int) -> list[int]:
    """Spec indices of one cycle: one per stratum, in a seeded order."""
    strata = len(workloads.LARGE_K)
    indices = [base + number * strata + s for s in range(strata)]
    random.Random(f"{seed}:cycle:{base}:{number}").shuffle(indices)
    return indices


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    args = parser.parse_args()

    from repro.scenario import ScenarioSpec, simulate_ensemble

    def call(index: int):
        spec = ScenarioSpec.from_dict(workloads.large_k_spec(args.seed, index))
        start = time.perf_counter()
        result = simulate_ensemble(spec)
        return time.perf_counter() - start, result

    # The one call outside the timed set, like cold-graph's
    # setup request: the spec at index SETUP_BASE (k = 2^12).
    call(workloads.SETUP_BASE)
    print(json.dumps({"event": "ready"}), flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "traced":
        tracer.install_engine()
    for index in cycle(args.seed, 0, workloads.WARMUP_BASE):
        call(index)

    calls = []
    start = time.perf_counter()
    cycles = []
    while True:
        began = time.perf_counter()
        for index in cycle(args.seed, len(cycles), workloads.TIMED_BASE):
            tracer.set_request(f"t-{index}")
            seconds, result = call(index)
            calls.append(
                {
                    "index": index,
                    "cycle": len(cycles),
                    "seconds": seconds,
                    "plurality_color": int(result.plurality_color),
                    "fingerprint": fingerprint(result),
                }
            )
        cycles.append(time.perf_counter() - began)
        if args.mode == "traced" or time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    tracer.set_request(None)
    tracer.flush()

    # Seeded re-check: one timed call of a small stratum, run again untimed,
    # must give the same bits.
    small = [c for c in calls if workloads.large_k_spec(args.seed, c["index"])["k"] <= 2**12]
    again = random.Random(f"{args.seed}:recheck").choice(small)
    _, result = call(again["index"])
    print(
        json.dumps(
            {
                "event": "done",
                "wall": wall,
                "cycles": cycles,
                "calls": calls,
                "recheck": fingerprint(result) == again["fingerprint"],
                "peak_rss_mb": peak_rss_mb(),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
