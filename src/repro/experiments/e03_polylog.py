"""E3 — Corollaries 2 & 3: logarithmic time under a constant-fraction plurality.

Paper claim
-----------
Corollary 3: if ``c1 >= n/β`` for a constant β > 1 and
``s >= 72 sqrt(2 β n log n)``, 3-majority converges in ``O(log n)`` rounds
w.h.p. (Corollary 2 generalises β to polylog(n) with a matching extra log
factor.)

Measurement
-----------
Fix β and sweep ``n`` over decades with the corollary-shaped bias
(constant 1).  The initial configuration gives the plurality ``n/β`` agents
and splits the rest evenly over ``k-1`` rivals.  We fit
``rounds ≈ a log n`` and report per-point ratios; the reproduced shape is
a flat ratio column (time ∝ log n) with win rate 1.0, independent of k.
"""

from __future__ import annotations

import math

from ..analysis.fitting import linear_fit_through_predictor
from ..scenario import ScenarioSpec
from ..core.workloads import corollary3_start
from .harness import ExperimentSpec, sweep
from .results import ResultTable

_SCALE = {
    "smoke": dict(ns=[5_000, 20_000], beta=3.0, k=20, replicas=8, max_rounds=2_000),
    "small": dict(
        ns=[10_000, 30_000, 100_000, 300_000], beta=3.0, k=50, replicas=16, max_rounds=5_000
    ),
    "paper": dict(
        ns=[10_000, 100_000, 1_000_000, 10_000_000], beta=3.0, k=100, replicas=32, max_rounds=10_000
    ),
}


# The configuration builder moved to the registered "corollary3" workload;
# this alias keeps the experiment's historical import path working.
corollary3_config = corollary3_start


def run(scale: str, seed: int) -> ResultTable:
    cfg = _SCALE[scale]
    table = ResultTable(
        title="E3: logarithmic convergence under c1 >= n/β (Corollary 3)",
        columns=[
            "n",
            "k",
            "beta",
            "c1_fraction",
            "bias",
            "replicas",
            "win_rate",
            "median_rounds",
            "log_n",
            "rounds_per_logn",
        ],
    )
    def build(params):
        return ScenarioSpec(
            dynamics="3-majority",
            initial="corollary3",
            initial_params={"beta": cfg["beta"]},
            n=params["n"],
            k=cfg["k"],
        )

    points = [{"n": n} for n in cfg["ns"]]
    medians: list[float] = []
    logs: list[float] = []
    for point in sweep(
        points,
        build,
        replicas=cfg["replicas"],
        max_rounds=cfg["max_rounds"],
        seed=seed,
        experiment_id="E3",
    ):
        n = int(point.params["n"])
        config = corollary3_config(n, cfg["k"], cfg["beta"])
        summary = point.ensemble.rounds_summary()
        log_n = math.log(n)
        table.add_row(
            n=n,
            k=cfg["k"],
            beta=cfg["beta"],
            c1_fraction=config.plurality_count / n,
            bias=config.bias,
            replicas=point.ensemble.replicas,
            win_rate=point.ensemble.plurality_win_rate,
            median_rounds=summary["median"],
            log_n=round(log_n, 2),
            rounds_per_logn=summary["median"] / log_n,
        )
        if not math.isnan(summary["median"]):
            medians.append(summary["median"])
            logs.append(log_n)

    if len(medians) >= 2:
        fit = linear_fit_through_predictor(logs, medians)
        table.add_note(
            f"rounds ≈ {fit.coefficient:.3f}·log(n) (R²={fit.r_squared:.3f}) — "
            "Corollary 3 predicts a flat rounds_per_logn column"
        )
    return table


SPEC = ExperimentSpec(
    id="E3",
    title="Logarithmic time for constant-fraction plurality (Corollaries 2-3)",
    claim=(
        "When c1 >= n/β for constant β and s >= c·sqrt(2β n log n), 3-majority "
        "converges in O(log n) rounds w.h.p., for any k."
    ),
    run=run,
    tags=("upper-bound", "polylog"),
)
