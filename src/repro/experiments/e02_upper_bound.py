"""E2 — Theorem 1 / Corollary 1: convergence in O(min{2k,(n/log n)^{1/3}} log n).

Paper claim
-----------
From any configuration with bias ``s >= c sqrt(2 λ n log n)`` where
``λ = min(2k, (n/log n)^{1/3})``, the 3-majority dynamics reaches plurality
consensus in ``O(λ log n)`` rounds w.h.p.

Measurement
-----------
Two sweeps with the theorem's own bias (shape constant 1; the paper's 72
is a proof artifact):

* fixed ``n``, growing ``k`` — in this regime λ = 2k, so the paper predicts
  time linear in ``k log n``; we fit ``rounds ≈ a · λ log n`` and report
  the per-point ratio, a power-law exponent of rounds vs k, and the
  plurality-win rate (should be 1.0 throughout);
* fixed ``k``, growing ``n`` — λ saturates at 2k, so time should grow like
  ``log n`` only.

The reproduced shape: ratios roughly flat, exponent near 1 in the k-sweep,
and win rate 1.0.
"""

from __future__ import annotations

import math

from ..analysis.bounds import lambda_for, theorem1_rounds
from ..analysis.fitting import linear_fit_through_predictor, power_law_fit
from ..scenario import ScenarioSpec
from ..core.workloads import paper_biased
from .harness import ExperimentSpec, sweep
from .results import ResultTable

_SCALE = {
    "smoke": dict(n_fixed=20_000, ks=[2, 4, 8], k_fixed=4, ns=[10_000, 40_000], replicas=8, max_rounds=4_000),
    "small": dict(
        n_fixed=100_000,
        ks=[2, 4, 8, 16, 32],
        k_fixed=8,
        ns=[10_000, 30_000, 100_000, 300_000],
        replicas=16,
        max_rounds=20_000,
    ),
    "paper": dict(
        n_fixed=1_000_000,
        ks=[2, 4, 8, 16, 32, 64],
        k_fixed=8,
        ns=[10_000, 100_000, 1_000_000, 10_000_000],
        replicas=32,
        max_rounds=100_000,
    ),
}


def run(scale: str, seed: int) -> ResultTable:
    cfg = _SCALE[scale]
    table = ResultTable(
        title="E2: 3-majority convergence time vs Theorem 1's λ log n",
        columns=[
            "sweep",
            "n",
            "k",
            "lambda",
            "bias",
            "replicas",
            "win_rate",
            "median_rounds",
            "p90_rounds",
            "lambda_logn",
            "ratio",
        ],
    )
    def build(params):
        # Declarative build: the sweep resolves the names through the
        # registries and overrides replicas/max_rounds/seed itself.
        return ScenarioSpec(
            dynamics="3-majority",
            initial="paper-biased",
            n=params["n"],
            k=params["k"],
        )

    # Sweep 1: k at fixed n.
    points_k = [{"n": cfg["n_fixed"], "k": k, "sweep": "k"} for k in cfg["ks"]]
    # Sweep 2: n at fixed k.
    points_n = [{"n": n, "k": cfg["k_fixed"], "sweep": "n"} for n in cfg["ns"]]

    medians_k: list[float] = []
    predictors_k: list[float] = []
    for point in sweep(
        points_k + points_n,
        build,
        replicas=cfg["replicas"],
        max_rounds=cfg["max_rounds"],
        seed=seed,
        experiment_id="E2",
    ):
        n, k = int(point.params["n"]), int(point.params["k"])
        lam = lambda_for(n, k)
        pred = theorem1_rounds(n, lam)
        summary = point.ensemble.rounds_summary()
        table.add_row(
            sweep=point.params["sweep"],
            n=n,
            k=k,
            **{"lambda": round(lam, 2)},
            bias=paper_biased(n, k).bias,
            replicas=point.ensemble.replicas,
            win_rate=point.ensemble.plurality_win_rate,
            median_rounds=summary["median"],
            p90_rounds=summary["p90"],
            lambda_logn=round(pred, 1),
            ratio=summary["median"] / pred if pred > 0 else float("nan"),
        )
        if point.params["sweep"] == "k" and not math.isnan(summary["median"]):
            medians_k.append(summary["median"])
            predictors_k.append(pred)

    if len(medians_k) >= 3:
        fit = linear_fit_through_predictor(predictors_k, medians_k)
        pk = power_law_fit([p["k"] for p in points_k][: len(medians_k)], medians_k)
        table.add_note(
            f"k-sweep: rounds ≈ {fit.coefficient:.3f}·λ·log(n) (R²={fit.r_squared:.3f}); "
            f"rounds ~ k^{pk.exponent:.2f} (95% CI {pk.exponent_ci()[0]:.2f}..{pk.exponent_ci()[1]:.2f})"
        )
    table.add_note(
        "Theorem 1 is an upper bound: the `ratio` column must stay bounded above by a "
        "modest constant (measured/predicted <= O(1)) with win_rate = 1.0"
    )
    return table


SPEC = ExperimentSpec(
    id="E2",
    title="Upper bound O(min{2k,(n/log n)^{1/3}} log n) (Theorem 1 / Corollary 1)",
    claim=(
        "With bias >= c·sqrt(2λ n log n), 3-majority converges to the plurality in "
        "O(λ log n) rounds w.h.p., λ = min(2k, (n/log n)^{1/3})."
    ),
    run=run,
    tags=("upper-bound", "scaling"),
)
