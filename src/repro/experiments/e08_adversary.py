"""E8 — Corollary 4: self-stabilisation against F-bounded adversaries.

Paper claim
-----------
With ``c1 >= n/λ`` and bias ``s >= c sqrt(2 λ n log n)``, the 3-majority
dynamics achieves ``O(s/λ)``-plurality consensus in ``O(λ log n)`` rounds
against *any* F-bounded dynamic adversary with ``F = o(s/λ)`` — i.e. all
but ``O(s/λ)`` agents adopt the plurality and stay there for poly(n)
rounds.  With ``F >= M`` no M-plurality consensus is possible.

Measurement
-----------
Against the worst-case :class:`TargetedAdversary` (moves F plurality
supporters to the runner-up each round — exactly the strategy the
corollary's proof has to beat) we sweep ``F`` as a multiple of ``s/λ``.
All replicas of a sweep point advance in lock-step through the exact
counts-level engine (one batched multinomial per round) and one batched
``corrupt_many`` call — no Python-level loop over replicas.  Each replica
runs for a ``C·λ log n`` budget plus a holding window; we record whether
the initial plurality survived as the top color, the minority mass at the
end of the budget (the achieved M), and whether the almost-stable phase
held through the window.  The reproduced shape: for ``F`` well below
``s/λ`` the process stabilises with minority mass O(F); as ``F``
approaches and passes ``s/λ`` stabilisation degrades and fails.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.bounds import lambda_for
from ..core.adversary import TargetedAdversary
from ..core.majority import ThreeMajority
from ..core.rng import derive_seed
from ..core.workloads import paper_biased, theorem1_bias
from .harness import ExperimentSpec
from .results import ResultTable

_SCALE = {
    "smoke": dict(n=10_000, k=8, fractions=[0.0, 0.2, 1.0], replicas=4, budget_mult=4.0, hold=30),
    "small": dict(
        n=100_000,
        k=8,
        fractions=[0.0, 0.05, 0.2, 0.5, 1.0, 2.0],
        replicas=8,
        budget_mult=4.0,
        hold=100,
    ),
    "paper": dict(
        n=1_000_000,
        k=16,
        fractions=[0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 4.0],
        replicas=16,
        budget_mult=4.0,
        hold=300,
    ),
}


def run(scale: str, seed: int) -> ResultTable:
    cfg = _SCALE[scale]
    n, k = cfg["n"], cfg["k"]
    lam = lambda_for(n, k)
    s = theorem1_bias(n, k)
    s_over_lambda = s / lam
    budget_rounds = int(cfg["budget_mult"] * lam * math.log(n))
    config = paper_biased(n, k)

    table = ResultTable(
        title="E8: 3-majority vs F-bounded dynamic adversary (Corollary 4)",
        columns=[
            "n",
            "k",
            "F",
            "F_over_s_lambda",
            "replicas",
            "plurality_survived_rate",
            "median_final_minority",
            "minority_over_s_lambda",
            "held_window_rate",
            "budget_rounds",
        ],
    )
    dyn = ThreeMajority()
    replicas = cfg["replicas"]
    plurality_color = int(np.argmax(config.counts))
    total_rounds = budget_rounds + cfg["hold"]
    for frac in cfg["fractions"]:
        F = int(round(frac * s_over_lambda))
        rng = np.random.default_rng(derive_seed(seed, "E8", F))
        adversary = TargetedAdversary(F) if F > 0 else None
        # All replicas advance in lock-step: one batched multinomial step and
        # one batched corruption per round, with an O(R) top-count snapshot.
        states = np.tile(config.counts, (replicas, 1))
        top_hist = np.empty((total_rounds + 1, replicas), dtype=np.int64)
        top_hist[0] = states.max(axis=1)
        for t in range(1, total_rounds + 1):
            states = dyn.step_many(states, rng)
            if adversary is not None:
                states = adversary.corrupt_many(states, rng)
            top_hist[t] = states.max(axis=1)
        # Per-replica outcomes over the holding window after the budget.
        window = top_hist[min(budget_rounds, total_rounds) :]  # (W, R)
        minorities = (n - window[-1]).astype(np.int64)
        survived = int(np.sum(np.argmax(states, axis=1) == plurality_color))
        # Held: every round of the window keeps minority mass <= max(4F, s/λ).
        threshold = max(4 * F, s_over_lambda)
        held = int(np.sum(np.all(n - window <= threshold, axis=0)))
        table.add_row(
            n=n,
            k=k,
            F=F,
            F_over_s_lambda=frac,
            replicas=replicas,
            plurality_survived_rate=survived / replicas,
            median_final_minority=float(np.median(minorities)),
            minority_over_s_lambda=float(np.median(minorities)) / s_over_lambda,
            held_window_rate=held / replicas,
            budget_rounds=budget_rounds,
        )
    table.add_note(
        f"s = {s}, λ = {lam:.1f}, s/λ = {s_over_lambda:.0f}; Corollary 4 needs F = o(s/λ) "
        "and promises minority mass O(s/λ) held for poly(n) rounds"
    )
    return table


SPEC = ExperimentSpec(
    id="E8",
    title="Self-stabilising plurality consensus under adversarial corruption (Corollary 4)",
    claim=(
        "Against any F-bounded dynamic adversary with F = o(s/λ), 3-majority reaches and "
        "holds O(s/λ)-plurality consensus within O(λ log n) rounds."
    ),
    run=run,
    tags=("adversary", "self-stabilisation"),
)
