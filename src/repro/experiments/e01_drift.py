"""E1 — Lemma 1 & Lemma 2: exact one-round expectations and bias drift.

Paper claim
-----------
Lemma 1: after one 3-majority round the expected count of color ``j`` is
``mu_j(c) = c_j (1 + (n c_j - sum_h c_h^2)/n^2)`` exactly.  Lemma 2: the
expected bias satisfies ``mu_1 - mu_j >= s (1 + (c1/n)(1 - c1/n))`` for
every non-plurality color.

Measurement
-----------
For a family of configurations (paper-biased, geometric-tail, random,
near-balanced) we run one-round replica ensembles through the standard
runner with a declarative ``record=["counts"]`` trace (the metric layer
of :mod:`repro.core.metrics` — no bespoke stepping loop), compare the
empirical mean count vector against Lemma 1 (reporting the max deviation
in units of the per-color CLT standard error) and the empirical mean bias
against Lemma 2's lower bound.  Agreement within a few standard errors at
every point reproduces both lemmas.
"""

from __future__ import annotations

import numpy as np

from ..analysis.expectations import expected_next_bias_lower_bound, expected_next_counts
from ..analysis.streaming import trace_moments
from ..core.config import Configuration
from ..core.majority import ThreeMajority
from ..core.process import run_ensemble
from ..core.rng import derive_seed
from ..core.workloads import geometric_tail, paper_biased
from .harness import ExperimentSpec
from .results import ResultTable

_SCALE = {
    "smoke": dict(ns=[2_000], replicas=400),
    "small": dict(ns=[2_000, 20_000], replicas=2_000),
    "paper": dict(ns=[2_000, 20_000, 200_000], replicas=10_000),
}


def _workloads(n: int, rng: np.random.Generator) -> list[tuple[str, Configuration]]:
    return [
        ("paper-biased", paper_biased(n, 8)),
        ("geometric", geometric_tail(n, 12, ratio=0.75)),
        ("random", Configuration.random(n, 10, rng)),
        ("near-balanced", Configuration.biased(n, 6, max(2, n // 100))),
    ]


def run(scale: str, seed: int) -> ResultTable:
    cfg = _SCALE[scale]
    table = ResultTable(
        title="E1: one-round drift vs Lemma 1 / Lemma 2",
        columns=[
            "n",
            "workload",
            "k",
            "replicas",
            "max_dev_stderr",  # max_j |mean_j - mu_j| / stderr_j
            "mean_bias_next",
            "lemma2_bound",
            "drift_ok",
        ],
    )
    dyn = ThreeMajority()
    for n in cfg["ns"]:
        setup_rng = np.random.default_rng(derive_seed(seed, "e01-setup", n))
        for name, config in _workloads(n, setup_rng):
            rng = np.random.default_rng(derive_seed(seed, "e01", n, name))
            counts = config.counts
            R = cfg["replicas"]
            # One recorded round per replica: the ensemble runner draws the
            # same batched multinomial the old bespoke step_many loop did
            # (bit-identical at equal seed), and the counts trace is the
            # one-round sample.
            ens = run_ensemble(
                dyn, config, R, max_rounds=1, record=["counts"], rng=rng
            )
            nxt = ens.trace["counts"][:, 1, :]

            mu = expected_next_counts(counts)
            law = mu / n
            stderr = np.sqrt(np.maximum(n * law * (1 - law), 1e-9) / R)
            mean_counts = trace_moments(ens.trace, "counts", round_index=1).mean
            max_dev = float(np.max(np.abs(mean_counts - mu) / stderr))

            # Bias drift: empirical mean of (top-initial-color minus each
            # rival), compared against Lemma 2's bound on mu_1 - mu_j.
            plur = int(np.argmax(counts))
            rivals = [j for j in range(counts.size) if j != plur]
            per_rival = nxt[:, plur][:, None] - nxt[:, rivals]
            mean_bias_next = float(per_rival.mean(axis=0).min())
            bound = expected_next_bias_lower_bound(counts)
            # CLT slack: three stderr units of the bias difference.
            slack = 3.0 * float(np.sqrt((nxt[:, plur].var() + nxt[:, rivals].var(axis=0).max()) / R))
            table.add_row(
                n=n,
                workload=name,
                k=config.k,
                replicas=R,
                max_dev_stderr=max_dev,
                mean_bias_next=mean_bias_next,
                lemma2_bound=bound,
                drift_ok=mean_bias_next >= bound - slack,
            )
    table.add_note("max_dev_stderr ~ N(0,1) order statistics; values < ~5 confirm Lemma 1")
    table.add_note("drift_ok: empirical E[C1 - Cj] >= Lemma 2 bound (minus 3 CLT stderr)")
    return table


SPEC = ExperimentSpec(
    id="E1",
    title="One-round drift (Lemma 1 & Lemma 2)",
    claim=(
        "The expected next configuration follows mu_j = c_j(1 + (n c_j - sum c_h^2)/n^2) "
        "exactly, and the expected bias grows by at least the factor 1 + (c1/n)(1 - c1/n)."
    ),
    run=run,
    tags=("expectation", "drift"),
)
