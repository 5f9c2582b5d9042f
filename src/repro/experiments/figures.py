"""ASCII figures: the plots a paper would print, from experiment tables.

The original paper has no figures (pure theory); these render the shapes
its theorems describe, so a reader can *see* the scalings.  Each figure
function runs the underlying experiment(s) at the requested scale and
returns a monospace plot.

Figures:

* ``F1`` — E2: 3-majority convergence time vs k, with the λ·log n guide;
* ``F2`` — E4: doubling/consensus time vs k from balanced starts;
* ``F3`` — E6: h-plurality time vs h (log-log) with an h^-2 guide;
* ``F4`` — E7: one-round bias-decrease probability vs α = s/s_crit;
* ``F5`` — E9(c): 3-majority vs undecided-state on gap configurations;
* ``F6`` — a single-run bias trajectory through the three proof phases.
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.majority import ThreeMajority
from ..core.process import run_process
from ..core.workloads import paper_biased
from .plotting import ascii_plot
from .registry import get_experiment

__all__ = ["FIGURES", "figure_ids", "render_figure"]


def _f1_upper_bound(scale: str, seed: int) -> str:
    table = get_experiment("E2")(scale=scale, seed=seed)
    rows = [r for r in table.rows if r["sweep"] == "k"]
    ks = [float(r["k"]) for r in rows]
    measured = [float(r["median_rounds"]) for r in rows]
    predicted = [float(r["lambda_logn"]) * measured[0] / float(rows[0]["lambda_logn"]) for r in rows]
    return ascii_plot(
        {"measured": (ks, measured), "~λ·log n (scaled)": (ks, predicted)},
        logx=True,
        logy=True,
        title="F1 (Theorem 1): 3-majority rounds vs k",
        xlabel="k",
        ylabel="median rounds",
    )


def _f2_lower_bound(scale: str, seed: int) -> str:
    table = get_experiment("E4")(scale=scale, seed=seed)
    ks = [float(r["k"]) for r in table.rows]
    doubling = [float(r["median_doubling_rounds"]) for r in table.rows]
    consensus = [float(r["median_consensus_rounds"]) for r in table.rows]
    floor = [float(r["lemma6_rounds"]) for r in table.rows]
    return ascii_plot(
        {"consensus": (ks, consensus), "doubling": (ks, doubling), "Lemma6 floor": (ks, floor)},
        title="F2 (Theorem 2): rounds vs k from balanced starts",
        xlabel="k",
        ylabel="rounds",
    )


def _f3_hplurality(scale: str, seed: int) -> str:
    table = get_experiment("E6")(scale=scale, seed=seed)
    hs = [float(r["h"]) for r in table.rows]
    measured = [float(r["median_rounds"]) for r in table.rows]
    guide = [measured[0] * (hs[0] / h) ** 2 for h in hs]
    return ascii_plot(
        {"measured": (hs, measured), "h^-2 guide": (hs, guide)},
        logx=True,
        logy=True,
        title="F3 (Theorem 4): h-plurality rounds vs h (speed-up capped at h²)",
        xlabel="h",
        ylabel="median rounds",
    )


def _f4_bias_threshold(scale: str, seed: int) -> str:
    table = get_experiment("E7")(scale=scale, seed=seed)
    series: dict[str, tuple[list[float], list[float]]] = {}
    for row in table.rows:
        key = f"k={row['k']}"
        xs, ys = series.setdefault(key, ([], []))
        xs.append(float(row["alpha"]))
        ys.append(float(row["p_decrease"]))
    return ascii_plot(
        series,
        title="F4 (Lemma 10): P(one-round bias decrease) vs α = s / (√(kn)/6)",
        xlabel="alpha",
        ylabel="P(decrease)",
    )


def _f5_gap(scale: str, seed: int) -> str:
    table = get_experiment("E9")(scale=scale, seed=seed)
    series: dict[str, tuple[list[float], list[float]]] = {}
    for row in table.rows:
        if row["panel"] != "c-gap":
            continue
        n = float(str(row["params"]).split(",")[0].split("=")[1])
        xs, ys = series.setdefault(str(row["dynamics"]), ([], []))
        xs.append(n)
        ys.append(float(row["value"]))
    return ascii_plot(
        series,
        logx=True,
        title="F5 (SODA'15 gap): rounds on two-heavy + thin-tail configurations",
        xlabel="n",
        ylabel="median rounds",
    )


_F6_PARAMS = {"smoke": (20_000, 8), "small": (200_000, 16), "paper": (2_000_000, 32)}


def _f6_trajectory(scale: str, seed: int) -> str:
    n, k = _F6_PARAMS[scale]
    result = run_process(ThreeMajority(), paper_biased(n, k), rng=seed)
    bias_series = result.trace.replica(0, "bias")
    plurality_series = result.trace.replica(0, "plurality-count")
    rounds = list(range(bias_series.size))
    # Clamp to 0.5 so the log axis survives the final extinction round.
    minority = [max(float(n - p), 0.5) for p in plurality_series]
    bias = [max(float(b), 0.5) for b in bias_series]
    return ascii_plot(
        {"bias s(c)": (rounds, bias), "minority mass": (rounds, minority)},
        logy=True,
        title=f"F6 (Lemmas 3-5): one 3-majority run, n={n}, k={k}",
        xlabel="round",
        ylabel="agents",
    )


FIGURES: dict[str, tuple[str, Callable[[str, int], str]]] = {
    "F1": ("Theorem 1 scaling: rounds vs k", _f1_upper_bound),
    "F2": ("Theorem 2 scaling: rounds vs k from balanced starts", _f2_lower_bound),
    "F3": ("Theorem 4 scaling: rounds vs h", _f3_hplurality),
    "F4": ("Lemma 10 threshold: P(bias decrease) vs alpha", _f4_bias_threshold),
    "F5": ("SODA'15 gap: 3-majority vs undecided-state", _f5_gap),
    "F6": ("Single-run bias/minority trajectory", _f6_trajectory),
}


def figure_ids() -> list[str]:
    return list(FIGURES)


def render_figure(figure_id: str, scale: str = "small", seed: int = 0) -> str:
    key = figure_id.upper()
    if key not in FIGURES:
        raise KeyError(f"unknown figure {figure_id!r}; known: {', '.join(FIGURES)}")
    _, fn = FIGURES[key]
    return fn(scale, seed)
