"""Initial-configuration generators: the entries of the WORKLOADS registry.

Each generator builds the exact family of configurations a theorem or
lemma of the paper quantifies over:

* :func:`paper_biased` — the canonical ``s``-biased start of Theorem 1;
* :func:`theorem2_start` — balanced up to ``(n/k)^(1-eps)`` (Theorem 2);
* :func:`corollary3_start` — ``c1 = n/β`` plus Corollary 3's bias (E3);
* :func:`theorem4_start` — balanced with max count 3n/(2k) (Theorem 4/E6);
* :func:`lemma10_start` — ``(x+s, x, ..., x)`` with ``x=(n-s)/k``
  (Lemma 10's near-critical bias);
* :func:`lemma8_start` — ``(n/3+s, n/3, n/3-s)`` (Lemma 8's 3-color
  configuration for the uniform-property lower bound);
* :func:`soda15_gap` — "almost all mass on few colors": low monochromatic
  distance but tiny relative bias, where the undecided-state dynamics is
  exponentially faster than 3-majority (E9);
* :func:`geometric_tail` — plurality plus geometrically decaying rivals,
  a realistic skewed workload for the examples.

Every generator — plus thin adapters over the plain
:class:`~repro.core.config.Configuration` factories (``balanced``,
``biased``, ``monochromatic``, ``two-color``, ``random``) — is registered
in :data:`repro.core.registry.WORKLOADS` under the kebab-case name shown
by ``repro scenarios``, with the uniform signature
``fn(n, k, **params) -> Configuration`` required by the declarative
:class:`~repro.scenario.ScenarioSpec` API.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Configuration
from .registry import WORKLOADS
from .rng import make_rng

__all__ = [
    "paper_biased",
    "theorem1_bias",
    "theorem2_start",
    "corollary3_start",
    "theorem4_start",
    "lemma10_start",
    "lemma8_start",
    "soda15_gap",
    "geometric_tail",
]


def theorem1_bias(n: int, k: int, constant: float = 1.0) -> int:
    """Bias ``constant * sqrt(2 min(2k, (n/log n)^{1/3}) n log n)``.

    ``constant=1`` is the *shape* of Corollary 1's requirement (its 72 is a
    proof artifact; empirically a small constant suffices, which E7/E2
    demonstrate).  Clipped into ``[1, n - n//k]`` so the configuration is
    feasible at small scales.
    """
    lam = min(2.0 * k, (n / math.log(n)) ** (1.0 / 3.0))
    s = int(round(constant * math.sqrt(2.0 * lam * n * math.log(n))))
    return max(1, min(s, n - n // k if k > 1 else n - 1))


@WORKLOADS.register("paper-biased")
def paper_biased(n: int, k: int, constant: float = 1.0) -> Configuration:
    """Theorem 1-style start: balanced rivals, bias from :func:`theorem1_bias`."""
    return Configuration.biased(n, k, theorem1_bias(n, k, constant))


@WORKLOADS.register("theorem2")
def theorem2_start(n: int, k: int, eps: float = 0.25) -> Configuration:
    """Theorem 2's near-balanced start: max color at ``n/k + (n/k)^(1-eps)``."""
    if k < 2:
        raise ValueError("Theorem 2 needs k >= 2")
    imbalance = int(max(1, round((n / k) ** (1.0 - eps))))
    imbalance = min(imbalance, n - n // k)
    return Configuration.biased(n, k, imbalance)


@WORKLOADS.register("lemma10")
def lemma10_start(n: int, k: int, s: int | None = None) -> Configuration:
    """Lemma 10's configuration: ``c = (x + s, x, ..., x)``, ``x = (n-s)/k``.

    Defaults to the critical bias ``s = floor(sqrt(kn)/6)``.  Integer parts
    are balanced with largest-remainder so the plurality advantage over
    every rival is at least ``s`` (the lemma neglects integer parts).
    """
    if k < 2:
        raise ValueError("Lemma 10 needs k >= 2 (the paper assumes k >= 4)")
    if s is None:
        s = int(math.sqrt(k * n) / 6.0)
    s = max(1, min(s, n - 1))
    return Configuration.biased(n, k, s)


def lemma8_start(n: int, s: int | None = None) -> Configuration:
    """Lemma 8's 3-color start ``(n/3 + s, n/3, n/3 - s)``."""
    if s is None:
        s = int(round(math.sqrt(n * math.log(max(n, 3)))))
    third = n // 3
    s = max(1, min(s, third))
    counts = np.array([third + s, third, third - s], dtype=np.int64)
    counts[1] += n - counts.sum()  # absorb rounding into the middle color
    return Configuration(counts)


@WORKLOADS.register("soda15-gap")
def soda15_gap(n: int, k: int, heavy_colors: int = 2, heavy_fraction: float = 0.96) -> Configuration:
    """Low monochromatic-distance, low relative-bias configuration.

    ``heavy_colors`` colors share ``heavy_fraction`` of the agents almost
    evenly (plurality slightly ahead); the remaining mass spreads over the
    other ``k - heavy_colors`` colors.  ``md(c)`` stays O(heavy_colors)
    while 3-majority's clock ``n / c_max ≈ heavy_colors / heavy_fraction``
    is small — but under a *large* k-tail (heavy_fraction near the
    undecided-state's danger zone) the comparison flips; E9 sweeps this.
    """
    if not 1 <= heavy_colors < k:
        raise ValueError("need 1 <= heavy_colors < k")
    if not 0.0 < heavy_fraction <= 1.0:
        raise ValueError("heavy_fraction must be in (0, 1]")
    heavy_total = int(round(n * heavy_fraction))
    light_total = n - heavy_total
    heavy = Configuration.balanced(heavy_total, heavy_colors).counts.copy()
    heavy[0] += 0  # already +1 remainder-biased towards color 0
    if heavy_colors > 1 and heavy[0] == heavy[1]:
        # guarantee a strict plurality among the heavy block
        if heavy[1] > 0:
            heavy[1] -= 1
            heavy[0] += 1
    light = Configuration.balanced(light_total, k - heavy_colors).counts
    return Configuration(np.concatenate([heavy, light]))


@WORKLOADS.register("geometric-tail")
def geometric_tail(n: int, k: int, ratio: float = 0.7) -> Configuration:
    """Plurality plus geometrically decaying rivals: ``c_j ∝ ratio^j``."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    weights = ratio ** np.arange(k, dtype=float)
    return Configuration.from_fractions(n, weights)


@WORKLOADS.register("corollary3")
def corollary3_start(n: int, k: int, beta: float = 3.0, constant: float = 1.0) -> Configuration:
    """Corollary 3's start: ``c1 = n/β`` and bias ``c·sqrt(2 β n log n)``.

    Rivals split the rest evenly; if the requested bias exceeds the gap to
    the strongest rival, the plurality is topped up until it holds.
    """
    c1 = int(n / beta)
    s = int(constant * math.sqrt(2.0 * beta * n * math.log(n)))
    rivals = Configuration.balanced(n - c1, k - 1).counts
    top_rival = int(rivals.max())
    if c1 - top_rival < s:
        deficit = s - (c1 - top_rival)
        c1 += deficit
        rivals = Configuration.balanced(n - c1, k - 1).counts
    return Configuration(np.concatenate([[c1], rivals]))


@WORKLOADS.register("theorem4")
def theorem4_start(n: int, k: int) -> Configuration:
    """Theorem 4's balanced start with the max count at ``3n/(2k)``."""
    top = int(3 * n / (2 * k))
    rest = Configuration.balanced(n - top, k - 1).counts
    return Configuration(np.concatenate([[top], rest]))


# -- registry adapters -------------------------------------------------------
#
# Thin wrappers giving Configuration factories (and the k-fixed lemma-8
# family) the uniform ``fn(n, k, **params)`` workload signature.


@WORKLOADS.register("lemma8", summary="Lemma 8's 3-color start (n/3+s, n/3, n/3-s)")
def _lemma8_workload(n: int, k: int, s: int | None = None) -> Configuration:
    if k != 3:
        raise ValueError(f"the lemma8 workload is defined for k = 3, got k={k}")
    return lemma8_start(n, s)


@WORKLOADS.register("balanced", summary="as even a split of n agents over k colors as possible")
def _balanced_workload(n: int, k: int) -> Configuration:
    return Configuration.balanced(n, k)


@WORKLOADS.register("biased", summary="balanced rivals plus an explicit additive bias")
def _biased_workload(n: int, k: int, bias: int, plurality: int = 0) -> Configuration:
    return Configuration.biased(n, k, bias, plurality)


@WORKLOADS.register("monochromatic", summary="all n agents on one color")
def _monochromatic_workload(n: int, k: int, color: int = 0) -> Configuration:
    return Configuration.monochromatic(n, k, color)


@WORKLOADS.register("two-color", summary="binary configuration by fraction or additive bias")
def _two_color_workload(
    n: int, k: int, majority_fraction: float = 0.5, bias: int | None = None
) -> Configuration:
    if k != 2:
        raise ValueError(f"the two-color workload is defined for k = 2, got k={k}")
    return Configuration.two_color(n, majority_fraction, bias)


@WORKLOADS.register("random", summary="uniform multinomial split from a dedicated seed")
def _random_workload(n: int, k: int, seed: int = 0) -> Configuration:
    return Configuration.random(n, k, make_rng(seed))
