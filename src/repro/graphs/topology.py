"""Network topologies packed for vectorized neighbor sampling.

The paper's model is the clique, where anonymous counts suffice.  On a
general graph each agent samples among *its own* neighbors, so the
simulator needs per-agent neighborhoods.  :class:`Topology` stores them in
CSR form (``offsets``/``neighbors`` arrays) so that drawing ``h`` uniform
neighbor samples for *all* agents is two vectorized gathers — no Python
loop over nodes.

Per the paper's convention the sampling pool of an agent *includes the
agent itself*; :func:`Topology.from_networkx` therefore adds a self-loop to
every node by default (``include_self=True``).

Every generator is also registered in
:data:`~repro.core.registry.TOPOLOGIES` under the uniform scenario-facing
signature ``fn(n, **params) -> Topology`` (``repro topologies`` lists
them), which is how a :class:`~repro.scenario.ScenarioSpec`'s ``topology``
/ ``topology_params`` fields resolve.  The randomised generators take an
explicit ``seed`` parameter (default 0) so a spec's topology is a pure
function of its parameters — the property the content-addressed result
cache relies on.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np

from ..core.registry import TOPOLOGIES

__all__ = [
    "Topology",
    "clique",
    "cycle",
    "torus",
    "random_regular",
    "erdos_renyi",
    "complete_bipartite",
    "barbell",
]


class Topology:
    """CSR-packed undirected graph with per-node sampling pools."""

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray, name: str = "graph"):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        self.name = name
        if self.offsets.ndim != 1 or self.offsets[0] != 0:
            raise ValueError("offsets must be 1-D and start at 0")
        if self.offsets[-1] != self.neighbors.size:
            raise ValueError("offsets[-1] must equal len(neighbors)")
        if np.any(np.diff(self.offsets) <= 0):
            raise ValueError("every node needs a non-empty sampling pool")
        self.degrees = np.diff(self.offsets)
        self._regular = bool(np.all(self.degrees == self.degrees[0]))

    @property
    def n(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def is_regular(self) -> bool:
        return self._regular

    @classmethod
    def from_networkx(cls, graph: nx.Graph, include_self: bool = True, name: str | None = None) -> "Topology":
        """Pack a networkx graph; nodes must be 0..n-1 or are relabelled.

        The CSR build is a sorted-COO pass over the edge arrays (both
        directions of every undirected edge, plus the self-loops): degrees
        via ``bincount``, offsets via its cumulative sum, neighbors sorted
        by ``(node, neighbor)`` — each node's pool comes out ascending,
        the same ordering contract as the historical per-node loop.

        A graph whose node set is already ``0..n-1`` (every generator here
        but the torus) is read in place; any other labelling is first
        relabelled in sorted order, a full copy of the graph.  The sort
        makes the result independent of edge order, so both paths pack
        the same graph into identical arrays.
        """
        n = graph.number_of_nodes()
        if n == 0:
            raise ValueError("empty graph")
        if set(graph) == set(range(n)):
            flat = itertools.chain.from_iterable(graph.edges())
            edges = np.fromiter(flat, dtype=np.int64, count=2 * graph.number_of_edges())
        else:
            graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
            edges = np.asarray(list(graph.edges()), dtype=np.int64)
        edges = edges.reshape(-1, 2)
        loop = edges[:, 0] == edges[:, 1]
        plain = edges[~loop]
        src_parts = [plain[:, 0], plain[:, 1], edges[loop, 0]]
        dst_parts = [plain[:, 1], plain[:, 0], edges[loop, 1]]
        if include_self:
            has_loop = np.zeros(n, dtype=bool)
            has_loop[edges[loop, 0]] = True
            missing = np.flatnonzero(~has_loop)
            src_parts.append(missing)
            dst_parts.append(missing)
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        degrees = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
        if src.size == 0 or degrees.min() == 0:
            empty = int(np.flatnonzero(degrees == 0)[0]) if n else 0
            raise ValueError(f"node {empty} has an empty sampling pool")
        order = np.lexsort((dst, src))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return cls(offsets, dst[order], name=name or f"nx-{type(graph).__name__}")

    def sample_neighbors(self, h: int, rng: np.random.Generator) -> np.ndarray:
        """``(n, h)`` matrix: ``h`` uniform (with-replacement) neighbor picks per node.

        Draws are bounded-integer (`Generator.integers`, exclusive high),
        so each pick is exactly uniform over the node's pool and the pool
        index can never reach the row degree — unlike the float-scaling
        ``(u * deg).astype(int64)`` idiom this replaced, which was both
        slightly biased and able to round up to ``deg``.
        """
        if h < 1:
            raise ValueError("h must be >= 1")
        start = self.offsets[:-1]
        if self._regular:
            # Scalar bound: one Lemire rejection stream instead of the
            # slower per-element broadcast-bound path.
            idx = rng.integers(0, int(self.degrees[0]), size=(self.n, h), dtype=np.int64)
        else:
            idx = rng.integers(0, self.degrees[:, None], size=(self.n, h), dtype=np.int64)
        np.add(idx, start[:, None], out=idx)
        return self.neighbors.take(idx)

    def __repr__(self) -> str:
        return f"Topology(name={self.name!r}, n={self.n}, edges~{self.neighbors.size // 2})"


def clique(n: int) -> Topology:
    """Complete graph with self-loops — the paper's model."""
    if n < 1:
        raise ValueError("clique needs n >= 1")
    offsets = np.arange(n + 1, dtype=np.int64) * n
    neighbors = np.tile(np.arange(n, dtype=np.int64), n)
    return Topology(offsets, neighbors, name=f"clique-{n}")


def cycle(n: int) -> Topology:
    return Topology.from_networkx(nx.cycle_graph(n), name=f"cycle-{n}")


def torus(rows: int, cols: int) -> Topology:
    g = nx.grid_2d_graph(rows, cols, periodic=True)
    return Topology.from_networkx(g, name=f"torus-{rows}x{cols}")


def random_regular(n: int, d: int, seed: int | None = None) -> Topology:
    g = nx.random_regular_graph(d, n, seed=seed)
    return Topology.from_networkx(g, name=f"rr-{d}-{n}")


def erdos_renyi(n: int, p: float, seed: int | None = None) -> Topology:
    """G(n, p); isolated nodes keep a self-loop-only pool."""
    g = nx.fast_gnp_random_graph(n, p, seed=seed)
    return Topology.from_networkx(g, name=f"gnp-{n}-{p}")


def complete_bipartite(a: int, b: int) -> Topology:
    return Topology.from_networkx(nx.complete_bipartite_graph(a, b), name=f"kbb-{a}x{b}")


def barbell(m: int, path: int = 0) -> Topology:
    return Topology.from_networkx(nx.barbell_graph(m, path), name=f"barbell-{m}-{path}")


# -- scenario-facing registrations ------------------------------------------
#
# Uniform signature fn(n, **params) -> Topology, with n supplied by the
# spec.  Parameter defaults are chosen so that `topology_params={}` is
# always valid, and randomised generators key their graph on an explicit
# integer `seed` parameter — part of the spec, hence of the cache key.
#
# Each entry registers a cheap `check` of its parameter values, which its
# builder calls first: TOPOLOGIES.check (what ScenarioSpec.validate runs)
# then rejects exactly what a build would reject, without generating the
# graph.  Values are never coerced — {"d": 8.9} or {"d": "8"} would name
# the graph of {"d": 8} under another cache key — so integer parameters
# must be ints (not bools) and p a finite number in [0, 1].  A `None`
# is accepted only where it is the declared default.


def _int_param(topology: str, name: str, value: object, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{topology} parameter {name!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{topology} parameter {name!r} must be >= {minimum}, got {value}")
    return value


def _near_square(n: int) -> tuple[int, int]:
    """Largest divisor pair (rows, cols) with rows <= cols, rows maximal."""
    rows = int(np.sqrt(n))
    while rows > 1 and n % rows:
        rows -= 1
    return rows, n // rows


def _check_n(topology: str, n: int) -> None:
    _int_param(topology, "n", n, 1)


def _check_clique(n: int) -> None:
    _check_n("clique", n)


def _check_cycle(n: int) -> None:
    _check_n("cycle", n)


def _check_torus(n: int, rows: int | None, cols: int | None) -> tuple[int, int]:
    """The ``(rows, cols)`` shape the torus builds (near-square by default)."""
    _check_n("torus", n)
    if rows is None and cols is None:
        return _near_square(n)
    if rows is not None:
        _int_param("torus", "rows", rows, 1)
    if cols is not None:
        _int_param("torus", "cols", cols, 1)
    rows = n // cols if rows is None else rows
    cols = n // rows if cols is None else cols
    if rows * cols != n:
        raise ValueError(f"torus needs rows*cols == n, got {rows}x{cols} != {n}")
    return rows, cols


def _check_random_regular(n: int, d: int, seed: int) -> None:
    _check_n("random-regular", n)
    _int_param("random-regular", "d", d, 0)
    _int_param("random-regular", "seed", seed, 0)
    if d >= n:
        raise ValueError(f"random-regular needs 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2:
        raise ValueError(f"random-regular needs n*d even, got n={n}, d={d}")


def _check_erdos_renyi(n: int, p: float | None, seed: int) -> float:
    """The edge probability G(n, p) uses (``2 ln(n)/n`` capped at 1 by default)."""
    _check_n("erdos-renyi", n)
    _int_param("erdos-renyi", "seed", seed, 0)
    if p is None:
        return float(min(1.0, 2.0 * np.log(max(n, 2)) / n))
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        raise ValueError(f"erdos-renyi parameter 'p' must be a number in [0, 1], got {p!r}")
    if 0.0 < p and 1.0 - p == 1.0:
        # networkx's geometric edge skipping divides by log(1 - p).
        raise ValueError(f"erdos-renyi parameter 'p' is too small to sample (1 - p == 1), got {p!r}")
    return float(p)


def _check_complete_bipartite(n: int, a: int | None) -> int:
    """The size of the first side (``n // 2`` by default)."""
    _check_n("complete-bipartite", n)
    a = n // 2 if a is None else _int_param("complete-bipartite", "a", a, 1)
    if not 0 < a < n:
        raise ValueError(f"complete-bipartite needs 0 < a < n, got a={a}, n={n}")
    return a


def _check_barbell(n: int, path: int) -> None:
    _check_n("barbell", n)
    _int_param("barbell", "path", path, 0)
    body = n - path
    if body < 6 or body % 2:
        raise ValueError(
            f"barbell needs n - path even and >= 6 (two cliques of >= 3), got n={n}, path={path}"
        )


@TOPOLOGIES.register(
    "clique", summary="complete graph with self-loops (the paper's model)", check=_check_clique
)
def _topology_clique(n: int) -> Topology:
    _check_clique(n)
    return clique(n)


@TOPOLOGIES.register("cycle", summary="ring of n nodes (diameter n/2)", check=_check_cycle)
def _topology_cycle(n: int) -> Topology:
    _check_cycle(n)
    return cycle(n)


@TOPOLOGIES.register(
    "torus", summary="periodic rows x cols grid (near-square by default)", check=_check_torus
)
def _topology_torus(n: int, rows: int | None = None, cols: int | None = None) -> Topology:
    return torus(*_check_torus(n, rows, cols))


@TOPOLOGIES.register(
    "random-regular",
    summary="uniform random d-regular graph (expander w.h.p.)",
    check=_check_random_regular,
)
def _topology_random_regular(n: int, d: int = 8, seed: int = 0) -> Topology:
    _check_random_regular(n, d, seed)
    return random_regular(n, d, seed=seed)


@TOPOLOGIES.register(
    "erdos-renyi",
    summary="G(n, p); p defaults to 2 ln(n)/n, near the connectivity threshold",
    check=_check_erdos_renyi,
)
def _topology_erdos_renyi(n: int, p: float | None = None, seed: int = 0) -> Topology:
    return erdos_renyi(n, _check_erdos_renyi(n, p, seed), seed=seed)


@TOPOLOGIES.register(
    "complete-bipartite",
    summary="complete bipartite K_{a,n-a} (a = n//2 by default)",
    check=_check_complete_bipartite,
)
def _topology_complete_bipartite(n: int, a: int | None = None) -> Topology:
    a = _check_complete_bipartite(n, a)
    return complete_bipartite(a, n - a)


@TOPOLOGIES.register(
    "barbell",
    summary="two m-cliques joined by a path (worst-case bottleneck)",
    check=_check_barbell,
)
def _topology_barbell(n: int, path: int = 0) -> Topology:
    _check_barbell(n, path)
    return barbell((n - path) // 2, path)
