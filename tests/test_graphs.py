"""Tests for the general-graph substrate (topology packing + agent sim)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Configuration, ThreeMajority, majority_rule
from repro.core.registry import TOPOLOGIES
from repro.graphs import (
    GraphPluralityProcess,
    GraphState,
    Topology,
    barbell,
    clique,
    complete_bipartite,
    cycle,
    erdos_renyi,
    random_coloring,
    random_regular,
    torus,
)


class TestTopology:
    def test_clique_structure(self):
        topo = clique(5)
        assert topo.n == 5
        assert topo.is_regular
        assert (topo.degrees == 5).all()  # self-loops included

    def test_cycle_structure(self):
        topo = cycle(6)
        assert topo.n == 6
        assert (topo.degrees == 3).all()  # 2 neighbors + self

    def test_torus(self):
        topo = torus(3, 4)
        assert topo.n == 12
        assert (topo.degrees == 5).all()

    def test_random_regular(self):
        topo = random_regular(10, 3, seed=0)
        assert topo.n == 10
        assert (topo.degrees == 4).all()

    def test_erdos_renyi_isolated_nodes_ok(self):
        topo = erdos_renyi(20, 0.0, seed=0)
        assert (topo.degrees == 1).all()  # self-loop only

    def test_bipartite_and_barbell(self):
        assert complete_bipartite(3, 4).n == 7
        assert barbell(4).n == 8

    def test_invalid_offsets(self):
        with pytest.raises(ValueError):
            Topology(np.array([1, 2]), np.array([0, 1]))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            Topology(np.array([0, 0, 1]), np.array([0]))

    def test_sample_neighbors_shape_and_validity(self, rng):
        topo = cycle(8)
        picks = topo.sample_neighbors(4, rng)
        assert picks.shape == (8, 4)
        # Every pick must be a CSR neighbor of its row.
        for u in range(8):
            pool = set(topo.neighbors[topo.offsets[u] : topo.offsets[u + 1]].tolist())
            assert set(picks[u].tolist()) <= pool

    def test_sample_rejects_bad_h(self, rng):
        with pytest.raises(ValueError):
            clique(3).sample_neighbors(0, rng)


class TestRandomColoring:
    def test_counts_preserved(self, rng):
        topo = clique(30)
        cfg = Configuration([15, 10, 5])
        colors = random_coloring(topo, cfg, rng)
        assert np.bincount(colors, minlength=3).tolist() == [15, 10, 5]

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            random_coloring(clique(10), Configuration([5, 4]), rng)


class TestGraphProcess:
    def test_consensus_on_clique(self, rng):
        topo = clique(500)
        cfg = Configuration([400, 100])
        colors = random_coloring(topo, cfg, rng)
        proc = GraphPluralityProcess(topo, h=3)
        res = proc.run(colors, k=2, rng=rng, max_rounds=2_000)
        assert res.converged
        assert res.plurality_won

    def test_clique_matches_counts_engine_statistics(self, rng_factory):
        # One round of graph-level 3-plurality on the clique must match the
        # Lemma 1 law in expectation.
        n = 2_000
        topo = clique(n)
        cfg = Configuration([1_200, 500, 300])
        law = ThreeMajority().color_law(cfg.counts)
        proc = GraphPluralityProcess(topo, h=3)
        acc = np.zeros(3)
        reps = 200
        for i in range(reps):
            rng = rng_factory(i)
            colors = random_coloring(topo, cfg, rng)
            new = proc.step(colors, 3, rng)
            acc += np.bincount(new, minlength=3)
        mean = acc / reps / n
        stderr = np.sqrt(0.25 / (n * reps))
        assert np.all(np.abs(mean - law) < 8 * stderr)

    def test_three_input_rule_on_graph(self, rng):
        topo = clique(300)
        cfg = Configuration([200, 60, 40])
        colors = random_coloring(topo, cfg, rng)
        proc = GraphPluralityProcess(topo, rule=majority_rule())
        res = proc.run(colors, k=3, rng=rng, max_rounds=2_000)
        assert res.converged
        assert res.plurality_won

    def test_h1_is_graph_voter(self, rng):
        topo = cycle(50)
        colors = np.zeros(50, dtype=np.int64)
        colors[::2] = 1
        proc = GraphPluralityProcess(topo, h=1)
        new = proc.step(colors, 2, rng)
        assert new.shape == (50,)
        assert set(np.unique(new)) <= {0, 1}

    def test_monochromatic_is_absorbing(self, rng):
        topo = random_regular(40, 4, seed=1)
        colors = np.full(40, 2, dtype=np.int64)
        proc = GraphPluralityProcess(topo, h=3)
        res = proc.run(colors, k=3, rng=rng)
        assert res.converged
        assert res.rounds == 0
        assert res.winner == 2

    def test_record_counts_history(self, rng):
        topo = clique(200)
        cfg = Configuration([150, 50])
        colors = random_coloring(topo, cfg, rng)
        proc = GraphPluralityProcess(topo, h=3)
        res = proc.run(colors, k=2, rng=rng, record_counts=True, max_rounds=1_000)
        assert res.counts_history is not None
        assert (res.counts_history.sum(axis=1) == 200).all()

    def test_graph_state_helpers(self):
        state = GraphState(np.array([0, 0, 1]), k=2)
        assert state.counts().tolist() == [2, 1]
        assert not state.is_monochromatic
        assert state.configuration() == Configuration([2, 1])

    def test_size_mismatch_rejected(self, rng):
        proc = GraphPluralityProcess(clique(5), h=3)
        with pytest.raises(ValueError):
            proc.step(np.zeros(4, dtype=np.int64), 2, rng)

    def test_local_topology_slows_consensus(self, rng_factory):
        # Sanity for the substrate: the cycle mixes far slower than the
        # clique at equal n — a qualitative, robust comparison.
        n = 120
        cfg = Configuration([70, 50])
        rounds_clique = []
        rounds_cycle = []
        for i in range(10):
            rng = rng_factory(1_000 + i)
            colors = random_coloring(clique(n), cfg, rng)
            r1 = GraphPluralityProcess(clique(n), h=3).run(
                colors, k=2, rng=rng, max_rounds=20_000
            )
            rng2 = rng_factory(2_000 + i)
            colors2 = random_coloring(cycle(n), cfg, rng2)
            r2 = GraphPluralityProcess(cycle(n), h=3).run(
                colors2, k=2, rng=rng2, max_rounds=20_000
            )
            rounds_clique.append(r1.rounds)
            rounds_cycle.append(r2.rounds)
        assert np.median(rounds_cycle) > np.median(rounds_clique)


class TestSampleNeighborsUnbiased:
    """Regression for the float-scaling draw the integer draw replaced.

    The old ``(uniform * degree).astype(int64)`` idiom could round up to
    the row degree (an out-of-pool index spilling into the next node's
    CSR slice) and was measurably non-uniform.  The bounded-integer draw
    must keep every raw index strictly below its row degree and pass a
    chi-square uniformity test per pool on an irregular graph.
    """

    def _irregular(self):
        # Star-plus-path: node 0 has a large pool, leaves tiny ones.
        import networkx as nx

        g = nx.star_graph(9)  # node 0 joined to 1..9
        g.add_edge(1, 2)
        return Topology.from_networkx(g)

    def test_raw_index_strictly_below_degree(self):
        topo = self._irregular()
        start = topo.offsets[:-1]
        rng = np.random.default_rng(5)
        for _ in range(200):
            picks = topo.sample_neighbors(3, rng)
            # Recover pool membership: every pick must live in its row's slice.
            for u in range(topo.n):
                row = topo.neighbors[topo.offsets[u] : topo.offsets[u + 1]]
                assert np.isin(picks[u], row).all(), (u, picks[u], row)
        assert (topo.degrees != topo.degrees[0]).any()  # fixture is irregular
        assert start.shape == (topo.n,)

    def test_per_pool_uniformity_chi_square(self):
        from scipy import stats

        topo = self._irregular()
        rng = np.random.default_rng(11)
        draws = 4_000
        picks = topo.sample_neighbors(draws, rng)  # (n, draws)
        for u in range(topo.n):
            pool = topo.neighbors[topo.offsets[u] : topo.offsets[u + 1]]
            observed = np.array([(picks[u] == v).sum() for v in pool], dtype=float)
            expected = draws / pool.size
            chi2 = float(((observed - expected) ** 2 / expected).sum())
            crit = float(stats.chi2.isf(1e-6, df=pool.size - 1))
            assert chi2 < crit, (u, chi2, crit)

    def test_regular_fast_path_matches_pool(self):
        topo = clique(7)
        assert topo.is_regular
        picks = topo.sample_neighbors(5, np.random.default_rng(3))
        assert picks.min() >= 0 and picks.max() < 7


class TestFromNetworkxVectorized:
    """The edge-array CSR build keeps the historical ordering contract."""

    @staticmethod
    def _reference(graph, include_self):
        # The retired per-node loop: sorted pools, optional self-loop.
        import networkx as nx

        graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
        n = graph.number_of_nodes()
        pools = []
        for u in range(n):
            pool = set(graph.neighbors(u))
            if include_self:
                pool.add(u)
            pools.append(sorted(pool))
        offsets = np.zeros(n + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(p) for p in pools])
        return offsets, np.concatenate([np.asarray(p, dtype=np.int64) for p in pools])

    @pytest.mark.parametrize("include_self", (True, False))
    def test_matches_reference_on_random_graph(self, include_self):
        import networkx as nx

        g = nx.gnp_random_graph(40, 0.15, seed=4)
        if not include_self:
            # Keep every pool non-empty without self-loops.
            for u in list(nx.isolates(g)):
                g.add_edge(u, (u + 1) % 40)
        topo = Topology.from_networkx(g, include_self=include_self)
        offsets, neighbors = self._reference(g, include_self)
        assert np.array_equal(topo.offsets, offsets)
        assert np.array_equal(topo.neighbors, neighbors)

    def test_pre_existing_self_loops_not_duplicated(self):
        import networkx as nx

        g = nx.cycle_graph(6)
        g.add_edge(2, 2)  # explicit self-loop before packing
        topo = Topology.from_networkx(g, include_self=True)
        offsets, neighbors = self._reference(g, True)
        assert np.array_equal(topo.offsets, offsets)
        assert np.array_equal(topo.neighbors, neighbors)
        assert (topo.degrees == 3).all()  # loop at 2 contributes exactly once

    def test_empty_graph_rejected(self):
        import networkx as nx

        with pytest.raises(ValueError):
            Topology.from_networkx(nx.Graph())

    def test_isolated_node_without_self_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        with pytest.raises(ValueError, match="empty sampling pool"):
            Topology.from_networkx(g, include_self=False)


class TestPackingPaths:
    """Both ``from_networkx`` paths pack a graph into identical arrays.

    A graph labelled exactly ``0..n-1`` is read in place; any other
    labelling is relabelled in sorted order first (a full graph copy).
    """

    @staticmethod
    def _relabel_path(graph) -> Topology:
        # Wrapping every label in a 1-tuple keeps its sorted rank and
        # forces the relabel path.
        import networkx as nx

        return Topology.from_networkx(nx.relabel_nodes(graph, {v: (v,) for v in graph}))

    @staticmethod
    def _assert_same(topo: Topology, other: Topology) -> None:
        assert np.array_equal(topo.offsets, other.offsets)
        assert np.array_equal(topo.neighbors, other.neighbors)

    @pytest.mark.parametrize("name", TOPOLOGIES.names())
    def test_every_registered_topology(self, name, monkeypatch):
        import networkx as nx

        packed = []
        real = Topology.from_networkx.__func__

        def capture(cls, graph, *args, **kwargs):
            packed.append(graph)
            return real(cls, graph, *args, **kwargs)

        monkeypatch.setattr(Topology, "from_networkx", classmethod(capture))
        built = TOPOLOGIES.build(name, 60)
        monkeypatch.undo()
        graph = packed[0] if packed else nx.complete_graph(60)  # clique packs directly
        self._assert_same(built, Topology.from_networkx(graph))
        self._assert_same(built, self._relabel_path(graph))

    def test_tuple_labels(self):
        import networkx as nx

        g = nx.grid_2d_graph(4, 5, periodic=True)
        expected = Topology.from_networkx(nx.convert_node_labels_to_integers(g, ordering="sorted"))
        self._assert_same(Topology.from_networkx(g), expected)

    def test_integer_labels_inserted_out_of_order(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from([3, 0, 4, 1, 2])
        g.add_edges_from([(4, 1), (2, 0), (3, 4), (0, 3), (1, 2), (4, 2)])
        self._assert_same(Topology.from_networkx(g), self._relabel_path(g))

    def test_non_contiguous_integer_labels(self):
        import networkx as nx

        g = nx.Graph([(9, 5), (7, 9)])  # ranks: 5 -> 0, 7 -> 1, 9 -> 2
        topo = Topology.from_networkx(g)
        self._assert_same(topo, Topology.from_networkx(nx.Graph([(2, 0), (1, 2)])))
        assert topo.offsets.tolist() == [0, 2, 4, 7]
        assert topo.neighbors.tolist() == [0, 2, 1, 2, 0, 1, 2]

    def test_range_labels_skip_the_relabel_copy(self, monkeypatch):
        import networkx as nx

        def no_copy(*args, **kwargs):
            raise AssertionError("relabel copy made")

        monkeypatch.setattr(nx, "convert_node_labels_to_integers", no_copy)
        assert TOPOLOGIES.build("random-regular", 60).n == 60
        with pytest.raises(AssertionError, match="relabel copy"):
            TOPOLOGIES.build("torus", 60)


class TestGraphEnsembleBitIdentity:
    """Batched (R, n) stepping ≡ sequential per-replica runs, bitwise.

    Both paths consume randomness per replica from the same spawned
    streams in the same order, so everything — rounds, winners, final
    counts, recorded traces — must be equal exactly, not statistically.
    """

    DYNAMICS = (
        ("3-majority tie-first", ThreeMajority(), {}),
        ("h-plurality h=4", None, {"h": 4}),  # built below to avoid import cycles
        ("voter", None, {"voter": True}),
    )

    def _pair(self, dynamics, topo, cfg, seed, record=None):
        from repro.core.metrics import RecordSpec
        from repro.graphs import run_graph_ensemble

        kwargs = dict(max_rounds=3_000, rng=seed)
        if record:
            kwargs["record"] = RecordSpec(metrics=tuple(record), every=1)
        batched = run_graph_ensemble(dynamics, topo, cfg, 6, **kwargs)
        sequential = run_graph_ensemble(dynamics, topo, cfg, 6, batch=False, **kwargs)
        return batched, sequential

    @pytest.mark.parametrize("name", [d[0] for d in DYNAMICS])
    def test_bitwise_equal(self, name):
        from repro import HPlurality, Voter

        dynamics = {
            "3-majority tie-first": ThreeMajority(),
            "h-plurality h=4": HPlurality(4),
            "voter": Voter(),
        }[name]
        topo = torus(6, 10)
        cfg = Configuration([30, 20, 10])
        batched, sequential = self._pair(dynamics, topo, cfg, 123, record=("counts", "bias"))
        assert np.array_equal(batched.rounds, sequential.rounds)
        assert np.array_equal(batched.converged, sequential.converged)
        assert np.array_equal(batched.winners, sequential.winners)
        assert np.array_equal(batched.final_counts, sequential.final_counts)
        assert batched.stop_reasons() == sequential.stop_reasons()
        assert batched.trace.digest() == sequential.trace.digest()

    def test_uniform_tiebreak_consumes_rng_identically(self):
        batched, sequential = self._pair(
            ThreeMajority(tie_break="uniform"), clique(40), Configuration([20, 20]), 7
        )
        assert np.array_equal(batched.rounds, sequential.rounds)
        assert np.array_equal(batched.final_counts, sequential.final_counts)

    def test_three_input_rule_kernel(self):
        batched, sequential = self._pair(
            majority_rule(), cycle(50), Configuration([30, 12, 8]), 31
        )
        assert np.array_equal(batched.rounds, sequential.rounds)
        assert np.array_equal(batched.final_counts, sequential.final_counts)


class TestGraphIneligibility:
    def test_undecided_state_rejected(self):
        from repro import UndecidedState
        from repro.graphs import graph_ineligibility

        assert graph_ineligibility(UndecidedState()) is not None

    def test_supported_dynamics_pass(self):
        from repro import HPlurality, Voter
        from repro.graphs import graph_ineligibility

        for dyn in (ThreeMajority(), HPlurality(5), Voter(), majority_rule()):
            assert graph_ineligibility(dyn) is None


class TestRunShimMatchesEngine:
    def test_run_delegates_to_shared_engine(self, rng_factory):
        # The deprecated GraphPluralityProcess.run must produce exactly
        # what the shared engine produces for the same colors + stream.
        from repro.graphs.ensemble import run_graph_colors

        topo = torus(4, 5)
        cfg = Configuration([10, 6, 4])
        colors = random_coloring(topo, cfg, rng_factory(9))
        proc = GraphPluralityProcess(topo, h=3)
        shim = proc.run(colors, k=3, rng=42, record_counts=True)
        result, final = run_graph_colors(
            colors.copy(),
            3,
            proc.kernel(3),
            topo,
            max_rounds=100_000,
            stopping=None,
            record=None,
            generator=np.random.default_rng(42),
        )
        assert shim.rounds == result.rounds
        assert shim.converged == result.converged
        assert np.array_equal(shim.final_state.colors, final)
        assert shim.counts_history is not None
        assert (shim.counts_history.sum(axis=1) == topo.n).all()
