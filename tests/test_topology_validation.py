"""Topology parameter checks: strict values, validate ≡ resolve, no build.

``ScenarioSpec.validate()`` checks a graph spec through the registry's
cheap value checks and never generates the graph; ``resolve()`` builds
it.  These tests pin that the two agree on every input, that parameter
values are never coerced (a coerced value would name one graph under
several cache keys), and that the serving path stays free of the
experiment suite and ``scipy.stats``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScenarioSpec, cache_key
from repro.core.registry import TOPOLOGIES
from repro.scenario import _ensure_registered
from repro.service import ScenarioService
from repro.serve.cache import ResultCache
from repro.serve.envelope import prepare_spec

_ensure_registered()

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def graph_spec(topology: str, n: int = 100, **params) -> ScenarioSpec:
    return ScenarioSpec(
        dynamics="3-majority",
        initial="biased",
        initial_params={"bias": 10},
        n=n,
        k=3,
        topology=topology,
        topology_params=params,
        replicas=4,
        seed=9,
    )


class TestNoCoercion:
    """Each of these used to validate, most under a key of their own."""

    @pytest.mark.parametrize(
        "topology, params",
        [
            ("random-regular", {"d": "8"}),
            ("random-regular", {"d": 8.9}),
            ("random-regular", {"d": 8.0}),
            ("random-regular", {"d": True}),
            ("random-regular", {"d": None}),
            ("random-regular", {"seed": 0.5}),
            ("random-regular", {"seed": "0"}),
            ("random-regular", {"seed": -1}),
            ("erdos-renyi", {"p": -1}),
            ("erdos-renyi", {"p": 1.5}),
            ("erdos-renyi", {"p": float("nan")}),
            ("erdos-renyi", {"p": float("inf")}),
            ("erdos-renyi", {"p": "0.1"}),
            ("erdos-renyi", {"p": True}),
            ("erdos-renyi", {"p": 1e-300}),
            ("erdos-renyi", {"seed": 2.0}),
            ("torus", {"rows": "10"}),
            ("torus", {"rows": 10.0}),
            ("torus", {"cols": 0}),
            ("complete-bipartite", {"a": 50.5}),
            ("complete-bipartite", {"a": False}),
            ("barbell", {"path": 2.0}),
            ("barbell", {"path": -2}),
        ],
    )
    def test_rejected_by_validate_and_resolve(self, topology, params):
        spec = graph_spec(topology, **params)
        with pytest.raises(ValueError, match=topology):
            spec.validate()
        with pytest.raises(ValueError, match=topology):
            spec.resolve()

    @pytest.mark.parametrize(
        "topology, n, params",
        [
            ("random-regular", 101, {"d": 3}),  # n*d odd
            ("random-regular", 10, {"d": 10}),  # d >= n
            ("torus", 120, {"rows": 7}),  # 7 does not divide 120
            ("complete-bipartite", 100, {"a": 100}),
            ("barbell", 101, {}),  # odd body
        ],
    )
    def test_generator_rules_checked_up_front(self, topology, n, params):
        with pytest.raises(ValueError, match=topology):
            graph_spec(topology, n=n, **params).validate()

    def test_coerced_value_is_a_400_on_the_wire(self):
        service = ScenarioService(cache=ResultCache(None), workers=0)
        entry = graph_spec("random-regular", d=8.9).to_dict()
        spec, error = service._prepare(entry)
        assert spec is None
        assert error["type"] == "ValueError" and "'d'" in error["message"]
        # `repro batch` shares the envelope.
        assert prepare_spec(entry) == (None, error)

    #: Keys of valid specs as computed before the checks existed: the
    #: checks reject values, they never rewrite accepted ones.
    KEYS = [
        ("random-regular", 100, {"d": 8},
         "ab0c8510fb3ccf5c3e081b34d366b58a444af22c51cb4d8a1420865c9742fa45"),
        ("random-regular", 100, {"d": 4, "seed": 3},
         "3507ca9baebf28ee779491875a4bbc070b301ce95d234fbc0eeabd6a33108a5d"),
        ("torus", 120, {"rows": 10, "cols": 12},
         "a09f04bd3d7c324653aa8b12369aec1e1dc6907eaf9071a42b139fe3733562d3"),
        ("torus", 120, {"rows": 10},
         "611d84e69fd4f1d7ae26dd9fae90056e2615bfda7f9ef8decaafd4e07dcff76d"),
        ("complete-bipartite", 100, {"a": 30},
         "70af4271f21b47cfd1554bca4ad78a2341b918f1558e4d956a46e37d2b63f0f0"),
        ("barbell", 100, {"path": 2},
         "7d3996d247798c59c42432f8a056f1abe546af74b704a62df737b18e0f62ff4f"),
        ("erdos-renyi", 100, {"p": 0.1, "seed": 5},
         "46086391002fd55f3304bb2de600d4c3e3632d0274ea08b64ac12fb32164fbc8"),
        ("erdos-renyi", 100, {},
         "b6a95094b1574ffa7e135ecafaae4827b7876d6e8a719814bfc6744a8b6a622e"),
        ("cycle", 100, {},
         "a8ccb44917f03fd55708b61771156b051a1de1e3535f6b853ae4e4a415401346"),
        ("clique", 100, {},
         "d72a293de400caeb941be45176feb3d7c665f6b9ff45570dbc219e3bb0867072"),
    ]

    @pytest.mark.parametrize("topology, n, params, key", KEYS)
    def test_valid_spec_keys_unchanged(self, topology, n, params, key):
        spec = graph_spec(topology, n=n, **params).validate()
        assert cache_key(spec) == key


# -- validate ≡ resolve ---------------------------------------------------------

#: Parameter values of every kind: integers around the valid ranges,
#: numbers in [0, 1], and junk — bools, any float (NaN, infinities and
#: subnormals included), strings and None.
INTEGERS = st.integers(min_value=-2, max_value=20)
UNIT = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, 1.0, 5e-324, 1e-17])
JUNK = st.one_of(st.booleans(), st.floats(), st.sampled_from(["8", "", "0.5"]), st.none())


@st.composite
def topology_params(draw, name: str) -> dict:
    params = {}
    for key in TOPOLOGIES.get(name).parameter_names()[1:]:  # [0] is n
        # Mostly in-range values, so the generators' own rules get hit.
        kind = draw(st.sampled_from(["omit", "int", "int", "int", "unit", "junk"]))
        if kind != "omit":
            params[key] = draw({"int": INTEGERS, "unit": UNIT, "junk": JUNK}[kind])
    if draw(st.integers(0, 9)) == 0:
        params["bogus"] = 1  # unknown parameter names fail too
    return params


def _outcome(call) -> type | None:
    try:
        call()
    except Exception as exc:  # noqa: BLE001 — the type is the observable
        return type(exc)
    return None


@pytest.mark.parametrize("name", TOPOLOGIES.names())
@settings(max_examples=100)
@given(data=st.data())
def test_validate_raises_exactly_when_resolve_raises(name, data):
    n = data.draw(st.integers(min_value=1, max_value=16), label="n")
    params = data.draw(topology_params(name), label="params")
    spec = ScenarioSpec(
        dynamics="3-majority", n=n, k=2, topology=name, topology_params=params, seed=0
    )
    real_build = TOPOLOGIES.build
    builds = []

    def counting_build(*args, **params):
        builds.append(args)
        return real_build(*args, **params)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TOPOLOGIES, "build", counting_build)
        validated = _outcome(spec.validate)
    assert builds == []
    assert validated is _outcome(spec.resolve)


# -- import discipline ------------------------------------------------------------

#: The workload generators ``repro.experiments`` exported before they
#: moved to ``repro.core.workloads``.
WORKLOAD_EXPORTS = (
    "corollary3_start",
    "geometric_tail",
    "lemma8_start",
    "lemma10_start",
    "paper_biased",
    "soda15_gap",
    "theorem1_bias",
    "theorem2_start",
    "theorem4_start",
)

_PROBE = """
import json, sys
import repro.service
from repro.scenario import ScenarioSpec, simulate_ensemble
spec = ScenarioSpec(dynamics="3-majority", initial="biased", initial_params={"bias": 10},
                    n=120, k=3, topology="random-regular", topology_params={"d": 4},
                    replicas=2, max_rounds=2000, seed=0)
spec.resolve()
simulate_ensemble(spec)
print(json.dumps(sorted(
    name for name in sys.modules
    if name == "scipy.stats" or name.startswith("scipy.stats.")
    or name == "repro.experiments" or name.startswith("repro.experiments.")
)))
"""


class TestImportDiscipline:
    def test_serving_path_never_imports_experiments_or_scipy_stats(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == []

    def test_experiments_still_exports_the_workloads(self):
        import repro.core.workloads as workloads
        import repro.experiments as experiments

        for name in WORKLOAD_EXPORTS:
            assert name in experiments.__all__
            assert getattr(experiments, name) is getattr(workloads, name)

    def test_no_module_left_at_the_old_path(self):
        with pytest.raises(ModuleNotFoundError):
            __import__("repro.experiments.workloads")
