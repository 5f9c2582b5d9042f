"""String-keyed registries: the name → factory maps behind the scenario API.

A :class:`~repro.scenario.ScenarioSpec` refers to dynamics, initial
configurations, adversaries and stopping rules *by name*; these registries
resolve the names back to the concrete classes and factory functions of
:mod:`repro.core` (including :mod:`repro.core.workloads`).  Six instances
exist:

* :data:`DYNAMICS` — every dynamics class and 3-input-rule factory,
  keyed by the same identifier the instances carry in ``Dynamics.name``
  (``"3-majority"``, ``"h-plurality"``, ``"voter"``, ...);
* :data:`ADVERSARIES` — the F-bounded adversary strategies
  (``"targeted"``, ``"balancing"``, ``"random"``, ``"revive"``);
* :data:`WORKLOADS` — initial-configuration generators with the uniform
  signature ``fn(n, k, **params) -> Configuration``;
* :data:`STOPPING` — the stopping-rule constructors of
  :mod:`repro.core.stopping`;
* :data:`METRICS` — the vectorized per-round observables of
  :mod:`repro.core.metrics` a scenario's ``record`` field may name
  (``repro metrics`` lists them);
* :data:`TOPOLOGIES` — named graph generators with the uniform signature
  ``fn(n, **params) -> Topology`` (``"clique"``, ``"torus"``,
  ``"random-regular"``, ...), populated by :mod:`repro.graphs.topology`
  and selected through a scenario's ``topology`` field (``repro
  topologies`` lists them).

Entries are added with the :meth:`Registry.register` decorator at module
import time; :meth:`Registry.build` validates the parameter dict against
the factory's signature *before* calling it, so a scenario file with a
misspelled parameter fails with a message naming the accepted ones instead
of a bare ``TypeError`` from deep inside a constructor.  An entry may also
carry a cheap ``check`` of its parameter *values*; :meth:`Registry.check`
runs the signature and value checks without calling the factory, which is
how a topology spec validates without building its graph.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

__all__ = [
    "Registry",
    "RegistryEntry",
    "DYNAMICS",
    "ADVERSARIES",
    "WORKLOADS",
    "STOPPING",
    "METRICS",
    "TOPOLOGIES",
]


@dataclass(frozen=True)
class RegistryEntry:
    """One named factory plus its display metadata."""

    name: str
    factory: Callable[..., object]
    summary: str
    check: Callable[..., object] | None = None

    @property
    def signature(self) -> inspect.Signature:
        """The factory's signature, computed once (signature(...) is slow)."""
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = inspect.signature(self.factory)
            object.__setattr__(self, "_signature", cached)
        return cached

    def parameter_names(self) -> list[str]:
        """Keyword parameters the factory accepts (``**kwargs`` → ``...``)."""
        out: list[str] = []
        for param in self.signature.parameters.values():
            if param.kind is inspect.Parameter.VAR_KEYWORD:
                out.append("...")
            elif param.kind is not inspect.Parameter.VAR_POSITIONAL:
                out.append(param.name)
        return out


def _first_doc_line(factory: Callable[..., object]) -> str:
    doc = inspect.getdoc(factory)
    return doc.splitlines()[0].strip() if doc else ""


class Registry:
    """An ordered name → factory map with strict build-time validation."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    # -- population ----------------------------------------------------------

    def register(
        self,
        name: str,
        *,
        summary: str | None = None,
        check: Callable[..., object] | None = None,
    ):
        """Decorator: file the decorated class/function under ``name``.

        ``check``, if given, validates parameter values without building
        anything: :meth:`check` calls it with the factory's arguments,
        defaults filled in, and it raises ``ValueError`` on a bad value.
        The factory should call it first too, so the rules live in one place.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} registry needs a non-empty string name")

        def decorate(factory: Callable[..., object]) -> Callable[..., object]:
            if name in self._entries:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self._entries[name] = RegistryEntry(
                name=name,
                factory=factory,
                summary=summary or _first_doc_line(factory),
                check=check,
            )
            return factory

        return decorate

    # -- lookup --------------------------------------------------------------

    def get(self, name: str) -> RegistryEntry:
        entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(self.names()) or "<none registered>"
            raise KeyError(f"unknown {self.kind} {name!r}; known: {known}")
        return entry

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> list[tuple[str, RegistryEntry]]:
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    # -- construction ---------------------------------------------------------

    def _bind(
        self, name: str, args: tuple, params: dict
    ) -> tuple[RegistryEntry, inspect.BoundArguments]:
        entry = self.get(name)
        if not all(isinstance(key, str) for key in params):
            raise ValueError(f"{self.kind} {name!r} parameters must have string keys")
        try:
            return entry, entry.signature.bind(*args, **params)
        except TypeError as exc:
            raise ValueError(
                f"invalid parameters for {self.kind} {name!r}: {exc} "
                f"(accepted: {', '.join(entry.parameter_names())})"
            ) from exc

    def build(self, name: str, /, *args, **params) -> object:
        """Resolve ``name`` and call its factory with validated parameters."""
        entry, _ = self._bind(name, args, params)
        return entry.factory(*args, **params)

    def check(self, name: str, /, *args, **params) -> None:
        """Validate ``name`` and parameters as :meth:`build` does, without building.

        Checks the name and the parameter names against the factory's
        signature and, when the entry was registered with a ``check``, the
        parameter values (defaults filled in).  For such an entry, input
        that passes here builds without raising.
        """
        entry, bound = self._bind(name, args, params)
        if entry.check is not None:
            bound.apply_defaults()
            entry.check(*bound.args, **bound.kwargs)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, names={self.names()})"


#: Dynamics classes / rule factories, keyed by their ``Dynamics.name``.
DYNAMICS = Registry("dynamics")

#: F-bounded adversary strategies, keyed by strategy name.
ADVERSARIES = Registry("adversary")

#: Initial-configuration generators, signature ``fn(n, k, **params)``.
WORKLOADS = Registry("workload")

#: Stopping-rule constructors (see :mod:`repro.core.stopping`).
STOPPING = Registry("stopping rule")

#: Per-round observables a scenario's ``record`` field may name
#: (see :mod:`repro.core.metrics`).
METRICS = Registry("metric")

#: Graph generators a scenario's ``topology`` field may name, with the
#: uniform signature ``fn(n, **params) -> Topology``.  Populated by
#: :mod:`repro.graphs.topology` at import time.
TOPOLOGIES = Registry("topology")
