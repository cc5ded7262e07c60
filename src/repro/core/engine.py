"""Engine registry: the paper's family of synchronisation schemes as plugins.

The paper's contribution is not one engine but a *family* of them --
conservative lock-step, the two optimistic leaders (SLA / ALS), a dynamic
policy choosing among them, and the closed-form analytical model used for the
published numbers.  This module turns that family into a registry so callers
never branch on :class:`~repro.core.modes.OperatingMode` themselves:

* :class:`Engine` -- the protocol every engine implements (construct from a
  domain partition and a :class:`~repro.core.coemulation.CoEmulationConfig`,
  then ``run()``).
* :func:`register_engine` -- class decorator through which engines register
  themselves, optionally claiming the operating modes they implement.  One
  engine class per synchronisation mode registers several *presets*: the
  scalar oracle plus rows that switch on its fast paths
  (:data:`~repro.core.coemulation.QUIESCENCE_SKIP`,
  :data:`~repro.core.coemulation.PERIODIC_REPLAY`).
* :func:`create_engine` -- the single factory replacing all mode if/else
  dispatch in the CLI, sweeps, benchmarks and examples.

Engines register themselves when their module is imported;
:func:`create_engine` imports the built-in engine modules lazily so the
registry is always populated without creating import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import get_close_matches
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..ahb.half_bus import HalfBusModel
from ..sim.component import Domain
from .coemulation import CoEmulationConfig, CoEmulationResult
from .modes import OperatingMode


@runtime_checkable
class Engine(Protocol):
    """A co-emulation engine: built over a partitioned system, run to a result."""

    config: CoEmulationConfig

    def run(self) -> CoEmulationResult:
        """Execute the run described by ``config`` and package the result."""
        ...


#: An engine constructor: ``factory(partition, config)``.  ``partition`` maps
#: domain ids to half bus models and may be ``None`` for pseudo-engines
#: (e.g. the analytical model) that never touch the mechanism.
EngineFactory = Callable[
    [Optional[Mapping[Domain, HalfBusModel]], CoEmulationConfig], Engine
]


@dataclass(frozen=True)
class EngineInfo:
    """One registry entry: an engine class plus the fast paths it runs with.

    Several entries may share one ``factory`` class; they differ only in
    ``fast_paths``.  An entry with no fast paths is the scalar oracle.
    """

    name: str
    factory: EngineFactory
    modes: Tuple[OperatingMode, ...]
    description: str
    requires_split: bool = True
    fast_paths: FrozenSet[str] = frozenset()


_REGISTRY: Dict[str, EngineInfo] = {}
_MODE_INDEX: Dict[OperatingMode, str] = {}
_BUILTINS_LOADED = False


class EngineRegistryError(LookupError):
    """Unknown engine name / mode, or conflicting registration."""


def _first_docstring_line(obj) -> str:
    lines = (getattr(obj, "__doc__", None) or "").strip().splitlines()
    return lines[0] if lines else ""


def register_engine(
    name: str,
    *,
    modes: Tuple[OperatingMode, ...] = (),
    description: str = "",
    requires_split: bool = True,
    fast_paths: Tuple[str, ...] = (),
):
    """Class decorator registering an engine under ``name``.

    ``modes`` lists the operating modes this engine is the default
    implementation for; :func:`create_engine` resolves ``config.mode``
    through that index.  Engines registered with no modes (pseudo-engines
    and fast-path presets) are only reachable via the explicit ``engine=``
    override.  ``fast_paths`` names the fast paths :func:`create_engine`
    switches on for this preset; stacking the decorator registers one class
    under several presets.
    """

    def decorate(cls):
        if name in _REGISTRY:
            raise EngineRegistryError(f"engine {name!r} is already registered")
        for mode in modes:
            if mode in _MODE_INDEX:
                raise EngineRegistryError(
                    f"mode {mode.value!r} already handled by engine "
                    f"{_MODE_INDEX[mode]!r}"
                )
        _REGISTRY[name] = EngineInfo(
            name=name,
            factory=cls,
            modes=tuple(modes),
            description=description or _first_docstring_line(cls),
            requires_split=requires_split,
            fast_paths=frozenset(fast_paths),
        )
        for mode in modes:
            _MODE_INDEX[mode] = name
        return cls

    return decorate


def _ensure_builtin_engines() -> None:
    """Import the modules whose engines self-register (idempotent)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    from . import analytical_engine, conventional, optimistic  # noqa: F401

    _BUILTINS_LOADED = True


def available_engines() -> Dict[str, EngineInfo]:
    """Name -> info for every registered engine."""
    _ensure_builtin_engines()
    return dict(_REGISTRY)


def _registry_summary() -> str:
    """One-line rendering of every registration and the modes it claims."""
    parts = []
    for name in sorted(_REGISTRY):
        info = _REGISTRY[name]
        modes = ", ".join(mode.value for mode in info.modes) or "no modes; engine= only"
        parts.append(f"{name} ({modes})")
    return "; ".join(parts)


def _unknown_mode_error(mode: OperatingMode) -> "EngineRegistryError":
    close = get_close_matches(mode.value, _REGISTRY, n=3, cutoff=0.6)
    hint = f" (did you mean engine {', '.join(repr(c) for c in close)}?)" if close else ""
    return EngineRegistryError(
        f"no engine registered for operating mode {mode.value!r};{hint} "
        f"registered engines: {_registry_summary()}"
    )


def engine_for_mode(mode: OperatingMode) -> str:
    """The name of the engine that implements ``mode``."""
    _ensure_builtin_engines()
    try:
        return _MODE_INDEX[mode]
    except KeyError:
        raise _unknown_mode_error(mode) from None


def resolve_engine_name(config, engine: Optional[str] = None) -> str:
    """The engine name a ``create_engine`` call would actually instantiate:
    the explicit ``engine=`` when given, else the mode's default engine."""
    if engine is not None:
        return engine
    return engine_for_mode(config.mode)


def get_engine_info(name: str) -> EngineInfo:
    """The registration for ``name``; raises the canonical unknown-engine error."""
    _ensure_builtin_engines()
    try:
        return _REGISTRY[name]
    except KeyError:
        close = get_close_matches(name, _REGISTRY, n=3, cutoff=0.6)
        hint = f" (did you mean {', '.join(repr(c) for c in close)}?)" if close else ""
        raise EngineRegistryError(
            f"unknown engine {name!r};{hint} "
            f"available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def create_engine(
    config: CoEmulationConfig,
    *,
    partition: Optional[Mapping[Domain, HalfBusModel]] = None,
    engine: Optional[str] = None,
) -> Engine:
    """Build the engine for ``config`` over a partitioned system.

    The partition is a ``{DomainId: HalfBusModel}`` mapping matching
    ``config``'s topology (build it with ``SocSpec.build_partition``).
    Selection is by ``config.mode`` through the registry; pass ``engine=``
    to force a specific registration -- a fast-path preset such as
    ``"conventional_trace"``, or ``"analytical"`` for the closed-form
    pseudo-engine, which ignores the partition.
    """
    info = get_engine_info(resolve_engine_name(config, engine))
    if info.requires_split and not partition:
        raise EngineRegistryError(
            f"engine {info.name!r} needs the half bus models of every topology "
            "domain; build them with SocSpec.build_partition()"
        )
    built = info.factory(partition, config)
    if info.fast_paths:
        built.enable_fast_paths(info.fast_paths)
    return built
