"""Configuration: the ``[tool.repro-lint]`` block of ``pyproject.toml``.

Recognised keys::

    [tool.repro-lint]
    exclude = ["tests/lint/fixtures"]      # glob patterns or dir prefixes
    select  = ["REP001", "REP002"]         # only these rules (default: all)
    ignore  = ["REP006"]                   # drop these rules everywhere
    analysis = true                        # whole-program REP1xx by default

    [[tool.repro-lint.per-path]]           # ordered, later entries win
    path = "src/repro/sim/rng.py"          # fnmatch pattern vs. posix rel path
    disable = ["REP001"]
    # enable = [...] re-enables codes a broader entry (or `ignore`) removed

    [tool.repro-lint.layers]               # REP200/REP201 layer map
    order = ["sim", "network", "protocol", "scenarios"]   # bottom -> top
    confined = ["protocol"]                # layers needing touchpoints (REP201)
    engine-touchpoints = [                 # allowlisted engine access sites
        "Dispatcher.publish",              # Class.method or full dotted
        "repro.recovery.base.*",           # qualname; fnmatch patterns
    ]

    [tool.repro-lint.layers.members]       # layer -> module-name prefixes
    sim = ["repro.sim"]
    protocol = ["repro.pubsub", "repro.recovery"]

    [tool.repro-lint.slots]                # REP203 allowlist
    exempt = ["repro.pubsub.pattern.PatternSpace"]

    [tool.repro-lint.rng-streams]          # REP204: subsystem -> name patterns
    "repro.recovery" = ["gossip[*"]

    [tool.repro-lint.ownership]            # REP301 shared-service contract
    shared-services = [                    # classes *declared* to be shared
        "repro.pubsub.pattern.PatternSpace",   # across nodes on purpose —
        "EventIdRegistry",                     # fnmatch over qualname, bare
    ]                                          # name, and Storer.attr homes

    [tool.repro-lint.durable]              # REP306 durable-module registry
    modules = [                            # files whose on-disk artifacts
        "src/repro/campaign/*",            # must survive a crash mid-write;
        "repro.campaign.*",                # path or dotted-name fnmatch
    ]

Paths in patterns are matched against the file's path relative to the
directory containing ``pyproject.toml`` (the *config root*), in POSIX form.
A file *outside* the config root has no such relative form and is matched
by its absolute POSIX path instead — root-relative patterns like
``tests/lint/fixtures`` will not apply to it (basename-style globs such as
``*_pb2.py`` still do, since ``*`` matches across ``/``).
"""

from __future__ import annotations

import fnmatch

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Set, Tuple

__all__ = [
    "LintConfig",
    "PerPath",
    "LayersConfig",
    "SlotsConfig",
    "OwnershipConfig",
    "DurableConfig",
    "load_config",
    "find_pyproject",
]


@dataclass(frozen=True)
class PerPath:
    """One per-path override: disable/enable rule codes under a pattern."""

    pattern: str
    disable: Tuple[str, ...] = ()
    enable: Tuple[str, ...] = ()


@dataclass(frozen=True)
class LayersConfig:
    """``[tool.repro-lint.layers]``: the declared architecture (REP200/201).

    ``order`` lists layer names bottom (engine) to top (scenarios);
    ``members`` maps each layer to the module-name prefixes it owns.
    ``confined`` names the layers whose code may only reach the engine
    through ``engine_touchpoints`` (fnmatch patterns over both the full
    dotted qualname and the short ``Class.method`` form).  An empty
    ``order`` leaves REP200/REP201 inert.
    """

    order: Tuple[str, ...] = ()
    members: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    confined: Tuple[str, ...] = ()
    engine_touchpoints: Tuple[str, ...] = ()

    def layer_of(self, module_name: str) -> Optional[str]:
        """The layer owning ``module_name`` (longest prefix wins)."""
        best: Optional[str] = None
        best_len = -1
        for layer, prefixes in self.members:
            for prefix in prefixes:
                if module_name == prefix or module_name.startswith(prefix + "."):
                    if len(prefix) > best_len:
                        best, best_len = layer, len(prefix)
        return best

    def index_of(self, layer: str) -> int:
        return self.order.index(layer)

    def is_touchpoint(self, *names: str) -> bool:
        """True when any of ``names`` matches a touchpoint pattern."""
        return any(
            fnmatch.fnmatch(name, pattern)
            for name in names
            for pattern in self.engine_touchpoints
        )


@dataclass(frozen=True)
class SlotsConfig:
    """``[tool.repro-lint.slots]``: REP203's ``__slots__`` allowlist.

    ``exempt`` holds fnmatch patterns over the dotted class qualname
    (``repro.pubsub.cache.EventCache``) and the bare class name.
    """

    exempt: Tuple[str, ...] = ()

    def is_exempt(self, *names: str) -> bool:
        return any(
            fnmatch.fnmatch(name, pattern)
            for name in names
            for pattern in self.exempt
        )


@dataclass(frozen=True)
class OwnershipConfig:
    """``[tool.repro-lint.ownership]``: the REP301 shared-service contract.

    ``shared_services`` holds fnmatch patterns naming the classes that are
    *deliberately* one-per-simulation and aliased into every node — interners
    and registries whose replicate-or-centralize decision is a declared
    partition seam, not an accident.  Patterns match the shared class's
    dotted qualname, its bare name, and every ``Storer.attr`` home the
    object is captured at.  Anything else reachable-and-mutated from two
    node instances is a REP301 finding.
    """

    shared_services: Tuple[str, ...] = ()

    def is_declared(self, *names: str) -> bool:
        return any(
            fnmatch.fnmatch(name, pattern)
            for name in names
            for pattern in self.shared_services
        )


@dataclass(frozen=True)
class DurableConfig:
    """``[tool.repro-lint.durable]``: the REP306 durable-module registry.

    ``modules`` holds fnmatch patterns naming the modules whose on-disk
    artifacts must survive a crash mid-write (journals, manifests,
    checkpoints).  Patterns match both the file's root-relative POSIX
    path (``src/repro/campaign/*``) and its dotted module name
    (``repro.campaign.*``).  An empty list leaves REP306 inert.
    """

    modules: Tuple[str, ...] = ()

    def is_durable(self, *names: str) -> bool:
        return any(
            fnmatch.fnmatch(name, pattern)
            for name in names
            for pattern in self.modules
        )


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration."""

    root: Path = field(default_factory=Path.cwd)
    exclude: Tuple[str, ...] = ()
    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    per_path: Tuple[PerPath, ...] = ()
    #: run the whole-program REP1xx analysis by default (CLI flags win).
    analysis: bool = False
    #: declared layer map; empty ``order`` leaves REP200/REP201 inert.
    layers: LayersConfig = field(default_factory=LayersConfig)
    #: REP203 allowlist.
    slots: SlotsConfig = field(default_factory=SlotsConfig)
    #: REP204 discipline: subsystem module prefix -> allowed stream-name
    #: fnmatch patterns.  Empty means "any literal name" (only dynamic
    #: names are flagged).
    rng_streams: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    #: REP301 declared shared services.
    ownership: OwnershipConfig = field(default_factory=OwnershipConfig)
    #: REP306 registry; empty ``modules`` leaves the rule inert.
    durable: DurableConfig = field(default_factory=DurableConfig)

    def rel_path(self, path: Path) -> str:
        """``path`` relative to the config root, in POSIX form.

        Files outside the root fall back to their absolute POSIX path, so
        root-relative ``exclude``/``per-path`` patterns never match them;
        only basename-style globs (``*_pb2.py``) do.
        """
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return resolved.as_posix()

    def is_excluded(self, rel: str) -> bool:
        for pattern in self.exclude:
            clean = pattern.rstrip("/")
            if (
                fnmatch.fnmatch(rel, clean)
                or fnmatch.fnmatch(rel, clean + "/*")
                or rel.startswith(clean + "/")
            ):
                return True
        return False

    def enabled_codes(self, rel: str, all_codes: Iterable[str]) -> Set[str]:
        """The rule codes in force for the file at ``rel``."""
        codes = set(self.select) if self.select else set(all_codes)
        codes -= set(self.ignore)
        for entry in self.per_path:
            if fnmatch.fnmatch(rel, entry.pattern):
                codes -= set(entry.disable)
                codes |= set(entry.enable)
        return codes


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` looking for a ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(pyproject: Path) -> LintConfig:
    """Parse ``[tool.repro-lint]`` out of ``pyproject`` (missing block ok)."""
    if tomllib is None:
        raise RuntimeError(
            f"cannot read {pyproject}: tomllib needs Python 3.11+ "
            "(or the tomli backport on 3.10); install tomli or run "
            "with --isolated"
        )
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-lint", {})
    per_path = tuple(
        PerPath(
            pattern=str(entry["path"]),
            disable=tuple(entry.get("disable", ())),
            enable=tuple(entry.get("enable", ())),
        )
        for entry in table.get("per-path", ())
    )
    layers_table = table.get("layers", {})
    layers = LayersConfig(
        order=tuple(str(l) for l in layers_table.get("order", ())),
        members=tuple(
            (str(layer), tuple(str(p) for p in prefixes))
            for layer, prefixes in layers_table.get("members", {}).items()
        ),
        confined=tuple(str(l) for l in layers_table.get("confined", ())),
        engine_touchpoints=tuple(
            str(t) for t in layers_table.get("engine-touchpoints", ())
        ),
    )
    slots_table = table.get("slots", {})
    slots = SlotsConfig(
        exempt=tuple(str(p) for p in slots_table.get("exempt", ()))
    )
    rng_streams = tuple(
        (str(prefix), tuple(str(p) for p in patterns))
        for prefix, patterns in table.get("rng-streams", {}).items()
    )
    ownership_table = table.get("ownership", {})
    ownership = OwnershipConfig(
        shared_services=tuple(
            str(p) for p in ownership_table.get("shared-services", ())
        )
    )
    durable_table = table.get("durable", {})
    durable = DurableConfig(
        modules=tuple(str(p) for p in durable_table.get("modules", ()))
    )
    return LintConfig(
        root=pyproject.parent,
        exclude=tuple(table.get("exclude", ())),
        select=tuple(table.get("select", ())),
        ignore=tuple(table.get("ignore", ())),
        per_path=per_path,
        analysis=bool(table.get("analysis", False)),
        layers=layers,
        slots=slots,
        rng_streams=rng_streams,
        ownership=ownership,
        durable=durable,
    )


def config_for_paths(paths: Sequence[Path]) -> LintConfig:
    """Locate and load the config governing ``paths`` (first hit wins)."""
    for path in paths:
        pyproject = find_pyproject(path)
        if pyproject is not None:
            return load_config(pyproject)
    return LintConfig()
