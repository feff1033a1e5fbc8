"""Ordered plugin registry — the refactored spine of the CIP kernel.

Historically :class:`~repro.cip.solver.CIPSolver` held one plain python
list per plugin kind.  The registry adds what that shape could not
express: per-kind whitelists that UG racing varies per rank, and
quarantine-aware iteration so containment lives in one place instead of
at every call site.

The registry stores, per kind, an ordered list of entries sorted by
``(-priority, registration tick)``: plugins order by priority with
registration order as the deterministic tie-break (matching the old
``sort(key=-priority)`` stable-sort behaviour exactly).

The module also owns the **plugin-name catalog**: every concrete
:class:`~repro.cip.plugins.Plugin` subclass that declares a ``name``
class attribute is recorded at class-definition time (via
``Plugin.__init_subclass__``), and :func:`validate_plugin_names` checks
user-supplied whitelists against it so a typo fails at ``ParamSet``
construction instead of silently disabling every plugin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.exceptions import ModelError, PluginError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cip.plugins import Plugin, Relaxator
    from repro.cip.quarantine import PluginQuarantine

#: every plugin kind the kernel iterates; "relaxator" is a singleton slot
PLUGIN_KINDS = (
    "presolver",
    "propagator",
    "separator",
    "heuristic",
    "branching",
    "conshdlr",
    "event",
    "relaxator",
)

#: kinds a ParamSet whitelist may restrict.  Constraint handlers and the
#: relaxator are deliberately excluded: they own feasibility (``check``)
#: and bounding semantics, so filtering them out would silently change
#: what problem is being solved.
WHITELISTABLE_KINDS = ("presolver", "propagator", "separator", "heuristic", "branching", "event")


# -- plugin-name catalog ----------------------------------------------------

_KNOWN_PLUGIN_NAMES: set[str] = set()
_CATALOG_LOADED = False

#: modules whose import registers every first-party plugin class with the
#: catalog (via ``Plugin.__init_subclass__``); imported lazily the first
#: time a whitelist needs validating, so plain kernel use pays nothing
_CATALOG_MODULES = (
    "repro.cip.propagation",
    "repro.cip.branching",
    "repro.cip.heuristics",
    "repro.steiner.branching",
    "repro.steiner.solver",
    "repro.steiner.separators",
    "repro.steiner.prize_collecting",
    "repro.sdp.eigcuts",
    "repro.sdp.branching",
    "repro.sdp.propagators",
    "repro.sdp.relaxator",
    "repro.sdp.heuristics",
)


def note_plugin_name(name: object) -> None:
    """Record a plugin name in the catalog (called from class creation)."""
    if isinstance(name, str) and name and name != "plugin":
        _KNOWN_PLUGIN_NAMES.add(name)


def ensure_plugin_catalog() -> None:
    """Import the first-party plugin modules once so the catalog is full."""
    global _CATALOG_LOADED
    if _CATALOG_LOADED:
        return
    _CATALOG_LOADED = True
    import importlib

    for mod in _CATALOG_MODULES:
        try:
            importlib.import_module(mod)
        except ImportError:  # pragma: no cover - optional app module absent
            pass


def known_plugin_names() -> frozenset[str]:
    ensure_plugin_catalog()
    return frozenset(_KNOWN_PLUGIN_NAMES)


def validate_plugin_names(names: Iterable[str], where: str) -> None:
    """Raise :class:`ModelError` when a name is not in the catalog.

    The catalog is populated from class definitions, so any imported
    ``Plugin`` subclass with a ``name`` class attribute — first-party or
    test-local — validates.  Dynamically named instances must register
    their name via :func:`note_plugin_name` before a ``ParamSet``
    whitelists them.
    """
    ensure_plugin_catalog()
    unknown = sorted({str(n) for n in names} - _KNOWN_PLUGIN_NAMES)
    if unknown:
        raise ModelError(
            f"{where} names unknown plugin(s) {unknown}; known plugins: "
            f"{sorted(_KNOWN_PLUGIN_NAMES)}"
        )


# -- the registry -----------------------------------------------------------


@dataclass
class _Entry:
    plugin: "Plugin"
    tick: int

    def sort_key(self) -> tuple[int, int]:
        return (-self.plugin.priority, self.tick)


class PluginRegistry:
    """Ordered, kind-partitioned plugin store with filtered iteration."""

    def __init__(self) -> None:
        self._entries: dict[str, list[_Entry]] = {kind: [] for kind in PLUGIN_KINDS}
        self._tick = 0

    @staticmethod
    def _check_kind(kind: str) -> None:
        if kind not in PLUGIN_KINDS:
            raise PluginError(f"unknown plugin kind {kind!r}; choose from {PLUGIN_KINDS}")

    def register(self, kind: str, plugin: "Plugin") -> None:
        """Add one plugin; ordering is (-priority, arrival)."""
        self._check_kind(kind)
        entries = self._entries[kind]
        if any(e.plugin.name == plugin.name for e in entries):
            raise PluginError(f"plugin {plugin.name!r} registered twice")
        if kind == "relaxator" and entries:
            raise PluginError("a relaxator is already installed")
        note_plugin_name(getattr(plugin, "name", None))
        entries.append(_Entry(plugin, self._tick))
        self._tick += 1
        entries.sort(key=_Entry.sort_key)

    def remove(self, kind: str, name: str) -> bool:
        """Drop the named plugin; True when something was removed."""
        self._check_kind(kind)
        entries = self._entries[kind]
        kept = [e for e in entries if e.plugin.name != name]
        removed = len(kept) != len(entries)
        self._entries[kind] = kept
        return removed

    def clear(self, kind: str) -> None:
        self._check_kind(kind)
        self._entries[kind] = []

    def plugins(self, kind: str) -> list["Plugin"]:
        """All plugins of a kind in execution order (no filtering)."""
        self._check_kind(kind)
        return [e.plugin for e in self._entries[kind]]

    def get(self, kind: str, name: str) -> "Plugin | None":
        self._check_kind(kind)
        for e in self._entries[kind]:
            if e.plugin.name == name:
                return e.plugin
        return None

    def names(self, kind: str) -> tuple[str, ...]:
        return tuple(p.name for p in self.plugins(kind))

    @property
    def relaxator(self) -> "Relaxator | None":
        entries = self._entries["relaxator"]
        return entries[0].plugin if entries else None  # type: ignore[return-value]

    def active(
        self,
        kind: str,
        quarantine: "PluginQuarantine | None" = None,
        whitelist: Sequence[str] | None = None,
    ) -> list["Plugin"]:
        """Execution-ordered plugins surviving whitelist + quarantine.

        ``whitelist=None`` means "no restriction"; an empty sequence
        disables the whole kind.
        """
        out = []
        for plugin in self.plugins(kind):
            if whitelist is not None and plugin.name not in whitelist:
                continue
            if quarantine is not None and quarantine.is_quarantined(plugin.name):
                continue
            out.append(plugin)
        return out

    def spec(self) -> dict[str, list[str]]:
        """Wire-codec-safe description: kind -> ordered plugin names.

        Plain dict of lists of strings, so it passes through the UG JSON
        wire codec untouched — the LoadCoordinator traces each rank's
        effective plugin composition from this.
        """
        return {kind: list(self.names(kind)) for kind in PLUGIN_KINDS if self._entries[kind]}
