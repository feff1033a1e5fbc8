"""Solver parameters, emphasis presets and racing settings.

SCIP exposes thousands of parameters; we model the subset that drives the
paper's experiments — notably the *emphasis* presets (``easycip`` appears
explicitly in the Figure 1 discussion) and the permutation seed whose
performance impact motivates racing ramp-up (citing MIPLIB 2010).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.exceptions import ModelError


@dataclass
class ParamSet:
    """A flat, typed parameter set.

    Attributes mirror the SCIP parameters that matter for this study.
    ``permutation_seed`` permutes branching tie-breaks and separation
    order; racing ramp-up varies it per ParaSolver.
    """

    # limits
    node_limit: int = 10**9
    time_limit: float = float("inf")
    gap_limit: float = 0.0

    # LP / relaxation
    lp_backend: str = "highs"
    max_sepa_rounds: int = 12
    max_sepa_rounds_root: int = 60
    max_cuts_per_round: int = 50

    # tree management
    node_selection: str = "bestbound"  # or "dfs"

    presolve: bool = True

    # heuristic aggressiveness (frequency: run every k-th node; 0 = off)
    heur_frequency: int = 10
    # per-kind plugin whitelists: maps kind -> tuple of plugin names.
    # None = no restriction anywhere; a missing kind = that kind
    # unrestricted; an empty tuple disables the kind.  Racing ramp-up
    # races differently-composed heuristic portfolios (the "heuristic"
    # entry) against each other.
    plugin_whitelists: dict[str, tuple[str, ...]] | None = None

    # robustness: quarantine a non-essential plugin after this many
    # failed callbacks (SCIP-style "disabled for the rest of the solve")
    plugin_max_failures: int = 3
    # advisory memory ceiling; crossing it shrinks the cut pool and
    # throttles heuristics (inf = off, the default — keeps SimEngine
    # runs deterministic)
    soft_memory_limit_mb: float = float("inf")

    # determinism
    permutation_seed: int = 0

    # emphasis name this set was derived from (informational)
    emphasis: str = "default"

    # free-form application-specific knobs (e.g. steiner/extended_reductions)
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # JSON wire codecs decode tuples as lists; normalize so a ParamSet
        # survives an encode -> decode round trip unchanged
        if self.plugin_whitelists is not None:
            self.plugin_whitelists = {
                str(kind): tuple(names) for kind, names in self.plugin_whitelists.items()
            }
        self._validate()

    def _validate(self) -> None:
        from repro.cip.registry import WHITELISTABLE_KINDS, validate_plugin_names

        if self.plugin_whitelists:
            for kind, names in self.plugin_whitelists.items():
                if kind not in WHITELISTABLE_KINDS:
                    raise ModelError(
                        f"plugin_whitelists kind {kind!r} is not whitelistable; "
                        f"choose from {WHITELISTABLE_KINDS}"
                    )
                if names:
                    validate_plugin_names(names, f"plugin_whitelists[{kind!r}]")

    def whitelist_for(self, kind: str) -> tuple[str, ...] | None:
        """Effective whitelist for one plugin kind (None = unrestricted)."""
        return (self.plugin_whitelists or {}).get(kind)

    def with_changes(self, **kwargs: Any) -> "ParamSet":
        """Return a copy with the given fields replaced.

        Unknown ``/``-namespaced keys (``steiner/...``, ``ug/...``) land in
        :attr:`extras` so applications can introduce their own knobs
        without subclassing; any other unknown key is a typo and raises.
        """
        known = {k: v for k, v in kwargs.items() if k in self.__dataclass_fields__ and k != "extras"}
        extra = {k: v for k, v in kwargs.items() if k not in self.__dataclass_fields__}
        typos = sorted(k for k in extra if "/" not in k)
        if typos:
            raise ModelError(f"unknown ParamSet field(s) {typos}; application knobs need a 'ns/' prefix")
        new = replace(self, **known)
        if extra or "extras" in kwargs:
            merged = dict(self.extras)
            merged.update(kwargs.get("extras", {}))
            merged.update(extra)
            new = replace(new, extras=merged)
        return new

    def get_extra(self, key: str, default: Any = None) -> Any:
        return self.extras.get(key, default)


def _emphasis_default() -> ParamSet:
    return ParamSet(emphasis="default")


def _emphasis_easycip() -> ParamSet:
    """The ``easycip`` emphasis: cheap tree, few cuts, frequent heuristics.

    SCIP's easycip targets instances whose difficulty is *not* the LP: it
    reduces separation effort and leans on propagation/heuristics. Figure 1
    of the paper reports it as the most successful racing setting for the
    LP approach on TTD and CLS.
    """
    return ParamSet(
        emphasis="easycip",
        max_sepa_rounds=3,
        max_sepa_rounds_root=10,
        max_cuts_per_round=20,
        heur_frequency=5,
    )


def _emphasis_aggressive() -> ParamSet:
    """Aggressive separation and heuristics — pay per-node cost for bound."""
    return ParamSet(
        emphasis="aggressive",
        max_sepa_rounds=25,
        max_sepa_rounds_root=120,
        max_cuts_per_round=100,
        heur_frequency=2,
    )


def _emphasis_feasibility() -> ParamSet:
    """Find solutions fast: DFS, heuristics every node, little separation."""
    return ParamSet(
        emphasis="feasibility",
        node_selection="dfs",
        heur_frequency=1,
        max_sepa_rounds=2,
        max_sepa_rounds_root=8,
    )


def _emphasis_optimality() -> ParamSet:
    """Prove optimality: best-bound, strong separation, rare heuristics."""
    return ParamSet(
        emphasis="optimality",
        node_selection="bestbound",
        heur_frequency=25,
        max_sepa_rounds=20,
        max_sepa_rounds_root=100,
    )


EMPHASIS_PRESETS = {
    "default": _emphasis_default,
    "easycip": _emphasis_easycip,
    "aggressive": _emphasis_aggressive,
    "feasibility": _emphasis_feasibility,
    "optimality": _emphasis_optimality,
}


def emphasis(name: str) -> ParamSet:
    """Return a fresh :class:`ParamSet` for the named emphasis preset."""
    try:
        return EMPHASIS_PRESETS[name]()
    except KeyError:
        raise ModelError(f"unknown emphasis {name!r}; choose from {sorted(EMPHASIS_PRESETS)}") from None
