"""Risk-directed deoptimization planning over the liveness results.

A speculative inline has three ways to stay sound, forming the strategy
lattice of "OSR a la carte" (D'Elia & Demetrescu):

* **full-guard** -- compile the guard chain with an in-code dispatch
  fallback.  Every entry pays guard cycles forever; a miss stays in
  optimized code and pays one dispatch.
* **cheap-exit-osr** -- compile the site as an extra OSR point (beyond
  the loop back edges): the fast path pays *no* guard cycles because a
  broken speculation triggers a deoptimization exit that maps the live
  frame state out (``osr_map_out_cost`` per live local, the pruned
  live-state map) and finishes the dispatch at the baseline tier.
* **guard-free** -- no guard and no exit: only sound when the receiver
  preexists the activation, so invalidation alone protects every entry
  (PR-8's preexistence elision).

:class:`DeoptPlanner` picks per site by combining three static inputs:
the liveness-derived exit cost (how expensive a mapped exit would be
*here*), the PR-8 speculation risk (whether invalidation-protected
guard-free entry is safe), and the k-CFA precision lattice (whether the
compilation context proves the site monomorphic, i.e. exits would never
be taken).  The decision rule for the ``planned`` strategy dimension:

1. no implementation of the selector other than the guarded target is
   loaded, and the speculation analysis says ``elide`` ->
   **guard-free**;
2. the site is context-monomorphic under k-CFA for this compilation
   context, or the expected per-entry exit cost
   ``(1 - coverage) * (map-out + baseline-dispatch premium)`` is at or
   below one guard test -> **cheap-exit-osr**;
3. otherwise -> **full-guard**.

The ``deopt_strategy`` cost-model dimension selects between ``guard``
(stock: the planner is never consulted for sites), ``osr-exit`` (every
guarded site becomes a cheap-exit OSR point) and ``planned`` (the rule
above).  Everything sits behind ``costs.deopt_planning_enabled``; the
oracle and compiler receive a planner instance by injection and never
import this module (the same layering contract as
:class:`~repro.analysis.dataflow.SpeculationAnalysis`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence, Tuple

from repro.jvm.costs import CostModel, DEFAULT_COSTS, DEOPT_STRATEGIES
from repro.jvm.errors import ConfigError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import MethodDef, Program, Stmt

from repro.analysis.dataflow import ACTION_ELIDE, SpeculationAnalysis
from repro.analysis.liveness import MethodLiveness, method_liveness

__all__ = [
    "DeoptPlan", "DeoptPlanner",
    "STRATEGY_GUARD", "STRATEGY_OSR_EXIT", "STRATEGY_GUARD_FREE",
]

#: The per-site strategy lattice (ordered by per-entry cost).
STRATEGY_GUARD = "full-guard"
STRATEGY_OSR_EXIT = "cheap-exit-osr"
STRATEGY_GUARD_FREE = "guard-free"


class DeoptPlan:
    """The planner's verdict for one guarded call site."""

    __slots__ = ("strategy", "live", "exit_cost", "risk", "ctx_mono")

    def __init__(self, strategy: str, live: FrozenSet[int],
                 exit_cost: float, risk: float, ctx_mono: bool):
        self.strategy = strategy
        self.live = live
        self.exit_cost = exit_cost
        self.risk = risk
        self.ctx_mono = ctx_mono

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DeoptPlan {self.strategy} live={sorted(self.live)} "
                f"exit={self.exit_cost:.1f} risk={self.risk:.3f}>")


class DeoptPlanner:
    """Facade combining liveness, speculation risk, and the k-CFA lattice.

    One instance serves one ``(program, hierarchy)`` pair for the life
    of a run.  Liveness summaries are immutable and cached forever; the
    k-CFA graph is built lazily on the first context query (it depends
    only on declared code, not on the load state); risk queries delegate
    to an internal :class:`SpeculationAnalysis` whose caches key on the
    hierarchy's load generation.
    """

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 costs: CostModel = DEFAULT_COSTS, k: int = 1):
        if costs.deopt_strategy not in DEOPT_STRATEGIES:
            raise ConfigError(
                f"unknown deopt_strategy {costs.deopt_strategy!r}; "
                f"valid strategies: {', '.join(DEOPT_STRATEGIES)}")
        self._program = program
        self._hierarchy = hierarchy
        self._costs = costs
        self._k = k
        self._liveness: Dict[str, MethodLiveness] = {}
        self._kcfa = None
        self.speculation = SpeculationAnalysis(program, hierarchy, costs)

    # -- liveness ----------------------------------------------------------

    def liveness(self, method: MethodDef) -> MethodLiveness:
        cached = self._liveness.get(method.id)
        if cached is None:
            cached = method_liveness(method)
            self._liveness[method.id] = cached
        return cached

    def liveness_for(self, method_id: str) -> MethodLiveness:
        return self.liveness(self._program.method(method_id))

    def site_live(self, method: MethodDef, site: int) -> FrozenSet[int]:
        """Locals live immediately before ``site`` in ``method``."""
        return self.liveness(method).site_live.get(site, frozenset())

    def loop_live_index(self) -> Dict[int, FrozenSet[int]]:
        """``id(loop_stmt) -> live set`` over every method in the program.

        Statement objects are shared with the executing machine, so this
        is what the interpreter charges OSR map-in costs from and what
        the soundness replay checks transfers against.
        """
        index: Dict[int, FrozenSet[int]] = {}
        for method in self._program.methods():
            index.update(self.liveness(method).loop_live_by_id)
        return index

    # -- the k-CFA precision input -----------------------------------------

    def _graph(self):
        if self._kcfa is None:
            from repro.analysis.kcfa import build_kcfa_graph
            self._kcfa = build_kcfa_graph(self._program, self._hierarchy,
                                          k=self._k, costs=self._costs)
        return self._kcfa

    def context_monomorphic(self, site: int,
                            comp_context: Sequence[Tuple[str, int]]) -> bool:
        """Does k-CFA prove ``site`` monomorphic under the compilation
        context (the inline chain's call string, innermost first)?

        The head of ``comp_context`` names the method enclosing the
        site and carries the site's own id; the k-CFA context of the
        site is the chain of *caller* sites above it, so only the tail
        contributes to the known call-string prefix.
        """
        known = tuple(frame_site for _method, frame_site in comp_context[1:])
        targets = self._graph().targets_for_prefix(site, known)
        return len(targets) == 1

    # -- planning ----------------------------------------------------------

    def exit_premium(self, live: FrozenSet[int], interface: bool) -> float:
        """Extra cycles a cheap-exit miss pays over a full-guard miss:
        the mapped-out live state plus finishing the dispatch at the
        baseline tier instead of in optimized code."""
        costs = self._costs
        dispatch = (costs.interface_dispatch if interface
                    else costs.virtual_dispatch)
        tier_premium = dispatch * max(
            0.0, costs.baseline_exec_mult - costs.opt_exec_mult)
        return len(live) * costs.osr_map_out_cost + tier_premium

    def plan_site(self, stmt: Stmt,
                  comp_context: Sequence[Tuple[str, int]],
                  targets: Sequence[MethodDef],
                  coverage: float = 1.0,
                  interface: bool = False) -> DeoptPlan:
        """Choose the deopt strategy for one guarded site.

        ``comp_context`` is the compiler's inline chain innermost first
        (its head names the method enclosing ``stmt``); ``targets`` are
        the guarded inline candidates; ``coverage`` is the oracle's
        profile-weight coverage of those targets (the static guard-hit
        estimate).
        """
        caller_id = comp_context[0][0] if comp_context else None
        live = (self.liveness_for(caller_id).site_live.get(
            stmt.site, frozenset()) if caller_id is not None
            else frozenset())
        exit_cost = float(len(live) * self._costs.osr_map_out_cost)
        if len(targets) == 1:
            _cone, risk = self.speculation.assumption_risk(
                stmt.selector, targets[0])
        else:
            _cone, risk = self.speculation.exhaustive_risk(
                stmt.selector, targets)
        dimension = self._costs.deopt_strategy
        if dimension == "osr-exit":
            return DeoptPlan(STRATEGY_OSR_EXIT, live, exit_cost, risk,
                             ctx_mono=False)
        # "planned": guard-free when invalidation alone is protection
        # enough, cheap-exit when exits are predicted never-taken or
        # cheaper in expectation than the guard chain, full-guard else.
        # Invalidation protects an unguarded entry only while no other
        # implementation of the selector is loaded: the recorded CHA
        # dependency fires on the load that adds one, and nothing fires
        # for one that is loaded already.
        if len(targets) == 1 and self._hierarchy.loaded_targets(
                stmt.selector) <= frozenset((targets[0].id,)):
            verdict = self.speculation.speculate(stmt, comp_context,
                                                 targets[0])
            if verdict.action == ACTION_ELIDE:
                return DeoptPlan(STRATEGY_GUARD_FREE, live, exit_cost,
                                 verdict.risk, ctx_mono=False)
        ctx_mono = self.context_monomorphic(stmt.site, comp_context)
        expected_exit = ((1.0 - min(max(coverage, 0.0), 1.0))
                         * self.exit_premium(live, interface))
        if ctx_mono or expected_exit <= self._costs.guard_test:
            return DeoptPlan(STRATEGY_OSR_EXIT, live, exit_cost, risk,
                             ctx_mono)
        return DeoptPlan(STRATEGY_GUARD, live, exit_cost, risk, ctx_mono)
