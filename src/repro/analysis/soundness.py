"""Dynamic soundness checking: static target sets must contain every
observed dispatch edge, at every precision tier.

The static call graphs are only useful if they *over-approximate*
execution: a (site -> target) edge the machine actually dispatches that a
static target set does not contain would mean the verifier, the static
oracles, and every report built on the graphs are reasoning about a
different program than the one that runs.  This module replays a
fixed-seed run with the machine's zero-cost ``dispatch_observer`` hook
attached, collects every dynamically executed dispatch edge (optionally
qualified by the source-level calling context read off the shadow
stack), and checks containment site by site.

:func:`check_soundness` checks one flat graph (CHA by default);
:func:`check_lattice_soundness` checks the whole precision chain
``observed ⊆ kCFA(ctx) ⊆ ... ⊆ 0CFA ⊆ RTA ⊆ CHA`` from a single replay,
with the k-CFA tiers checked *context-conditioned*: an edge only counts
as contained when the target set of the specific truncated call string
it executed under contains it.  Each violation carries a ``code`` naming
the tier that broke (``unsound-cha``, ``unsound-1cfa``, ...).

The same machinery feeds decision-diff *attribution*: a flip between two
runs at a site the static graph proves monomorphic cannot be explained by
profile evidence (both oracles see the same sole target -- the flip is a
budget/ordering effect), while a flip at a statically polymorphic site is
exactly where static and profile-directed inlining disagree.  ``repro
decisions diff --attribute-static`` renders that classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.callgraph import (CHA, RTA, StaticCallGraph,
                                      build_call_graph)
from repro.analysis.kcfa import (CallString, ContextSensitiveCallGraph,
                                 build_kcfa_graph, truncate)
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.program import Program
from repro.provenance.diff import DecisionDiff, Flip

#: Static call graphs already built for one program, keyed by tier name
#: (``"cha"``, ``"rta"``, ``"<k>cfa"``); see :func:`static_graph`.
StaticGraphs = Dict[str, object]


def static_graph(program: Program, tier: str,
                 costs: CostModel = DEFAULT_COSTS,
                 graphs: Optional[StaticGraphs] = None):
    """The ``tier`` call graph of ``program``, built at most once per
    ``graphs`` memo (which it fills); without one, built afresh."""
    graph = graphs.get(tier) if graphs is not None else None
    if graph is None:
        if tier in (CHA, RTA):
            graph = build_call_graph(program, precision=tier, costs=costs)
        else:
            graph = build_kcfa_graph(program, k=int(tier[:-len("cfa")]),
                                     costs=costs)
        if graphs is not None:
            graphs[tier] = graph
    return graph


#: Attribution buckets for decision-diff flips.
ATTR_STATIC_DECIDED = "static-decided"    #: CHA-monomorphic site
ATTR_PROFILE_DECIDED = "profile-decided"  #: CHA-polymorphic dispatch site
ATTR_UNKNOWN_SITE = "unknown-site"        #: site absent from the graph


@dataclass(frozen=True)
class SoundnessViolation:
    """One dynamically observed edge outside the static target set."""

    site: int
    caller: str
    selector: str
    observed: str                 #: dynamically executed target id
    allowed: Tuple[str, ...]      #: the static target set at the site
    tier: str = CHA               #: precision tier whose set was violated
    #: dynamic call string the edge executed under, for tiers checked
    #: context-conditioned (None for flat tiers)
    context: Optional[CallString] = None

    @property
    def code(self) -> str:
        """Stable violation code naming the tier that broke."""
        return f"unsound-{self.tier}"

    def describe(self) -> str:
        where = f"site {self.site} in {self.caller} ({self.selector})"
        if self.context is not None:
            where += f" ctx={list(self.context)}"
        return (f"[{self.code}] {where}: "
                f"executed {self.observed}, static set "
                f"{{{', '.join(self.allowed) or ''}}}")


@dataclass(frozen=True)
class SoundnessReport:
    """Outcome of one containment check (static graph vs one run)."""

    program_name: str
    precision: str
    sites_observed: int           #: dispatch sites that executed
    edges_observed: int           #: distinct (site, target) edges seen
    violations: Tuple[SoundnessViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (f"soundness {self.program_name} [{self.precision}]: "
                f"{self.edges_observed} dynamic edges over "
                f"{self.sites_observed} sites: ")
        if self.ok:
            return head + "contained"
        lines = [head + f"{len(self.violations)} VIOLATION(S)"]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        return "\n".join(lines)


def observe_dispatch_edges(program: Program, policy=None,
                           costs: CostModel = DEFAULT_COSTS,
                           phase: float = 0.0) \
        -> Dict[int, FrozenSet[str]]:
    """Run the program once and collect every executed dispatch edge.

    Runs the full adaptive system (the seed-deterministic fixed-phase run
    the acceptance check calls for), with the machine's
    ``dispatch_observer`` hook recording the resolved target of every
    virtual/interface dispatch -- guarded, devirtualized, or plain.
    Observation is pure instrumentation: it charges no cycles and changes
    no decisions.
    """
    from repro.aos.runtime import AdaptiveRuntime
    from repro.policies import make_policy

    if policy is None:
        policy = make_policy("cins", costs=costs)
    runtime = AdaptiveRuntime(program, policy, costs, sample_phase=phase)
    observed: Dict[int, set] = {}

    def observer(site: int, target_id: str) -> None:
        observed.setdefault(site, set()).add(target_id)

    runtime.machine.dispatch_observer = observer
    runtime.run()
    return {site: frozenset(targets) for site, targets in observed.items()}


def check_containment(graph: StaticCallGraph,
                      observed: Dict[int, FrozenSet[str]]) \
        -> SoundnessReport:
    """Assert every observed (site -> target) edge is in the static set."""
    violations: List[SoundnessViolation] = []
    edges = 0
    for site in sorted(observed):
        targets = observed[site]
        edges += len(targets)
        allowed = graph.targets(site)
        info = graph.sites.get(site)
        for target in sorted(targets - allowed):
            violations.append(SoundnessViolation(
                site=site,
                caller=info.caller if info is not None else "<unknown>",
                selector=info.selector if info is not None else "<unknown>",
                observed=target,
                allowed=tuple(sorted(allowed)),
                tier=graph.precision))
    return SoundnessReport(
        program_name=graph.program_name, precision=graph.precision,
        sites_observed=len(observed), edges_observed=edges,
        violations=tuple(violations))


def check_soundness(program: Program,
                    graph: Optional[StaticCallGraph] = None, policy=None,
                    costs: CostModel = DEFAULT_COSTS,
                    phase: float = 0.0) -> SoundnessReport:
    """End-to-end check: build the CHA graph (unless given), replay a
    fixed-seed run, and verify CHA target sets contain what executed."""
    if graph is None:
        graph = build_call_graph(program, precision=CHA, costs=costs)
    observed = observe_dispatch_edges(program, policy=policy, costs=costs,
                                      phase=phase)
    return check_containment(graph, observed)


# -- guard-elision replay ------------------------------------------------------


@dataclass(frozen=True)
class ElisionViolation:
    """One elided-guard entry whose compiled-out test would have failed.

    The machine enters the inlined body behind an elided guard without
    testing anything; the elision is sound only if full dispatch would
    have picked the same target every time.  ``entered != resolved``
    means the speculation analysis let a wrong body run.
    """

    site: int
    elision_kind: str            #: "preexist" or "dominated"
    entered: str                 #: target whose inlined body was entered
    resolved: str                #: what full dispatch would have called
    count: int = 1               #: dynamic occurrences on this run

    @property
    def code(self) -> str:
        return f"unsound-elision-{self.elision_kind}"

    def describe(self) -> str:
        return (f"[{self.code}] site {self.site}: entered {self.entered} "
                f"but dispatch resolves {self.resolved} ({self.count}x)")


@dataclass(frozen=True)
class ElisionReport:
    """Outcome of one fixed-seed replay with guard elision enabled."""

    program_name: str
    elided_entries: int           #: inline entries through an elided guard
    guard_tests: int              #: guard tests still executed
    guard_misses: int             #: guarded sites where every guard failed
    total_cycles: float
    violations: Tuple[ElisionViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (f"elision replay {self.program_name}: "
                f"{self.elided_entries} elided entries, "
                f"{self.guard_tests} guard tests: ")
        if self.ok:
            return head + "no elided guard would have failed"
        lines = [head + f"{len(self.violations)} VIOLATION(S)"]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        return "\n".join(lines)


def check_elision_soundness(program: Program, policy=None,
                            costs: CostModel = DEFAULT_COSTS,
                            phase: float = 0.0) -> ElisionReport:
    """Replay with speculation enabled; assert no elided guard would fire.

    Forces ``speculation_enabled`` on (the elision machinery is opt-in
    everywhere else), runs the fixed-seed adaptive system with the
    machine's zero-cost ``elision_observer`` hook attached, and checks
    that every entry through an elided guard entered exactly the target
    a full dispatch would have resolved.  For preexistence elisions this
    certifies the invalidation cone did its job; for dominance elisions
    it certifies the acceptance-set containment argument.
    """
    from repro.aos.runtime import AdaptiveRuntime
    from repro.policies import make_policy

    if not costs.speculation_enabled:
        costs = costs.replace(speculation_enabled=True)
    if policy is None:
        policy = make_policy("cins", costs=costs)
    runtime = AdaptiveRuntime(program, policy, costs, sample_phase=phase)
    mismatches: Dict[Tuple[int, str, str, str], int] = {}

    def observer(site: int, kind: str, entered: str, resolved: str) -> None:
        if entered != resolved:
            key = (site, kind, entered, resolved)
            mismatches[key] = mismatches.get(key, 0) + 1

    runtime.machine.elision_observer = observer
    result = runtime.run()
    stats = runtime.machine.stats
    violations = tuple(
        ElisionViolation(site=site, elision_kind=kind, entered=entered,
                         resolved=resolved, count=count)
        for (site, kind, entered, resolved), count
        in sorted(mismatches.items()))
    return ElisionReport(
        program_name=program.name,
        elided_entries=stats.elided_entries,
        guard_tests=stats.guard_tests,
        guard_misses=stats.guard_misses,
        total_cycles=result.total_cycles,
        violations=violations)


# -- OSR live-state replay -----------------------------------------------------


@dataclass(frozen=True)
class OSRViolation:
    """One post-transfer local read the static live set failed to cover.

    After an OSR transition (loop entry onto optimized code, or a
    cheap-exit deoptimization) only the statically-computed live set is
    mapped across the tier boundary.  A read of a slot outside that set
    -- not preceded by a post-transfer write of the same slot -- means
    the transition would have read garbage in a real VM.
    """

    method: str
    kind: str                    #: "osr-entry" or "deopt-exit"
    where: str                   #: loop path, or "site N" for exits
    index: int                   #: the local slot read
    live: Tuple[int, ...]        #: the static live set at the point
    count: int = 1               #: dynamic occurrences on this run

    @property
    def code(self) -> str:
        return f"unsound-live-{self.kind}"

    def describe(self) -> str:
        return (f"[{self.code}] {self.method} {self.where}: read local "
                f"{self.index} outside live set "
                f"{{{', '.join(map(str, self.live))}}} ({self.count}x)")


@dataclass(frozen=True)
class OSRReport:
    """Outcome of one fixed-seed replay with deopt planning enabled."""

    program_name: str
    osr_transfers: int            #: loop OSR entries watched
    deopt_entries: int            #: zero-cost entries at cheap-exit sites
    deopt_exits: int              #: deoptimization exits watched
    reads_checked: int            #: local reads in watched activations
    total_cycles: float
    violations: Tuple[OSRViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (f"osr soundness {self.program_name}: "
                f"{self.osr_transfers} loop transfer(s), "
                f"{self.deopt_exits} deopt exit(s), "
                f"{self.reads_checked} watched read(s): ")
        if self.ok:
            return head + "live sets cover every read"
        lines = [head + f"{len(self.violations)} VIOLATION(S)"]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        return "\n".join(lines)


def check_osr_soundness(program: Program, policy=None,
                        costs: CostModel = DEFAULT_COSTS,
                        phase: float = 0.0) -> OSRReport:
    """Replay with deopt planning on; assert live sets cover every read.

    Forces ``deopt_planning_enabled`` and the ``planned`` strategy (the
    configuration exercising both OSR-point flavours), runs the
    fixed-seed adaptive system with the machine's zero-cost transition
    observers and local-access probe attached, and checks the soundness
    contract of the liveness analysis: from each transition onward,
    every local the interpreter actually reads in the transferred
    activation is either in the statically-computed live set that was
    mapped across, or was re-written after the transfer (reads after a
    post-transfer write never consult mapped state).
    """
    from repro.analysis.liveness import _loop_paths
    from repro.aos.runtime import AdaptiveRuntime
    from repro.policies import make_policy

    if not costs.deopt_planning_enabled or costs.deopt_strategy != "planned":
        costs = costs.replace(deopt_planning_enabled=True,
                              deopt_strategy="planned")
    if policy is None:
        policy = make_policy("cins", costs=costs)
    runtime = AdaptiveRuntime(program, policy, costs, sample_phase=phase)

    loop_paths: Dict[int, str] = {}
    for method in program.methods():
        loop_paths.update(_loop_paths(method))

    # id(locals_) -> [locals_ref, live, written, method_id, kind, where].
    # The strong reference to the locals list pins its id for the whole
    # run, so a recycled id can never alias a watched activation.
    watched: Dict[int, list] = {}
    counts: Dict[Tuple[str, str, str, int, Tuple[int, ...]], int] = {}
    reads_checked = [0]

    def watch(locals_, live, method_id: str, kind: str, where: str) -> None:
        watched[id(locals_)] = [locals_, frozenset(live), set(),
                                method_id, kind, where]

    def on_osr_entry(method_id, loop_stmt, locals_) -> None:
        index = runtime.machine.osr_liveness or {}
        watch(locals_, index.get(id(loop_stmt), frozenset()), method_id,
              "osr-entry", loop_paths.get(id(loop_stmt), "<loop>"))

    def on_deopt_exit(site, exit_live, locals_) -> None:
        frame = runtime.machine.stack[-1]
        watch(locals_, exit_live, frame.method.id, "deopt-exit",
              f"site {site}")

    def probe(locals_, index: int, is_read: bool) -> None:
        entry = watched.get(id(locals_))
        if entry is None or entry[0] is not locals_:
            return
        if not is_read:
            entry[2].add(index)
            return
        reads_checked[0] += 1
        if index in entry[1] or index in entry[2]:
            return
        key = (entry[3], entry[4], entry[5], index,
               tuple(sorted(entry[1])))
        counts[key] = counts.get(key, 0) + 1

    runtime.machine.osr_entry_observer = on_osr_entry
    runtime.machine.deopt_exit_observer = on_deopt_exit
    runtime.machine.local_probe = probe
    result = runtime.run()
    stats = runtime.machine.stats
    violations = tuple(
        OSRViolation(method=method, kind=kind, where=where, index=index,
                     live=live, count=count)
        for (method, kind, where, index, live), count
        in sorted(counts.items()))
    return OSRReport(
        program_name=program.name,
        osr_transfers=stats.osr_transfers,
        deopt_entries=stats.deopt_entries,
        deopt_exits=stats.deopt_exits,
        reads_checked=reads_checked[0],
        total_cycles=result.total_cycles,
        violations=violations)


# -- context-conditioned observation and the full precision chain --------------

#: (site, dynamic call string) -> executed target -> dispatch count.
ContextEdges = Dict[Tuple[int, CallString], Dict[str, int]]


def observe_context_edges(program: Program, k: int = 2, policy=None,
                          costs: CostModel = DEFAULT_COSTS,
                          phase: float = 0.0) -> ContextEdges:
    """Replay once and collect dispatch edges qualified by calling context.

    The dynamic call string is read off the machine's source-level shadow
    stack at dispatch time -- innermost-first call-site ids, truncated to
    ``k`` -- so inlined activations contribute their sites exactly as a
    CCT walk would see them.  Counts are per executed dispatch, which
    makes the result double as the fixed-seed dynamic CCT the precision
    score compares k-CFA predictions against.
    """
    from repro.aos.runtime import AdaptiveRuntime
    from repro.policies import make_policy

    if policy is None:
        policy = make_policy("cins", costs=costs)
    runtime = AdaptiveRuntime(program, policy, costs, sample_phase=phase)
    stack = runtime.machine.stack
    edges: Dict[Tuple[int, CallString], Dict[str, int]] = {}

    def observer(site: int, target_id: str) -> None:
        chain: List[int] = []
        for frame in reversed(stack):
            if frame.site is None or len(chain) >= k:
                break
            chain.append(frame.site)
        slot = edges.setdefault((site, tuple(chain)), {})
        slot[target_id] = slot.get(target_id, 0) + 1

    runtime.machine.dispatch_observer = observer
    runtime.run()
    return edges


def flatten_context_edges(edges: ContextEdges) -> Dict[int, FrozenSet[str]]:
    """Drop contexts: the per-site edge sets flat tiers are checked with."""
    out: Dict[int, set] = {}
    for (site, _ctx), targets in edges.items():
        out.setdefault(site, set()).update(targets)
    return {site: frozenset(targets) for site, targets in out.items()}


def truncate_context_edges(edges: ContextEdges, k: int) -> ContextEdges:
    """Re-key edges on call strings truncated to ``k`` (counts summed)."""
    out: ContextEdges = {}
    for (site, ctx), targets in edges.items():
        slot = out.setdefault((site, truncate(ctx, k)), {})
        for target, count in targets.items():
            slot[target] = slot.get(target, 0) + count
    return out


def check_context_containment(graph: ContextSensitiveCallGraph,
                              edges: ContextEdges) -> SoundnessReport:
    """Context-conditioned containment: each observed edge must be in the
    target set of the *specific* truncated call string it ran under."""
    truncated = truncate_context_edges(edges, graph.k)
    violations: List[SoundnessViolation] = []
    sites = set()
    n_edges = 0
    for site, ctx in sorted(truncated):
        targets = truncated[(site, ctx)]
        sites.add(site)
        n_edges += len(targets)
        allowed = graph.targets(site, context=ctx)
        info = graph.sites.get(site)
        for target in sorted(set(targets) - allowed):
            violations.append(SoundnessViolation(
                site=site,
                caller=info.caller if info is not None else "<unknown>",
                selector=info.selector if info is not None else "<unknown>",
                observed=target,
                allowed=tuple(sorted(allowed)),
                tier=graph.precision,
                context=ctx))
    return SoundnessReport(
        program_name=graph.program_name, precision=graph.precision,
        sites_observed=len(sites), edges_observed=n_edges,
        violations=tuple(violations))


@dataclass(frozen=True)
class LatticeSoundnessReport:
    """Containment of one replay against the whole precision chain."""

    program_name: str
    #: one section per tier, coarsest (CHA) first
    sections: Tuple[SoundnessReport, ...]

    @property
    def ok(self) -> bool:
        return all(section.ok for section in self.sections)

    def violation_codes(self) -> Tuple[str, ...]:
        """Sorted distinct codes of the tiers that broke (empty when ok)."""
        return tuple(sorted({v.code for section in self.sections
                             for v in section.violations}))

    def render(self) -> str:
        status = ("contained at every tier" if self.ok else
                  f"BROKEN tiers: {', '.join(self.violation_codes())}")
        lines = [f"lattice soundness {self.program_name}: {status}"]
        lines.extend("  " + section.render().replace("\n", "\n  ")
                     for section in self.sections)
        return "\n".join(lines)


def check_lattice_soundness(program: Program, ks: Tuple[int, ...] = (0, 1, 2),
                            policy=None,
                            costs: CostModel = DEFAULT_COSTS,
                            phase: float = 0.0,
                            edges: Optional[ContextEdges] = None,
                            graphs: Optional[StaticGraphs] = None) \
        -> LatticeSoundnessReport:
    """Replay once; assert observed ⊆ kCFA(ctx) ⊆ ... ⊆ RTA ⊆ CHA.

    Flat tiers (CHA, RTA) are checked on the context-stripped edge sets;
    each k-CFA tier is checked context-conditioned.  One replay feeds
    every tier, so the sections are comparable edge-for-edge.  Pass
    ``edges`` (from :func:`observe_context_edges` at depth >= max(ks))
    to reuse an existing observation instead of replaying here, and
    ``graphs`` (a :func:`static_graph` memo) to reuse the tiers' graphs.
    """
    max_k = max(ks) if ks else 0
    if edges is None:
        edges = observe_context_edges(program, k=max_k, policy=policy,
                                      costs=costs, phase=phase)
    flat = flatten_context_edges(edges)
    sections: List[SoundnessReport] = []
    for precision in (CHA, RTA):
        graph = static_graph(program, precision, costs, graphs)
        sections.append(check_containment(graph, flat))
    for k in ks:
        kgraph = static_graph(program, f"{k}cfa", costs, graphs)
        sections.append(check_context_containment(kgraph, edges))
    return LatticeSoundnessReport(program_name=program.name,
                                  sections=tuple(sections))


# -- decision-diff attribution -------------------------------------------------


def attribute_flips(diff: DecisionDiff, graph: StaticCallGraph) \
        -> Dict[str, List[Flip]]:
    """Classify diff flips by what the static call graph knows of the site.

    A flip at a :data:`ATTR_STATIC_DECIDED` site (statically bound or
    monomorphic) cannot come from profile evidence -- both runs' oracles
    see the same sole target, so the divergence is a budget, ordering, or
    tree-shape effect.  A flip at a :data:`ATTR_PROFILE_DECIDED` site
    (statically polymorphic dispatch) is genuine static-vs-profile
    disagreement: only profile data can pick targets there.
    """
    buckets: Dict[str, List[Flip]] = {
        ATTR_STATIC_DECIDED: [], ATTR_PROFILE_DECIDED: [],
        ATTR_UNKNOWN_SITE: []}
    for flip in diff.flips:
        _caller, site, _context = flip.key
        info = graph.sites.get(site)
        if info is None:
            buckets[ATTR_UNKNOWN_SITE].append(flip)
        elif info.dispatched and not info.monomorphic:
            buckets[ATTR_PROFILE_DECIDED].append(flip)
        else:
            buckets[ATTR_STATIC_DECIDED].append(flip)
    return buckets


def render_attribution(buckets: Dict[str, List[Flip]],
                       graph: StaticCallGraph,
                       limit: Optional[int] = None) -> str:
    """Human-readable static-vs-profile attribution section."""
    total = sum(len(flips) for flips in buckets.values())
    lines = [f"static attribution ({graph.precision} over "
             f"{graph.program_name}): {total} flip(s)"]
    titles = (
        (ATTR_PROFILE_DECIDED,
         "static-vs-profile disagreement (polymorphic in the static graph)"),
        (ATTR_STATIC_DECIDED,
         "statically decided (budget/ordering effects, not profile)"),
        (ATTR_UNKNOWN_SITE, "sites unknown to the static graph"))
    for key, title in titles:
        flips = buckets.get(key, [])
        if not flips:
            continue
        lines.append(f"  {title}: {len(flips)}")
        shown = flips if limit is None else flips[:limit]
        for flip in shown:
            lines.append(f"    [{flip.kind}] {flip.describe()}")
        if limit is not None and len(flips) > limit:
            lines.append(f"    ... and {len(flips) - limit} more")
    return "\n".join(lines)
