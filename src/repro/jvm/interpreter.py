"""The simulated execution engine.

:class:`Machine` executes a :class:`~repro.jvm.program.Program` under a
cycle clock.  Methods run either as *baseline* code (interpreted at a cost
multiplier, compiled lazily at first invocation) or as *optimized* code
(driven by the inline tree of an installed
:class:`~repro.compiler.compiled_method.CompiledMethod`).

Everything the paper measures flows through here:

* application cycles (work, dispatch overhead, inline guards),
* the source-level shadow stack the trace listener samples (inlined
  activations get zero-cost marker frames, reproducing Jikes RVM's
  optimized-stack-frame decoding),
* the tick hook that drives timer-based sampling and the periodic
  organizers.

The simulated machine is itself tiered on the host, the way the paper's
adaptive system is: a body is run by a recursive tree-walker with
integer-tag dispatch (the cold tier) until it has been entered
:data:`HOT_ENTRY_THRESHOLD` times, and from then on by closures compiled
once for it (the hot tier, :mod:`repro.jvm.closures`).  The two tiers
charge the same cycles in the same order, so which tier ran a body never
shows in any simulated result.  Full-scale runs of the eight benchmark
personalities take seconds of host time each; DESIGN.md ("Host execution
tiers") gives the invariants.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.aos.cost_accounting import APP, COMPILATION, CostAccounting
from repro.compiler.code_cache import CodeCache
from repro.compiler.compiled_method import (DEOPT_CHEAP_EXIT,
                                            ELIDE_EXHAUSTIVE, ELIDE_OSR_EXIT,
                                            ELIDE_PREEXIST,
                                            GUARDED, InlineNode)
from repro.jvm.closures import BodyCompiler, Runner
from repro.jvm.costs import CostModel
from repro.jvm.errors import ExecutionError
from repro.jvm.frames import Frame
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (
    E_ADD, E_ARG, E_CONST, E_LOCAL, E_LT, E_MOD, E_MUL, E_PICK, E_SUB,
    S_IF, S_INTERFACE_CALL, S_LET, S_LOOP, S_NEW, S_NEWPOOL, S_RETURN,
    S_STATIC_CALL, S_VIRTUAL_CALL, S_WORK,
    Expr, MethodDef, Program, Stmt,
)
from repro.jvm.values import Instance, Value
from repro.telemetry.recorder import NULL_RECORDER

#: Hard cap on source-level stack depth; exceeding it is a workload bug
#: (runaway recursion) and raises :class:`ExecutionError`.  Sized so a
#: recursion this deep through a simple body stays within about 18,000
#: Python frames, which the C stack of Python 3.9 and 3.10 (where every
#: Python call also recurses in C) can host.
MAX_STACK_DEPTH = 3000

#: Python frames budgeted per simulated frame.  One activation takes two
#: to six (the invocation, the body's runner, the call statement, one or
#: two more per enclosing loop or branch, one for a local probe), and
#: :meth:`Machine.run` raises the host recursion limit to fit
#: :data:`MAX_STACK_DEPTH` such frames plus :data:`HOST_FRAME_RESERVE`
#: for the caller and the tick handler.
PY_FRAMES_PER_SIM_FRAME = 8
HOST_FRAME_RESERVE = 2000

#: Entries after which a body leaves the tree-walker for compiled
#: closures.  Most bodies of a short run are entered only a few times,
#: and compiling those would cost more than walking them; a body entered
#: this often is usually entered thousands of times more.  A constant,
#: not a cost-model field: it changes host time only, never a simulated
#: result.
HOT_ENTRY_THRESHOLD = 8


class MachineStats:
    """Lightweight dynamic-execution counters (used by tests and reports)."""

    __slots__ = ("calls", "virtual_calls", "inline_entries", "guard_tests",
                 "guard_misses", "dispatches", "work_cycles",
                 "osr_transfers", "elided_entries", "deopt_entries",
                 "deopt_exits")

    def __init__(self) -> None:
        self.calls = 0            # out-of-line invocations
        self.virtual_calls = 0    # virtual sites executed (any outcome)
        self.inline_entries = 0   # inlined bodies entered
        self.guard_tests = 0      # individual guard tests executed
        self.guard_misses = 0     # guarded sites where every guard failed
        self.dispatches = 0       # full virtual dispatches paid
        self.work_cycles = 0      # raw (unscaled) work units executed
        self.osr_transfers = 0    # loops transferred onto optimized code
        self.elided_entries = 0   # inline entries through an elided guard
        self.deopt_entries = 0    # zero-cost entries at cheap-exit OSR sites
        self.deopt_exits = 0      # deoptimization exits (mapped live state)


class Machine:
    """Cycle-accounted executor for one program run."""

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 code_cache: CodeCache, costs: CostModel,
                 accounting: Optional[CostAccounting] = None,
                 tick_handler: Optional[Callable[["Machine"], None]] = None):
        self.program = program
        self.hierarchy = hierarchy
        self.code_cache = code_cache
        self.costs = costs
        self.accounting = accounting if accounting is not None else CostAccounting()
        self.tick_handler = tick_handler

        self.clock = 0.0
        #: Telemetry sink (spans for lazy baseline compiles, OSR instants);
        #: the adaptive runtime swaps in its recorder, the NullRecorder
        #: default charges and allocates nothing.
        self.telemetry = NULL_RECORDER
        #: The next clock value at which :attr:`tick_handler` fires.
        self.next_event = float("inf")
        #: Source-level shadow stack (includes inlined activations).
        self.stack: List[Frame] = []
        self.stats = MachineStats()

        self._baseline_mult = costs.baseline_exec_mult
        self._opt_mult = costs.opt_exec_mult
        self._inline_mult = costs.opt_exec_mult * (1.0 - costs.inline_work_discount)
        self._in_tick = False

        #: Back-edge counters for baseline loops (OSR trigger state).
        self.backedge_counts = {}
        #: Called once per method when its back-edge count crosses the OSR
        #: threshold while still at the baseline tier; the adaptive runtime
        #: points this at the controller's OSR request queue.
        self.osr_handler: Optional[Callable[[str], None]] = None
        self._osr_notified = set()
        #: Called the first time each class is instantiated (class
        #: loading); the adaptive runtime points this at CHA-dependency
        #: invalidation.
        self.class_load_handler: Optional[Callable[[str], None]] = None
        #: Pure-instrumentation hook fired once per executed virtual or
        #: interface dispatch with ``(site, target_method_id)`` -- the
        #: target that actually ran, whether reached through a guard, a
        #: devirtualized direct inline, or a plain dispatch.  Charges no
        #: cycles and must not mutate machine state; the soundness
        #: checker uses it to collect dynamic call-graph edges.
        self.dispatch_observer: Optional[Callable[[int, str], None]] = None
        #: Progress points (see :mod:`repro.telemetry.progress`): loop
        #: statements registered here by identity mark the named point
        #: once per *completed* iteration via :attr:`progress_observer`.
        #: Pure instrumentation under the same contract as
        #: ``dispatch_observer``: no cycles charged, no state mutated,
        #: so tracked and untracked runs are cycle-identical.
        self.progress_loops: dict = {}
        self.progress_observer: Optional[Callable[[str], None]] = None
        #: Pure-instrumentation hook fired once per inline entry through
        #: an *elided* guard with ``(site, elision_kind, entered_target_id,
        #: resolved_target_id)``.  Same contract as ``dispatch_observer``
        #: (no cycles, no mutation); the elision-replay soundness checker
        #: asserts ``entered == resolved`` for every event -- i.e. no
        #: elided guard would ever have failed.
        self.elision_observer: Optional[
            Callable[[int, str, str, str], None]] = None
        #: ``id(loop_stmt) -> live-local set`` from the deopt planner's
        #: liveness pass.  ``None`` (the default) charges no OSR
        #: state-mapping cycles, reproducing pre-planning cycle counts
        #: exactly; when set, each loop OSR transfer additionally pays
        #: ``len(live) * costs.osr_map_in_cost``.
        self.osr_liveness = None
        #: Pure-instrumentation hooks for the OSR soundness replay, all
        #: under the ``dispatch_observer`` contract (no cycles charged,
        #: no state mutated).  ``osr_entry_observer(method_id, loop_stmt,
        #: locals_)`` fires at each loop OSR transfer;
        #: ``deopt_exit_observer(site, exit_live, locals_)`` fires at each
        #: cheap-exit deoptimization; ``local_probe(locals_, index,
        #: is_read)`` fires on every local-slot access so the checker can
        #: compare actual reads against the statically computed live sets.
        self.osr_entry_observer: Optional[Callable] = None
        self.deopt_exit_observer: Optional[Callable] = None
        self.local_probe: Optional[Callable] = None

        # Host execution tiers (see :meth:`run`).  The hooks both tiers
        # test on hot paths are read once, when the run starts.
        self._probe: Optional[Callable] = None
        self._progress: Optional[dict] = None
        self._progress_observer: Optional[Callable[[str], None]] = None
        self._dispatch_observer: Optional[Callable[[int, str], None]] = None
        self._compiler: Optional[BodyCompiler] = None
        #: Compiled bodies: baseline ones per method, optimized ones per
        #: inline-tree node (roots at the opt multiplier, inlined bodies
        #: at the inline multiplier).
        self._baseline_code: Dict[MethodDef, Runner] = {}
        self._opt_code: Dict[InlineNode, Runner] = {}
        self._inline_code: Dict[InlineNode, Runner] = {}
        #: Entries so far of each body still in the tree-walker.
        self._entries: Dict[tuple, int] = {}

    # -- cost charging -----------------------------------------------------

    def charge(self, component: str, cycles: float) -> None:
        """Advance the clock, attribute cycles, and fire any due tick."""
        self.clock += cycles
        self.accounting.charge(component, cycles)
        if self.clock >= self.next_event and not self._in_tick:
            self._fire_tick()

    def _charge_app(self, cycles: float) -> None:
        self.clock += cycles
        self.accounting.charge(APP, cycles)
        if self.clock >= self.next_event and not self._in_tick:
            self._fire_tick()

    def _fire_tick(self) -> None:
        handler = self.tick_handler
        if handler is None:
            self.next_event = float("inf")
            return
        self._in_tick = True
        try:
            # The handler is responsible for advancing ``next_event``.
            handler(self)
        finally:
            self._in_tick = False

    # -- deoptimization ----------------------------------------------------

    def on_code_invalidated(self, method_id: str) -> None:
        """Re-arm OSR for a method whose optimized code was discarded.

        The OSR notification is once-per-method while code is absent; a
        method deoptimized back to baseline must be able to request OSR
        again, or its hot loops spin at baseline tier until the (much
        slower) hot-method sampling path notices.  Back-edge counts are
        deliberately kept: the loop already proved itself hot.
        """
        self._osr_notified.discard(method_id)

    # -- entry point -------------------------------------------------------

    def run(self, args: Sequence[Value] = ()) -> Value:
        """Execute the program's entry method to completion.

        Fixes the hooks both tiers test on hot paths (local probe,
        progress points, dispatch observer) for the whole run, raises the
        host recursion limit to fit :data:`MAX_STACK_DEPTH` simulated
        frames, and drops every compiled closure when the run ends.
        """
        entry = self.program.entry_method()
        self._probe = self.local_probe
        self._progress = self.progress_loops or None
        self._progress_observer = self.progress_observer
        self._dispatch_observer = self.dispatch_observer
        self._compiler = BodyCompiler(self)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(
            limit, MAX_STACK_DEPTH * PY_FRAMES_PER_SIM_FRAME
            + HOST_FRAME_RESERVE))
        try:
            return self._invoke(entry, tuple(args), None)
        except RecursionError:
            # Deeply nested bodies can outgrow the per-frame budget
            # before the simulated cap; it is the same overflow.
            raise ExecutionError(
                "stack overflow: nesting exhausted the host recursion "
                "limit") from None
        finally:
            sys.setrecursionlimit(limit)
            self._compiler = None
            self._baseline_code.clear()
            self._opt_code.clear()
            self._inline_code.clear()
            self._entries.clear()

    # -- invocation --------------------------------------------------------

    def _hot_body(self, table: Dict, key, body: Sequence[Stmt], mult: float,
                  node: Optional[InlineNode],
                  method: Optional[MethodDef] = None) -> Optional[Runner]:
        """Count one more entry of a body still in the tree-walker; past
        the threshold, compile it, cache it in ``table`` and return it."""
        entries = self._entries
        count_key = (key, mult)
        count = entries.get(count_key, 0) + 1
        if count < HOT_ENTRY_THRESHOLD:
            entries[count_key] = count
            return None
        entries.pop(count_key, None)
        code = table[key] = self._compiler.body(body, mult, node, method)
        return code

    def _invoke(self, method: MethodDef, args: tuple, site: Optional[int]) -> Value:
        """Out-of-line invocation of ``method`` (its own physical frame)."""
        stack = self.stack
        if len(stack) >= MAX_STACK_DEPTH:
            raise ExecutionError(
                f"stack overflow invoking {method.id} at depth {len(stack)}")
        self.stats.calls += 1
        stack.append(Frame(method, site, False))
        try:
            compiled = self.code_cache.opt_version(method.id)
            if compiled is not None:
                root = compiled.root
                code = self._opt_code.get(root) or self._hot_body(
                    self._opt_code, root, method.body, self._opt_mult, root)
                if code is not None:
                    result = code(args, [0] * method.num_locals)
                else:
                    result = self._exec_body(
                        method.body, args, [0] * method.num_locals,
                        self._opt_mult, root)
            else:
                if not self.code_cache.has_baseline(method.id):
                    # ``self_cycles`` is passed explicitly: the charge can
                    # fire a timer tick whose organizer spans nest inside
                    # this one, and the accounting delta would then fold
                    # their compilation-thread cycles into this span.
                    span_id = self.telemetry.begin_span(
                        COMPILATION, "baseline_compile", method=method.id)
                    cycles = self.code_cache.compile_baseline(method)
                    self.charge(COMPILATION, cycles)
                    self.telemetry.end_span(span_id, self_cycles=cycles,
                                            bytecodes=method.bytecodes)
                code = self._baseline_code.get(method) or self._hot_body(
                    self._baseline_code, method, method.body,
                    self._baseline_mult, None, method)
                if code is not None:
                    result = code(args, [0] * method.num_locals)
                else:
                    result = self._exec_body(
                        method.body, args, [0] * method.num_locals,
                        self._baseline_mult, None)
        finally:
            stack.pop()
        return 0 if result is None else result

    def _enter_inlined(self, callee: MethodDef, args: tuple,
                       site: int, node: InlineNode) -> Value:
        """Execute an inlined callee body (no physical frame, no call cost)."""
        stack = self.stack
        if len(stack) >= MAX_STACK_DEPTH:
            raise ExecutionError(
                f"stack overflow inlining {callee.id} at depth {len(stack)}")
        self.stats.inline_entries += 1
        stack.append(Frame(callee, site, True))
        try:
            code = self._inline_code.get(node) or self._hot_body(
                self._inline_code, node, callee.body, self._inline_mult, node)
            if code is not None:
                result = code(args, [0] * callee.num_locals)
            else:
                result = self._exec_body(
                    callee.body, args, [0] * callee.num_locals,
                    self._inline_mult, node)
        finally:
            stack.pop()
        return 0 if result is None else result

    # -- statement execution (the cold tier) ----------------------------------

    def _exec_body(self, body: Sequence[Stmt], args: tuple, locals_: list,
                   mult: float, node: Optional[InlineNode]):
        """Execute statements; return the Return value or ``None`` if none."""
        costs = self.costs
        probe = self._probe
        for stmt in body:
            k = stmt.kind
            if k == S_WORK:
                cost = stmt.cost
                self.stats.work_cycles += cost
                self._charge_app(cost * mult)
            elif k == S_STATIC_CALL:
                decision = node.decisions.get(stmt.site) if node is not None else None
                call_args = tuple(self._eval(a, args, locals_) for a in stmt.args)
                if decision is not None:
                    option = decision.sole
                    result = self._enter_inlined(
                        option.target, call_args, stmt.site, option.node)
                else:
                    self._charge_app(costs.call_overhead * mult)
                    result = self._invoke(
                        self.program.method(stmt.target), call_args, stmt.site)
                if stmt.dst is not None:
                    locals_[stmt.dst] = result
                    if probe is not None:
                        probe(locals_, stmt.dst, False)
            elif k == S_VIRTUAL_CALL or k == S_INTERFACE_CALL:
                self.stats.virtual_calls += 1
                receiver = self._eval(stmt.receiver, args, locals_)
                if not isinstance(receiver, Instance):
                    raise ExecutionError(
                        f"virtual call at site {stmt.site} on non-object "
                        f"{receiver!r}")
                result = self._virtual_call(stmt, receiver, args, locals_,
                                            mult, node,
                                            interface=(k == S_INTERFACE_CALL))
                if stmt.dst is not None:
                    locals_[stmt.dst] = result
                    if probe is not None:
                        probe(locals_, stmt.dst, False)
            elif k == S_LET:
                locals_[stmt.dst] = self._eval(stmt.expr, args, locals_)
                if probe is not None:
                    probe(locals_, stmt.dst, False)
            elif k == S_LOOP:
                count = self._eval(stmt.count, args, locals_)
                idx = stmt.index_local
                loop_body = stmt.body
                progress = (self._progress.get(id(stmt))
                            if self._progress is not None else None)
                if node is None and costs.osr_enabled:
                    # Baseline tier: count back edges, request compilation
                    # past the threshold, and poll for installed optimized
                    # code to transfer onto (on-stack replacement).
                    method_id = self.stack[-1].method.id
                    poll = costs.osr_poll_period
                    edges = self.backedge_counts.get(method_id, 0)
                    for i in range(count):
                        locals_[idx] = i
                        if probe is not None:
                            probe(locals_, idx, False)
                        result = self._exec_body(loop_body, args, locals_,
                                                 mult, node)
                        if result is not None:
                            self.backedge_counts[method_id] = edges + i + 1
                            return result
                        if progress is not None:
                            self._progress_observer(progress)
                        if (i + 1) % poll == 0:
                            self._osr_notify(method_id, edges + i + 1)
                            if node is None:
                                # Transfer the rest of this loop (and the
                                # remainder of the activation) onto the
                                # optimized code.
                                node = self._osr_transfer(stmt, method_id,
                                                          locals_)
                                if node is not None:
                                    mult = self._opt_mult
                    self.backedge_counts[method_id] = edges + count
                else:
                    for i in range(count):
                        locals_[idx] = i
                        if probe is not None:
                            probe(locals_, idx, False)
                        result = self._exec_body(loop_body, args, locals_,
                                                 mult, node)
                        if result is not None:
                            return result
                        if progress is not None:
                            self._progress_observer(progress)
            elif k == S_IF:
                cond = self._eval(stmt.cond, args, locals_)
                branch = stmt.then_body if cond else stmt.else_body
                if branch:
                    result = self._exec_body(branch, args, locals_, mult, node)
                    if result is not None:
                        return result
            elif k == S_NEW:
                if self.hierarchy.mark_loaded(stmt.class_name) \
                        and self.class_load_handler is not None:
                    self.class_load_handler(stmt.class_name)
                locals_[stmt.dst] = Instance(stmt.class_name)
                if probe is not None:
                    probe(locals_, stmt.dst, False)
            elif k == S_NEWPOOL:
                for class_name in stmt.class_names:
                    if self.hierarchy.mark_loaded(class_name) \
                            and self.class_load_handler is not None:
                        self.class_load_handler(class_name)
                locals_[stmt.dst] = tuple(Instance(c) for c in stmt.class_names)
                if probe is not None:
                    probe(locals_, stmt.dst, False)
            elif k == S_RETURN:
                if stmt.expr is None:
                    return 0
                return self._eval(stmt.expr, args, locals_)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown statement kind {k}")
        return None

    def _virtual_call(self, stmt, receiver: Instance, args: tuple,
                      locals_: list, mult: float,
                      node: Optional[InlineNode],
                      interface: bool = False) -> Value:
        costs = self.costs
        dispatch_cost = (costs.interface_dispatch if interface
                         else costs.virtual_dispatch)
        call_args = (receiver,) + tuple(
            self._eval(a, args, locals_) for a in stmt.args)
        decision = node.decisions.get(stmt.site) if node is not None else None
        observer = self._dispatch_observer
        if decision is not None:
            if decision.kind == GUARDED:
                return self._guarded_call(stmt, decision, receiver,
                                          call_args, locals_, mult,
                                          dispatch_cost)
            # DIRECT: statically bound by CHA, no guard executed.
            option = decision.sole
            if observer is not None:
                observer(stmt.site, option.target.id)
            return self._enter_inlined(
                option.target, call_args, stmt.site, option.node)
        resolved = self.hierarchy.resolve(receiver.klass, stmt.selector)
        if observer is not None:
            observer(stmt.site, resolved.id)
        self.stats.dispatches += 1
        self._charge_app(dispatch_cost * mult)
        return self._invoke(resolved, call_args, stmt.site)

    # -- paths both tiers share --------------------------------------------------

    def _guarded_call(self, stmt, decision, receiver: Instance,
                      call_args: tuple, locals_: list, mult: float,
                      dispatch_cost: int) -> Value:
        """A virtual call at a guarded inline site: walk the options, and
        deoptimize or dispatch when none is entered."""
        costs = self.costs
        resolved = self.hierarchy.resolve(receiver.klass, stmt.selector)
        if self._dispatch_observer is not None:
            self._dispatch_observer(stmt.site, resolved.id)
        for option in decision.options:
            elided = option.elided
            if elided is None:
                self.stats.guard_tests += 1
                self._charge_app(costs.guard_test * mult)
                if option.target is resolved:
                    return self._enter_inlined(
                        resolved, call_args, stmt.site, option.node)
            elif elided == ELIDE_OSR_EXIT:
                # Cheap-exit OSR point: the compiled code carries no test
                # at all -- entry happens through the dispatch the machine
                # already resolved, so a matching target is entered at
                # zero guard cost and a mismatch falls through toward the
                # deoptimization exit below.
                if option.target is resolved:
                    self.stats.deopt_entries += 1
                    return self._enter_inlined(
                        resolved, call_args, stmt.site, option.node)
            elif elided in (ELIDE_PREEXIST, ELIDE_EXHAUSTIVE):
                # Guard compiled out: for "preexist" invalidation protects
                # the entry; for "exhaustive" (always the last option)
                # every earlier guard missing implies this one hits.
                # Either way the compiled code jumps straight into the
                # inlined body at zero cost.  Entering ``option.target``
                # (not ``resolved``) is the point: if the argument were
                # wrong the wrong body would run, which is what the
                # elision-replay checker detects.
                self.stats.elided_entries += 1
                if self.elision_observer is not None:
                    self.elision_observer(stmt.site, elided,
                                          option.target.id, resolved.id)
                return self._enter_inlined(
                    option.target, call_args, stmt.site, option.node)
            else:  # "dominated": reuse the dominating guard's result
                dom_selector, dom_target = option.elided_on
                if self.hierarchy.resolve(
                        receiver.klass, dom_selector) is dom_target:
                    # The dominating guard passed, which implies this
                    # guard would have too (acceptance-set containment);
                    # no test is charged because the compiled code
                    # branches on the already-computed outcome.
                    self.stats.elided_entries += 1
                    if self.elision_observer is not None:
                        self.elision_observer(stmt.site, elided,
                                              option.target.id, resolved.id)
                    return self._enter_inlined(
                        option.target, call_args, stmt.site, option.node)
                # Dominating guard missed: treat as a miss here too and
                # continue to the next option / fallback.
        if decision.deopt == DEOPT_CHEAP_EXIT:
            # Broken speculation at a cheap-exit OSR point: map the site's
            # pruned live state out of the optimized frame and finish the
            # dispatch at the baseline tier (the deoptimization exit is
            # expensive exactly so the fast path could carry no guard).
            self.stats.deopt_exits += 1
            self._charge_app(
                len(decision.exit_live) * costs.osr_map_out_cost
                + dispatch_cost * self._baseline_mult)
            if self.deopt_exit_observer is not None:
                self.deopt_exit_observer(stmt.site, decision.exit_live,
                                         locals_)
            return self._invoke(resolved, call_args, stmt.site)
        # Every guard failed: fall back to full dispatch.
        self.stats.guard_misses += 1
        self.stats.dispatches += 1
        self._charge_app(dispatch_cost * mult)
        return self._invoke(resolved, call_args, stmt.site)

    def _osr_notify(self, method_id: str, backedges: int) -> None:
        """Back-edge poll of a baseline loop: past the threshold, ask the
        adaptive system (once) to compile ``method_id``."""
        if (backedges >= self.costs.osr_backedge_threshold
                and method_id not in self._osr_notified
                and self.osr_handler is not None):
            self._osr_notified.add(method_id)
            self.osr_handler(method_id)

    def _osr_transfer(self, loop_stmt, method_id: str,
                      locals_: list) -> Optional[InlineNode]:
        """Move a running baseline loop onto installed optimized code.

        Returns the optimized inline tree's root, or ``None`` while no
        optimized code is installed.  The caller runs the rest of the
        loop, and the rest of the enclosing statement sequence, on it.
        """
        compiled = self.code_cache.opt_version(method_id)
        if compiled is None:
            return None
        self.stats.osr_transfers += 1
        self.stack[-1].osr = True
        if self.osr_liveness is not None:
            # Map the live frame state into the optimized layout: the OSR
            # transition's dominant cost.
            live = self.osr_liveness.get(id(loop_stmt), ())
            self._charge_app(len(live) * self.costs.osr_map_in_cost)
        if self.osr_entry_observer is not None:
            self.osr_entry_observer(method_id, loop_stmt, locals_)
        self.telemetry.instant(APP, "osr_transfer", method=method_id)
        return compiled.root

    # -- expression evaluation ----------------------------------------------

    def _eval(self, expr: Expr, args: tuple, locals_: list) -> Value:
        k = expr.kind
        if k == E_CONST:
            return expr.value
        if k == E_ARG:
            return args[expr.index]
        if k == E_LOCAL:
            if self._probe is not None:
                self._probe(locals_, expr.index, True)
            return locals_[expr.index]
        if k == E_ADD:
            return self._eval(expr.left, args, locals_) + \
                self._eval(expr.right, args, locals_)
        if k == E_SUB:
            return self._eval(expr.left, args, locals_) - \
                self._eval(expr.right, args, locals_)
        if k == E_MUL:
            return self._eval(expr.left, args, locals_) * \
                self._eval(expr.right, args, locals_)
        if k == E_MOD:
            return self._eval(expr.left, args, locals_) % \
                self._eval(expr.right, args, locals_)
        if k == E_LT:
            return 1 if (self._eval(expr.left, args, locals_)
                         < self._eval(expr.right, args, locals_)) else 0
        if k == E_PICK:
            pool = self._eval(expr.pool, args, locals_)
            if not isinstance(pool, tuple) or not pool:
                raise ExecutionError(f"Pick from non-pool value {pool!r}")
            index = self._eval(expr.index, args, locals_)
            return pool[index % len(pool)]
        raise ExecutionError(f"unknown expression kind {k}")  # pragma: no cover
