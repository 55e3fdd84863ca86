"""The hot execution tier: statement bodies compiled into Python closures.

:class:`~repro.jvm.interpreter.Machine` runs every body in its
tree-walker (the cold tier) until that body has been entered
:data:`~repro.jvm.interpreter.HOT_ENTRY_THRESHOLD` times.  From then on
it runs the body through closures that :class:`BodyCompiler` builds once
and the machine caches for the rest of the run: one closure per
statement, one per expression, and one runner per statement sequence.
Everything a statement needs -- its operands, its pre-multiplied cycle
cost, the inline decision at its call site, the machine's hooks -- is
bound when the closure is built, as default arguments, so executing it
tests no statement kinds and looks nothing up.

The closures compute exactly what the tree-walker computes.  Each
cycle charge is its own float addition to the clock and to the
accounting, in the tree-walker's order, followed by the same
``next_event`` test; charges are never batched, because that would
change the clock's rounding and so the tick boundaries the whole
adaptive system keys on.  The rarely run paths -- the walk over guarded
options, the cheap-exit deoptimization, and the back-edge poll with its
on-stack-replacement transfer -- are the machine's own helpers, shared
by both tiers.

A runner takes ``(args, locals_)`` and returns the value of the
``Return`` that ended it, or ``None`` when the sequence fell through.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.aos.cost_accounting import APP
from repro.compiler.compiled_method import GUARDED, InlineNode
from repro.jvm.errors import ExecutionError, ProgramError
from repro.jvm.program import (
    E_ADD, E_ARG, E_CONST, E_LOCAL, E_LT, E_MOD, E_MUL, E_PICK, E_SUB,
    S_IF, S_INTERFACE_CALL, S_LET, S_LOOP, S_NEW, S_NEWPOOL, S_RETURN,
    S_STATIC_CALL, S_VIRTUAL_CALL, S_WORK,
    Expr, MethodDef, Stmt,
)
from repro.jvm.values import Instance

#: ``(args, locals_) -> value or None``.
Runner = Callable[[tuple, list], object]


class Transferred:
    """What a baseline loop returns after an on-stack replacement.

    The transfer ran the rest of the loop and the rest of the enclosing
    sequence on the optimized code; the sequence's runner unwraps this
    and returns ``value`` (``None`` when that code fell through) instead
    of running its own baseline steps after the loop.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _fallthrough(a, l):
    return None


def _not_an_object(site: int, receiver) -> None:
    raise ExecutionError(
        f"virtual call at site {site} on non-object {receiver!r}")


class BodyCompiler:
    """Builds the closures of one machine for one run.

    Hook presence (the local probe, progress points, the dispatch
    observer) is read from the machine's run-start snapshot, so a body
    compiled without a probe never tests for one.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.costs = machine.costs
        self.stats = machine.stats
        self.cycles = machine.accounting.cycles
        self.probe = machine._probe
        self.progress = machine._progress
        self.progress_observer = machine._progress_observer
        self.dispatch_observer = machine._dispatch_observer
        self._leaves: Dict[tuple, Runner] = {}

    # -- bodies -------------------------------------------------------------

    def body(self, stmts: Sequence[Stmt], mult: float,
             node: Optional[InlineNode],
             method: Optional[MethodDef] = None) -> Runner:
        """The runner of a statement sequence at tier ``(node, mult)``.

        ``method`` names the method whose baseline body this is (only
        its loops count back edges and may transfer onto optimized
        code); it is ``None`` for optimized and inlined bodies.
        """
        steps = []
        ret = None
        transfers = False
        for j, stmt in enumerate(stmts):
            if stmt.kind == S_RETURN:
                ret = stmt
                break  # nothing after a Return ever runs
            if (stmt.kind == S_LOOP and node is None
                    and self.costs.osr_enabled):
                steps.append(self._osr_loop(stmt, mult, method,
                                            tuple(stmts[j + 1:])))
                transfers = True
            else:
                steps.append(self._stmt(stmt, mult, node, method))
        runner = self._runner(tuple(steps), ret)
        if not transfers:
            return runner

        def unwrap(a, l, runner=runner, Transferred=Transferred):
            r = runner(a, l)
            if r.__class__ is Transferred:
                return r.value
            return r
        return unwrap

    def _runner(self, steps: tuple, ret: Optional[Stmt]) -> Runner:
        """Run ``steps`` in order and stop at the first one that returns;
        after the last, give the value of ``ret`` (a trailing ``Return``)
        or fall through when there is none."""
        if ret is None:
            if not steps:
                return _fallthrough
            if len(steps) == 1:
                return steps[0]

            def run(a, l, steps=steps):
                for step in steps:
                    r = step(a, l)
                    if r is not None:
                        return r
                return None
            return run

        expr = ret.expr
        if expr is None or expr.kind == E_CONST:
            value = 0 if expr is None else expr.value
            if not steps:
                return self._const(value)

            def run_then_value(a, l, steps=steps, value=value):
                for step in steps:
                    r = step(a, l)
                    if r is not None:
                        return r
                return value
            return run_then_value

        result = self.expr(expr)
        if not steps:
            return result

        def run_then_result(a, l, steps=steps, result=result):
            for step in steps:
                r = step(a, l)
                if r is not None:
                    return r
            return result(a, l)
        return run_then_result

    # -- statements ---------------------------------------------------------

    def _stmt(self, stmt: Stmt, mult: float, node: Optional[InlineNode],
              method: Optional[MethodDef]) -> Runner:
        k = stmt.kind
        if k == S_WORK:
            return self._work(stmt.cost, mult)
        if k == S_STATIC_CALL:
            return self._static_call(stmt, mult, node)
        if k == S_VIRTUAL_CALL or k == S_INTERFACE_CALL:
            return self._virtual_call(stmt, mult, node,
                                      interface=(k == S_INTERFACE_CALL))
        if k == S_LET:
            return self._store(stmt.dst, self.expr(stmt.expr))
        if k == S_LOOP:
            return self._loop(stmt, mult, node, method)
        if k == S_IF:
            return self._if(stmt, mult, node, method)
        if k == S_NEW:
            return self._new(stmt)
        if k == S_NEWPOOL:
            return self._newpool(stmt)

        def unknown(a, l, k=k):
            raise ExecutionError(f"unknown statement kind {k}")
        return unknown

    def _work(self, cost: int, mult: float) -> Runner:
        key = ("work", cost, mult)
        work = self._leaves.get(key)
        if work is None:
            def work(a, l, stats=self.stats, cost=cost, cm=cost * mult,
                     m=self.machine, cycles=self.cycles, APP=APP):
                stats.work_cycles += cost
                clock = m.clock + cm
                m.clock = clock
                cycles[APP] += cm
                if clock >= m.next_event and not m._in_tick:
                    m._fire_tick()
            self._leaves[key] = work
        return work

    def _store(self, dst: int, value: Runner) -> Runner:
        """``locals_[dst] = value(args, locals_)`` (a ``Let``)."""
        probe = self.probe
        if probe is None:
            def store(a, l, value=value, dst=dst):
                l[dst] = value(a, l)
            return store

        def store_probed(a, l, value=value, dst=dst, probe=probe):
            l[dst] = value(a, l)
            probe(l, dst, False)
        return store_probed

    def _call_args(self, exprs: Sequence[Expr]) -> Optional[Runner]:
        """The closure building a call's argument tuple; ``None`` for no
        arguments."""
        fns = tuple(self.expr(e) for e in exprs)
        if not fns:
            return None
        if len(fns) == 1:
            def args1(a, l, f0=fns[0]):
                return (f0(a, l),)
            return args1
        if len(fns) == 2:
            def args2(a, l, f0=fns[0], f1=fns[1]):
                return (f0(a, l), f1(a, l))
            return args2

        def args_n(a, l, fns=fns):
            return tuple([f(a, l) for f in fns])
        return args_n

    def _static_call(self, stmt, mult: float,
                     node: Optional[InlineNode]) -> Runner:
        m = self.machine
        decision = node.decisions.get(stmt.site) if node is not None else None
        args_fn = self._call_args(stmt.args)
        site = stmt.site
        dst = stmt.dst
        if decision is not None:
            option = decision.sole

            def call(a, l, args_fn=args_fn, enter=m._enter_inlined,
                     target=option.target, site=site, child=option.node,
                     dst=dst):
                result = enter(target, () if args_fn is None
                               else args_fn(a, l), site, child)
                if dst is not None:
                    l[dst] = result
        else:
            try:
                target = m.program.method(stmt.target)
            except ProgramError:
                target = None

            def call(a, l, args_fn=args_fn, invoke=m._invoke, m=m,
                     target=target, site=site, name=stmt.target,
                     cycles=self.cycles, cm=self.costs.call_overhead * mult,
                     dst=dst, APP=APP):
                call_args = () if args_fn is None else args_fn(a, l)
                clock = m.clock + cm
                m.clock = clock
                cycles[APP] += cm
                if clock >= m.next_event and not m._in_tick:
                    m._fire_tick()
                if target is None:
                    m.program.method(name)  # raises: no such method
                result = invoke(target, call_args, site)
                if dst is not None:
                    l[dst] = result
        return self._probed(dst, call)

    def _probed(self, dst: Optional[int], call: Runner) -> Runner:
        """A call statement that stores into ``dst``, followed by the
        local probe's write event when a probe is subscribed."""
        probe = self.probe
        if dst is None or probe is None:
            return call

        def probed(a, l, call=call, dst=dst, probe=probe):
            call(a, l)
            probe(l, dst, False)
        return probed

    def _virtual_call(self, stmt, mult: float, node: Optional[InlineNode],
                      interface: bool) -> Runner:
        m = self.machine
        costs = self.costs
        dispatch_cost = (costs.interface_dispatch if interface
                         else costs.virtual_dispatch)
        decision = node.decisions.get(stmt.site) if node is not None else None
        receiver_fn = self.expr(stmt.receiver)
        args_fn = self._call_args(stmt.args)
        site = stmt.site
        dst = stmt.dst
        observer = self.dispatch_observer
        stats = self.stats

        if decision is None:
            def call(a, l, receiver_fn=receiver_fn, args_fn=args_fn,
                     resolve=m.hierarchy.resolve,
                     selector=stmt.selector, observer=observer, site=site,
                     stats=stats, m=m, cycles=self.cycles,
                     cm=dispatch_cost * mult, invoke=m._invoke, dst=dst,
                     Instance=Instance, APP=APP):
                stats.virtual_calls += 1
                receiver = receiver_fn(a, l)
                if not isinstance(receiver, Instance):
                    _not_an_object(site, receiver)
                call_args = ((receiver,) if args_fn is None
                             else (receiver,) + args_fn(a, l))
                resolved = resolve(receiver.klass, selector)
                if observer is not None:
                    observer(site, resolved.id)
                stats.dispatches += 1
                clock = m.clock + cm
                m.clock = clock
                cycles[APP] += cm
                if clock >= m.next_event and not m._in_tick:
                    m._fire_tick()
                result = invoke(resolved, call_args, site)
                if dst is not None:
                    l[dst] = result
        elif decision.kind == GUARDED:
            def call(a, l, receiver_fn=receiver_fn, args_fn=args_fn,
                     guarded=m._guarded_call, stmt=stmt, decision=decision,
                     mult=mult, dispatch_cost=dispatch_cost, site=site,
                     stats=stats, dst=dst, Instance=Instance):
                stats.virtual_calls += 1
                receiver = receiver_fn(a, l)
                if not isinstance(receiver, Instance):
                    _not_an_object(site, receiver)
                call_args = ((receiver,) if args_fn is None
                             else (receiver,) + args_fn(a, l))
                result = guarded(stmt, decision, receiver, call_args, l,
                                 mult, dispatch_cost)
                if dst is not None:
                    l[dst] = result
        else:  # DIRECT: statically bound by CHA, no guard executed
            option = decision.sole

            def call(a, l, receiver_fn=receiver_fn, args_fn=args_fn,
                     observer=observer, enter=m._enter_inlined,
                     target=option.target, child=option.node, site=site,
                     stats=stats, dst=dst, Instance=Instance):
                stats.virtual_calls += 1
                receiver = receiver_fn(a, l)
                if not isinstance(receiver, Instance):
                    _not_an_object(site, receiver)
                call_args = ((receiver,) if args_fn is None
                             else (receiver,) + args_fn(a, l))
                if observer is not None:
                    observer(site, target.id)
                result = enter(target, call_args, site, child)
                if dst is not None:
                    l[dst] = result
        return self._probed(dst, call)

    def _loop(self, stmt, mult: float, node: Optional[InlineNode],
              method: Optional[MethodDef]) -> Runner:
        count_fn = self.expr(stmt.count)
        body = self.body(stmt.body, mult, node, method)
        idx = stmt.index_local
        probe = self.probe
        progress = (self.progress.get(id(stmt))
                    if self.progress is not None else None)
        if probe is None and progress is None:
            def loop(a, l, count_fn=count_fn, body=body, idx=idx):
                for i in range(count_fn(a, l)):
                    l[idx] = i
                    r = body(a, l)
                    if r is not None:
                        return r
                return None
            return loop

        def loop_observed(a, l, count_fn=count_fn, body=body, idx=idx,
                          probe=probe, progress=progress,
                          mark=self.progress_observer):
            for i in range(count_fn(a, l)):
                l[idx] = i
                if probe is not None:
                    probe(l, idx, False)
                r = body(a, l)
                if r is not None:
                    return r
                if progress is not None:
                    mark(progress)
            return None
        return loop_observed

    def _osr_loop(self, stmt, mult: float, method: MethodDef,
                  tail: tuple) -> Runner:
        """A baseline loop: count back edges, poll for optimized code,
        and on a transfer finish the loop and ``tail`` (the rest of the
        enclosing sequence) on the optimized closures."""
        m = self.machine
        count_fn = self.expr(stmt.count)
        body = self.body(stmt.body, mult, None, method)
        progress = (self.progress.get(id(stmt))
                    if self.progress is not None else None)

        def loop(a, l, count_fn=count_fn, body=body, idx=stmt.index_local,
                 probe=self.probe, progress=progress,
                 mark=self.progress_observer, m=m,
                 counts=m.backedge_counts, method_id=method.id,
                 poll=self.costs.osr_poll_period, stmt=stmt, tail=tail,
                 after_transfer=self._after_transfer):
            count = count_fn(a, l)
            edges = counts.get(method_id, 0)
            for i in range(count):
                l[idx] = i
                if probe is not None:
                    probe(l, idx, False)
                r = body(a, l)
                if r is not None:
                    counts[method_id] = edges + i + 1
                    return r
                if progress is not None:
                    mark(progress)
                if (i + 1) % poll == 0:
                    m._osr_notify(method_id, edges + i + 1)
                    root = m._osr_transfer(stmt, method_id, l)
                    if root is not None:
                        return after_transfer(stmt, tail, root, i + 1,
                                              count, edges, method_id, a, l)
            counts[method_id] = edges + count
            return None
        return loop

    def _after_transfer(self, stmt, tail: tuple, root: InlineNode,
                        start: int, count: int, edges: int, method_id: str,
                        a: tuple, l: list) -> Transferred:
        """Finish an OSR-transferred loop, then the rest of its sequence,
        on closures built for the optimized root."""
        m = self.machine
        opt_mult = m._opt_mult
        body = self.body(stmt.body, opt_mult, root)
        idx = stmt.index_local
        probe = self.probe
        progress = (self.progress.get(id(stmt))
                    if self.progress is not None else None)
        poll = self.costs.osr_poll_period
        counts = m.backedge_counts
        for i in range(start, count):
            l[idx] = i
            if probe is not None:
                probe(l, idx, False)
            r = body(a, l)
            if r is not None:
                counts[method_id] = edges + i + 1
                return Transferred(r)
            if progress is not None:
                self.progress_observer(progress)
            if (i + 1) % poll == 0:
                m._osr_notify(method_id, edges + i + 1)
        counts[method_id] = edges + count
        return Transferred(self.body(tail, opt_mult, root)(a, l))

    def _if(self, stmt, mult: float, node: Optional[InlineNode],
            method: Optional[MethodDef]) -> Runner:
        cond = self.expr(stmt.cond)
        then = (self.body(stmt.then_body, mult, node, method)
                if stmt.then_body else _fallthrough)
        if not stmt.else_body:
            def if_then(a, l, cond=cond, then=then):
                if cond(a, l):
                    return then(a, l)
                return None
            return if_then
        orelse = self.body(stmt.else_body, mult, node, method)

        def if_else(a, l, cond=cond, then=then, orelse=orelse):
            if cond(a, l):
                return then(a, l)
            return orelse(a, l)
        return if_else

    def _new(self, stmt) -> Runner:
        def new(a, l, m=self.machine, loaded=self.machine.hierarchy.mark_loaded,
                name=stmt.class_name, Instance=Instance):
            if loaded(name) and m.class_load_handler is not None:
                m.class_load_handler(name)
            return Instance(name)
        return self._store(stmt.dst, new)

    def _newpool(self, stmt) -> Runner:
        def newpool(a, l, m=self.machine,
                    loaded=self.machine.hierarchy.mark_loaded,
                    names=stmt.class_names, Instance=Instance):
            for name in names:
                if loaded(name) and m.class_load_handler is not None:
                    m.class_load_handler(name)
            return tuple(map(Instance, names))
        return self._store(stmt.dst, newpool)

    # -- expressions ----------------------------------------------------------

    def expr(self, expr: Expr) -> Runner:
        """The closure evaluating ``expr``."""
        k = expr.kind
        if k == E_CONST:
            return self._const(expr.value)
        if k == E_ARG:
            return self._arg(expr.index)
        if k == E_LOCAL:
            return self._local(expr.index)
        if k in _BINARY:
            return _BINARY[k](self.expr(expr.left), self.expr(expr.right))
        if k == E_PICK:
            pool_fn, index_fn = self.expr(expr.pool), self.expr(expr.index)

            def pick(a, l, pool_fn=pool_fn, index_fn=index_fn):
                pool = pool_fn(a, l)
                if not isinstance(pool, tuple) or not pool:
                    raise ExecutionError(f"Pick from non-pool value {pool!r}")
                return pool[index_fn(a, l) % len(pool)]
            return pick

        def unknown(a, l, k=k):
            raise ExecutionError(f"unknown expression kind {k}")
        return unknown

    def _const(self, value) -> Runner:
        try:
            key = ("const", value.__class__, value)
            hash(key)
        except TypeError:  # an unhashable constant is simply not shared
            key = None
        const = self._leaves.get(key) if key is not None else None
        if const is None:
            def const(a, l, value=value):
                return value
            if key is not None:
                self._leaves[key] = const
        return const

    def _arg(self, index: int) -> Runner:
        key = ("arg", index)
        arg = self._leaves.get(key)
        if arg is None:
            def arg(a, l, index=index):
                return a[index]
            self._leaves[key] = arg
        return arg

    def _local(self, index: int) -> Runner:
        key = ("local", index)
        local = self._leaves.get(key)
        if local is None:
            probe = self.probe
            if probe is None:
                def local(a, l, index=index):
                    return l[index]
            else:
                def local(a, l, index=index, probe=probe):
                    probe(l, index, True)
                    return l[index]
            self._leaves[key] = local
        return local


def _add(x, y):
    def add(a, l, x=x, y=y):
        return x(a, l) + y(a, l)
    return add


def _sub(x, y):
    def sub(a, l, x=x, y=y):
        return x(a, l) - y(a, l)
    return sub


def _mul(x, y):
    def mul(a, l, x=x, y=y):
        return x(a, l) * y(a, l)
    return mul


def _mod(x, y):
    def mod(a, l, x=x, y=y):
        return x(a, l) % y(a, l)
    return mod


def _lt(x, y):
    def lt(a, l, x=x, y=y):
        return 1 if x(a, l) < y(a, l) else 0
    return lt


_BINARY = {E_ADD: _add, E_SUB: _sub, E_MUL: _mul, E_MOD: _mod, E_LT: _lt}
