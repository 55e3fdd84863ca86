"""A reference evaluator for the mini-JVM program IR.

It computes what a program returns and how much source-level work it
does, with no tiers, no cycle costs and no adaptive system, so that the
simulator's outputs can be checked against a computation made apart
from it.  It shares no code with ``repro.jvm.interpreter``: it reads the
IR node classes of ``repro.jvm.program`` and nothing else.

The IR has no mutable heap -- an object is only an identity and a class,
and nothing in the expression language can observe identity -- so a
call's outcome depends only on the method and the classes and integers
it is passed.  The evaluator memoizes on that (method, arguments) key.
"""

from __future__ import annotations

import sys
from typing import Dict, NamedTuple, Tuple

from repro.jvm.program import (Add, Arg, Const, If, InterfaceCall, Let,
                               Local, Loop, Lt, Mod, Mul, New, NewPool,
                               Pick, Return, StaticCall, Sub, VirtualCall,
                               Work)


class Obj:
    """An object value: only its class is observable."""

    __slots__ = ("klass",)

    def __init__(self, klass: str):
        self.klass = klass


class Outcome(NamedTuple):
    """What a whole program run computes."""

    value: object        # int, Obj or tuple of values
    work: int            # Work units executed
    invocations: int     # source-level method invocations, the entry's too
    virtual_calls: int   # virtual and interface call sites executed


class EvaluationError(Exception):
    """The program does something the IR gives no meaning to."""


def shape(value) -> object:
    """A value with each object replaced by ``("obj", class name)``.

    Works on the simulator's values too (anything with a ``klass``), so
    a machine's return value and the reference's compare directly.
    """
    if isinstance(value, tuple):
        return tuple(shape(v) for v in value)
    klass = getattr(value, "klass", None)
    if klass is not None:
        return ("obj", klass)
    return value


_BINARY = {
    Add: lambda x, y: x + y,
    Sub: lambda x, y: x - y,
    Mul: lambda x, y: x * y,
    Mod: lambda x, y: x % y,
    Lt: lambda x, y: 1 if x < y else 0,
}


class Evaluator:
    """Evaluates one program.

    Each method body is translated once into nested Python closures
    that take ``(args, locals)`` and return the value of a ``Return`` or
    ``None``.  Tallies are running totals on the evaluator; a memoized
    call adds the tallies its first evaluation produced.
    """

    def __init__(self, program):
        self.program = program
        self.work = 0
        self.invocations = 0
        self.virtual_calls = 0
        self._memo: Dict[Tuple, Tuple] = {}
        self._bodies: Dict[object, object] = {}
        self._resolved: Dict[Tuple[str, str], object] = {}

    def run(self, args: tuple = ()) -> Outcome:
        """Evaluate the program's entry method from fresh tallies."""
        self.work = self.invocations = self.virtual_calls = 0
        entry = self.program.method(self.program.entry)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20_000))
        try:
            value = self.invoke(entry, tuple(args))
        finally:
            sys.setrecursionlimit(limit)
        return Outcome(value, self.work, self.invocations,
                       self.virtual_calls)

    def invoke(self, method, args: tuple):
        """Call ``method``; return its value and add its tallies."""
        key = (method, args if all(type(a) is int for a in args)
               else shape(args))
        done = self._memo.get(key)
        if done is not None:
            value, work, invocations, virtual_calls = done
        else:
            work, invocations, virtual_calls = (
                self.work, self.invocations, self.virtual_calls)
            body = self._bodies.get(method)
            if body is None:
                body = self._bodies[method] = self._block(method.body)
            value = body(args, [0] * method.num_locals)
            value = 0 if value is None else value
            done = (value, self.work - work,
                    self.invocations - invocations + 1,
                    self.virtual_calls - virtual_calls)
            self._memo[key] = done
            # The callee's own tallies are already in the running
            # totals; only this invocation itself is still to count.
            self.invocations += 1
            return value
        self.work += work
        self.invocations += invocations
        self.virtual_calls += virtual_calls
        return value

    def resolve(self, klass: str, selector: str):
        """Walk the superclass chain for the method ``selector`` names."""
        key = (klass, selector)
        method = self._resolved.get(key)
        if method is None:
            name = klass
            while name is not None:
                cls = self.program.classes.get(name)
                if cls is None:
                    raise EvaluationError(f"unknown class {name!r}")
                method = cls.methods.get(selector)
                if method is not None:
                    break
                name = cls.superclass
            else:
                raise EvaluationError(f"{klass} has no {selector!r}")
            self._resolved[key] = method
        return method

    # -- translation -----------------------------------------------------

    def _block(self, body):
        steps = tuple(self._statement(stmt) for stmt in body)

        def block(args, locals_):
            for step in steps:
                result = step(args, locals_)
                if result is not None:
                    return result
            return None
        return block

    def _statement(self, stmt):
        t = type(stmt)
        if t is Work:
            cost = stmt.cost

            def work(args, locals_):
                self.work += cost
            return work
        if t is Let:
            dst, expr = stmt.dst, self._expr(stmt.expr)

            def let(args, locals_):
                locals_[dst] = expr(args, locals_)
            return let
        if t in (StaticCall, VirtualCall, InterfaceCall):
            return self._call(stmt)
        if t is Loop:
            count, index, body = (self._expr(stmt.count), stmt.index_local,
                                  self._block(stmt.body))

            def loop(args, locals_):
                for i in range(count(args, locals_)):
                    locals_[index] = i
                    result = body(args, locals_)
                    if result is not None:
                        return result
                return None
            return loop
        if t is If:
            cond = self._expr(stmt.cond)
            then, other = self._block(stmt.then_body), self._block(
                stmt.else_body)

            def branch(args, locals_):
                if cond(args, locals_):
                    return then(args, locals_)
                return other(args, locals_)
            return branch
        if t is New:
            dst, klass = stmt.dst, stmt.class_name

            def new(args, locals_):
                locals_[dst] = Obj(klass)
            return new
        if t is NewPool:
            dst, classes = stmt.dst, stmt.class_names

            def new_pool(args, locals_):
                locals_[dst] = tuple(Obj(c) for c in classes)
            return new_pool
        if t is Return:
            if stmt.expr is None:
                return lambda args, locals_: 0
            return self._expr(stmt.expr)
        raise EvaluationError(f"unknown statement {stmt!r}")

    def _call(self, stmt):
        dst = stmt.dst
        arg_exprs = tuple(self._expr(a) for a in stmt.args)
        if type(stmt) is StaticCall:
            target = self.program.method(stmt.target)

            def call(args, locals_):
                value = self.invoke(
                    target, tuple(a(args, locals_) for a in arg_exprs))
                if dst is not None:
                    locals_[dst] = value
            return call
        receiver_expr, selector, site = (self._expr(stmt.receiver),
                                         stmt.selector, stmt.site)

        def dispatch(args, locals_):
            receiver = receiver_expr(args, locals_)
            if type(receiver) is not Obj:
                raise EvaluationError(
                    f"site {site}: call on non-object {receiver!r}")
            self.virtual_calls += 1
            value = self.invoke(
                self.resolve(receiver.klass, selector),
                (receiver,) + tuple(a(args, locals_) for a in arg_exprs))
            if dst is not None:
                locals_[dst] = value
        return dispatch

    def _expr(self, e):
        t = type(e)
        if t is Const:
            value = e.value
            return lambda args, locals_: value
        if t is Arg:
            index = e.index
            return lambda args, locals_: args[index]
        if t is Local:
            index = e.index
            return lambda args, locals_: locals_[index]
        if t is Pick:
            pool_expr, index_expr = self._expr(e.pool), self._expr(e.index)

            def pick(args, locals_):
                pool = pool_expr(args, locals_)
                if type(pool) is not tuple or not pool:
                    raise EvaluationError(f"Pick from non-pool {pool!r}")
                return pool[index_expr(args, locals_) % len(pool)]
            return pick
        op = _BINARY.get(t)
        if op is None:
            raise EvaluationError(f"unknown expression {e!r}")
        left, right = self._expr(e.left), self._expr(e.right)
        return lambda args, locals_: op(left(args, locals_),
                                        right(args, locals_))
