"""The reference evaluator on hand-written programs, worked out by hand."""

from repro.jvm.program import (Add, Arg, ClassDef, Const, If, Let, Local,
                               Loop, Lt, MethodDef, Mul, NewPool, Pick,
                               Program, Return, StaticCall, Sub,
                               VirtualCall, Work)

from reference import Evaluator, Outcome
from workloads import PROBE_DEPTH, deep_recursion_program


def program(*classes, entry="Main.main"):
    prog = Program("hand")
    for name, superclass, methods in classes:
        cls = prog.add_class(ClassDef(name, superclass))
        for method in methods:
            cls.declare(method)
    prog.set_entry(entry)
    prog.validate()
    return prog


def static(klass, name, body, params=0):
    return MethodDef(klass, name, params, True, body, num_locals=4)


def test_straight_line():
    prog = program(("Main", None, [static("Main", "main", [
        Work(5), Let(0, Add(Const(2), Const(3))),
        Return(Mul(Local(0), Const(4)))])]))
    assert Evaluator(prog).run() == Outcome(20, 5, 1, 0)


def test_loop_of_static_calls_returns_last_value():
    # Three iterations: Work(2) each, and f(i) = i + 10 doing Work(1).
    prog = program(("Main", None, [
        static("Main", "main", [
            Loop(Const(3), 0, [Work(2),
                               StaticCall(1, "Main.f", [Local(0)], dst=1)]),
            Return(Local(1))]),
        static("Main", "f", [Work(1), Return(Add(Arg(0), Const(10)))],
               params=1)]))
    assert Evaluator(prog).run() == Outcome(12, 3 * 2 + 3 * 1, 1 + 3, 0)


def test_virtual_dispatch_walks_superclasses():
    # Receivers cycle A, B, C; C inherits A.m.  m returns 1 (A) or 2 (B)
    # after Work(3) or Work(7): values 1+2+1+1+2+1 = 8, work
    # 3+7+3+3+7+3 = 26, six virtual sites and six invocations besides main.
    def m(klass, work, value):
        return MethodDef(klass, "m", 1, False, [Work(work),
                                                Return(Const(value))])
    prog = program(
        ("A", None, [m("A", 3, 1)]),
        ("B", "A", [m("B", 7, 2)]),
        ("C", "A", []),
        ("Main", None, [static("Main", "main", [
            NewPool(0, ["A", "B", "C"]),
            Loop(Const(6), 1, [
                VirtualCall(1, "m", Pick(Local(0), Local(1)), dst=2),
                Let(3, Add(Local(3), Local(2)))]),
            If(Lt(Local(3), Const(100)), [Return(Local(3))],
               [Return(Const(-1))])])]))
    assert Evaluator(prog).run() == Outcome(8, 26, 7, 6)


def test_memoized_calls_still_count_every_invocation():
    # fib(6) = 8.  Every invocation does Work(1) once, and the naive call
    # tree of fib(n) has C(n) = 1 + C(n-1) + C(n-2) nodes, C(0) = C(1) = 1,
    # so C(6) = 25: work 25 and 25 invocations besides main.
    prog = program(("Main", None, [
        static("Main", "main", [StaticCall(1, "Main.fib", [Const(6)], dst=0),
                                Return(Local(0))]),
        static("Main", "fib", [
            If(Lt(Arg(0), Const(2)), [Work(1), Return(Arg(0))]),
            Work(1),
            StaticCall(2, "Main.fib", [Sub(Arg(0), Const(1))], dst=0),
            StaticCall(3, "Main.fib", [Sub(Arg(0), Const(2))], dst=1),
            Return(Add(Local(0), Local(1)))], params=1)]))
    assert Evaluator(prog).run() == Outcome(8, 25, 26, 0)


def test_return_inside_a_loop_ends_the_method():
    prog = program(("Main", None, [static("Main", "main", [
        Loop(Const(10), 0, [Work(1), If(Lt(Const(2), Local(0)),
                                         [Return()])]),
        Return(Const(7))])]))
    # Iterations 0..3 run; the fourth returns 0 (a bare Return).
    assert Evaluator(prog).run() == Outcome(0, 4, 1, 0)


def test_deep_recursion_probe():
    outcome = Evaluator(deep_recursion_program()).run()
    assert outcome == Outcome(PROBE_DEPTH, PROBE_DEPTH + 1,
                              PROBE_DEPTH + 2, 0)
