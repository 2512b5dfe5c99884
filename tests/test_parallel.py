"""fork_join against a sequential reference: results, charges, exceptions,
and which forks go to the helper thread."""

import ast
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipar import parallel
from semipar.meter import WorkMeter


class Boom(Exception):
    """Raised by leaf ``args[0]``."""


# A leaf charges (label, ops, rounds) and raises when its flag is set; a
# node is a size and a pair of subtrees, run as the two branches of one fork
# of that size.
LEAVES = st.tuples(
    st.sampled_from("abcd"), st.integers(0, 5), st.integers(0, 3),
    st.integers(0, 4).map(lambda x: x == 0),
)
SIZES = st.sampled_from([0, parallel.FORK_MIN - 1, parallel.FORK_MIN, 1 << 40])
TREES = st.recursive(LEAVES, lambda sub: st.tuples(SIZES, sub, sub), max_leaves=12)


def _build(tree, ids, ran, forks, in_flight=False):
    """The branch that runs ``tree`` through nested forks, and the reference
    recursion's sequential run of it: (result, charges in order, critical
    path in rounds, id of the leaf that raised or None).  Leaves take ids in
    sequential order by appending them to ``ids``, and append them to
    ``ran`` when they run.  Each node that forks on two CPUs, because its
    size reaches FORK_MIN and no enclosing fork is in flight, appends (the
    id of its first leaf, its first branch) to ``forks``."""
    if len(tree) == 3:
        size, left, right = tree
        fork = size >= parallel.FORK_MIN and not in_flight
        first_leaf = len(ids)
        first, ref1 = _build(left, ids, ran, forks, in_flight or fork)
        if fork:
            forks.append((first_leaf, first))
        second, ref2 = _build(right, ids, ran, forks, in_flight or fork)

        def node(m):
            return parallel.fork_join(m, first, second, size)

        r1, c1, d1, e1 = ref1
        if e1 is not None:
            return node, (None, c1, d1, e1)
        r2, c2, d2, e2 = ref2
        return node, ((r1, r2) if e2 is None else None, c1 + c2, max(d1, d2), e2)
    label, ops, rounds, raises = tree
    leaf_id = len(ids)
    ids.append(leaf_id)

    def leaf(m):
        ran.append(leaf_id)
        m.charge(label, ops, rounds)
        if raises:
            raise Boom(leaf_id)
        return leaf_id

    return leaf, (None if raises else leaf_id, [(label, ops)], rounds, leaf_id if raises else None)


@given(TREES)
@settings(max_examples=150, deadline=None)
def test_fork_join_matches_a_sequential_reference(tree):
    # On one CPU every fork runs in turn.  On two, a fork goes to the helper
    # thread iff its size reaches FORK_MIN and no enclosing fork is in
    # flight, and only if a sequential run would reach it: the forks outside
    # every forked node run in sequential order on the caller.  Either way
    # the result, the labels in order, the work, the exception (the first
    # in sequential order) and the rounds (the critical path) are those of
    # the reference, and after an exception the meter holds exactly the
    # sequential prefix.  In turn, no leaf after the one that raised runs.
    if len(tree) == 4:
        tree = (parallel.FORK_MIN, tree, ("a", 1, 1, False))
    for cpus in (1, 2):
        ids, ran, forks = [], [], []
        branch, (result, charges, depth, error) = _build(tree, ids, ran, forks)
        prefix = list(range(len(ids) if error is None else error + 1))
        reached = [first for leaf, first in forks if error is None or leaf <= error]
        expected = {}
        for label, ops in charges:
            expected[label] = expected.get(label, 0) + ops
        meter = WorkMeter()
        meter.charge("before", 1, 2)
        submits = []
        real_submit = ThreadPoolExecutor.submit

        def counting_submit(self, fn, first, *args):
            submits.append(first)
            return real_submit(self, fn, first, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "_cpus", lambda: cpus)
            mp.setattr(ThreadPoolExecutor, "submit", counting_submit)
            try:
                got, raised = branch(meter), None
            except Boom as exc:
                got, raised = None, exc.args[0]
        assert submits == (reached if cpus == 2 else [])
        assert ran == prefix if cpus == 1 else set(prefix) <= set(ran)
        assert (got, raised) == (result, error)
        assert list(meter.phase_breakdown.items()) == [("before", 1), *expected.items()]
        assert meter.rounds == 2 + depth


# The names that make up the fork rule, and the size expressions that would
# decide a fork outside parallel.py.
RULE_NAMES = {"FORK_MIN", "_cpus", "_claim_helper"}


def _is_decision(expr):
    return (
        isinstance(expr, (ast.Compare, ast.BoolOp))
        or (isinstance(expr, ast.Constant) and isinstance(expr.value, bool))
        or (isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not))
    )


def _fork_rule_breaches(src):
    """(file, line, what) for every place in the modules under ``src``, other
    than parallel.py, that reads a name of the fork rule or passes fork_join
    a size that is itself a decision (a bool constant, a comparison, a
    boolean operation), directly or through a name the module binds to one;
    and how many fork_join calls there are."""
    breaches, calls = set(), 0
    for path in sorted(Path(src).glob("*.py")):
        if path.name == "parallel.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.setdefault(target.id, []).append(node.value)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in RULE_NAMES:
                        breaches.add((path.name, node.lineno, f"imports {alias.name}"))
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in RULE_NAMES and isinstance(getattr(node, "ctx", None), ast.Load):
                breaches.add((path.name, node.lineno, f"reads {name}"))
            func = getattr(node, "func", None)
            if getattr(func, "id", None) == "fork_join" or getattr(func, "attr", None) == "fork_join":
                calls += 1
                for size in node.args[3:] + [k.value for k in node.keywords]:
                    values = bound.get(size.id, []) if isinstance(size, ast.Name) else [size]
                    for value in values:
                        if _is_decision(value):
                            breaches.add((path.name, value.lineno, "decides a fork"))
    return sorted(breaches), calls


def test_only_parallel_decides_whether_to_fork():
    # Call sites pass fork_join the smaller branch's size; FORK_MIN, the CPU
    # count and the in-flight lock are read in parallel.py alone.
    breaches, calls = _fork_rule_breaches(Path(parallel.__file__).parent)
    assert calls >= 8
    assert breaches == []
