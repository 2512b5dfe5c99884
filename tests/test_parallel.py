"""fork_join against a sequential reference: results, charges, exceptions."""

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipar import parallel
from semipar.meter import WorkMeter


class Boom(Exception):
    """Raised by leaf ``args[0]``."""


# A leaf charges (label, ops, rounds) and raises when its flag is set; a
# node is a pair of subtrees, run as the two branches of one fork.
LEAVES = st.tuples(
    st.sampled_from("abcd"), st.integers(0, 5), st.integers(0, 3),
    st.integers(0, 4).map(lambda x: x == 0),
)
TREES = st.recursive(LEAVES, lambda sub: st.tuples(sub, sub), max_leaves=12)


def _build(tree, ids, ran):
    """The branch that runs ``tree`` through nested forks, and the reference
    recursion's sequential run of it: (result, charges in order, critical
    path in rounds, id of the leaf that raised or None).  Leaves get ids in
    sequential order from the iterator ``ids`` and append them to ``ran``."""
    if len(tree) == 2:
        first, ref1 = _build(tree[0], ids, ran)
        second, ref2 = _build(tree[1], ids, ran)

        def node(m):
            return parallel.fork_join(m, first, second, True)

        r1, c1, d1, e1 = ref1
        if e1 is not None:
            return node, (None, c1, d1, e1)
        r2, c2, d2, e2 = ref2
        return node, ((r1, r2) if e2 is None else None, c1 + c2, max(d1, d2), e2)
    label, ops, rounds, raises = tree
    leaf_id = next(ids)

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
    # On one CPU every fork runs in turn; on two the outermost one forks and
    # the nested ones run in turn.  Either way the result, the labels in
    # order, the work, the exception (the first in sequential order) and the
    # rounds (the critical path) are those of the reference, and after an
    # exception the meter holds exactly the sequential prefix.  In turn, no
    # leaf after the one that raised runs.
    if len(tree) == 4:
        tree = (tree, ("a", 1, 1, False))
    for cpus in (1, 2):
        ids, ran = iter(range(100)), []
        branch, (result, charges, depth, error) = _build(tree, ids, ran)
        prefix = list(range(next(ids) if error is None else error + 1))
        expected = {}
        for label, ops in charges:
            expected[label] = expected.get(label, 0) + ops
        meter = WorkMeter()
        meter.charge("before", 1, 2)
        submits = []
        real_submit = ThreadPoolExecutor.submit

        def counting_submit(self, *args):
            submits.append(1)
            return real_submit(self, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "_cpus", lambda: cpus)
            mp.setattr(ThreadPoolExecutor, "submit", counting_submit)
            try:
                got, raised = branch(meter), None
            except Boom as exc:
                got, raised = None, exc.args[0]
        assert len(submits) == cpus - 1
        assert ran == prefix if cpus == 1 else set(prefix) <= set(ran)
        assert (got, raised) == (result, error)
        assert list(meter.phase_breakdown.items()) == [("before", 1), *expected.items()]
        assert meter.rounds == 2 + depth
