"""Record containers and oracles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipar.records import (
    Records,
    group_counts,
    is_semisorted,
    same_multiset,
)


def test_records_validation():
    with pytest.raises(ValueError):
        Records(np.arange(3, dtype=np.uint64), np.arange(4, dtype=np.uint64))


def test_from_keys_payload_is_index():
    r = Records.from_keys(np.array([5, 5, 1], dtype=np.uint64))
    assert np.array_equal(r.payloads, [0, 1, 2])


def test_same_multiset():
    a = Records(np.array([1, 2, 2], np.uint64), np.array([10, 20, 30], np.uint64))
    b = a.take(np.array([2, 0, 1]))
    assert same_multiset(a, b)
    c = Records(np.array([1, 2, 2], np.uint64), np.array([10, 20, 31], np.uint64))
    assert not same_multiset(a, c)
    assert not same_multiset(a, Records.empty())


def test_group_counts():
    a = Records.from_keys(np.array([3, 1, 3, 3, 1], np.uint64))
    assert group_counts(a) == {1: 2, 3: 3}


def test_is_semisorted():
    ok = Records.from_keys(np.array([2, 2, 5, 1, 1, 1], np.uint64))
    bad = Records.from_keys(np.array([2, 5, 2], np.uint64))
    assert is_semisorted(ok)
    assert not is_semisorted(bad)
    assert is_semisorted(Records.empty())
    assert is_semisorted(Records.from_keys(np.array([7], np.uint64)))


@given(st.lists(st.sampled_from([0, 1, 5, 2**63, 2**64 - 1]), max_size=40))
@settings(max_examples=200, deadline=None)
def test_oracles_match_counter_reference(keys):
    a = Records.from_keys(np.array(keys, dtype=np.uint64))
    assert group_counts(a) == dict(Counter(keys))
    # Reference: a key is semisorted iff no run of it starts after one ended.
    closed, semisorted = set(), True
    for i, k in enumerate(keys):
        if i and keys[i - 1] != k:
            closed.add(keys[i - 1])
            semisorted &= k not in closed
    assert is_semisorted(a) == semisorted

