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
from semipar.semisort import verify_semisort

ALPHABET = [0, 1, 5, 2**63, 2**64 - 1]


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


@given(st.lists(st.sampled_from(ALPHABET), max_size=40))
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



@given(
    st.lists(st.sampled_from(ALPHABET), max_size=40),
    st.sampled_from(["any", "sorted", "grouped"]),
    st.sampled_from([None, "repeat_payload", "change_key", "swap", "drop", "payload_n"]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_verify_semisort_equals_oracles(keys, arrange, mutant, data):
    # A permutation of from_keys(keys), arranged so that valid outputs occur
    # (sorted, or grouped in a drawn key order), then perhaps tampered with.
    # The verifier must agree with the triad oracle, and with sort=True with
    # np.sort plus same_multiset, and never raise.
    keys = np.array(keys, dtype=np.uint64)
    n = len(keys)
    a = Records.from_keys(keys)
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"), dtype=np.int64)
    if arrange == "sorted":
        perm = perm[np.argsort(keys[perm], kind="stable")]
    elif arrange == "grouped":
        rank = np.array(data.draw(st.permutations(range(len(ALPHABET))), label="rank"))
        key_rank = rank[np.searchsorted(np.array(ALPHABET, dtype=np.uint64), keys)]
        perm = perm[np.argsort(key_rank[perm], kind="stable")]
    out = a.take(perm)

    def pick(label):
        return data.draw(st.integers(0, n - 1), label=label)

    if mutant == "repeat_payload" and n >= 2:
        out.payloads[pick("j")] = out.payloads[pick("i")]
    elif mutant == "change_key" and n:
        out.keys[pick("i")] = data.draw(st.sampled_from(ALPHABET), label="key")
    elif mutant == "swap" and n >= 2:
        i, j = pick("i"), pick("j")
        swap = np.arange(n)
        swap[[i, j]] = [j, i]
        out = out.take(swap)
    elif mutant == "drop" and n:
        out = out.take(np.delete(np.arange(n), pick("i")))
    elif mutant == "payload_n" and n:
        out.payloads[pick("i")] = data.draw(st.sampled_from([n, 2**64 - 1]), label="payload")

    triad = is_semisorted(out) and same_multiset(a, out) and group_counts(out) == group_counts(a)
    assert verify_semisort(keys, out) == triad
    in_order = np.array_equal(out.keys, np.sort(keys)) and same_multiset(a, out)
    assert verify_semisort(keys, out, sort=True) == in_order
    if arrange == "sorted" and mutant is None:
        assert triad and in_order
