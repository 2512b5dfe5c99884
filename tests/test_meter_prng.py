"""Work metering and counter-based seeding."""

import numpy as np
import pytest

from semipar.meter import WorkMeter, ceil_log2
from semipar.prng import derive, generator, mix64, mix64_array


def test_ceil_log2():
    assert ceil_log2(1) == 1
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(1024) == 10
    # The float form math.ceil(math.log2(x)) returns 53 here: 2^53 + 1 rounds to 2^53.
    assert ceil_log2((1 << 53) + 1) == 54


def test_meter_charges_and_rounds():
    m = WorkMeter()
    m.charge("a", 10, 1)
    m.charge("a", 5, 0)
    m.charge("b", 1, 2)
    assert m.phase_breakdown == {"a": 15, "b": 1}
    assert m.total_ops == 16
    assert m.rounds == 3


def test_meter_rejects_negative():
    m = WorkMeter()
    with pytest.raises(ValueError):
        m.charge("x", -1, 1)
    with pytest.raises(ValueError):
        m.charge("x", 1, -1)
    assert m.phase_breakdown == {} and m.rounds == 0


def test_meter_join_and_snapshot():
    a = WorkMeter()
    a.charge("x", 2, 1)
    a.charge("x", 3, 1)
    a.charge("y", 4, 1)
    assert a.snapshot() == {"x": 5, "y": 4}
    snap = a.snapshot()
    snap["x"] = 0
    assert a.phase_breakdown["x"] == 5  # snapshot is a copy
    b, c = WorkMeter(), WorkMeter()
    b.charge("z", 7, 4)
    b.charge("x", 1, 2)
    c.charge("w", 1, 5)
    c.charge("z", 2, 0)
    # Work adds label by label in sequential order, rounds by the deeper branch.
    a.join(b, c)
    assert list(a.phase_breakdown.items()) == [("x", 6), ("y", 4), ("z", 9), ("w", 1)]
    assert a.rounds == 3 + max(6, 5)
    assert b.phase_breakdown == {"z": 7, "x": 1} and b.rounds == 6
    a.join()
    assert a.rounds == 9 and a.total_ops == 20


def test_mix64_bijective_looking():
    outs = {mix64(i) for i in range(10_000)}
    assert len(outs) == 10_000
    assert mix64(0) != 0


def test_mix64_array_matches_scalar():
    xs = np.arange(256, dtype=np.uint64)
    vec = mix64_array(xs)
    for x, v in zip(xs, vec):
        assert mix64(int(x)) == int(v)


def test_derive_order_sensitive():
    assert derive(1, 2, 3) != derive(1, 3, 2)
    assert derive(1) != derive(2)
    assert derive(5, 7) == derive(5, 7)


def test_generator_streams_independent():
    g1 = generator(3, 1)
    g2 = generator(3, 2)
    g1b = generator(3, 1)
    a, b, c = g1.integers(0, 1 << 32, 8), g2.integers(0, 1 << 32, 8), g1b.integers(0, 1 << 32, 8)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
