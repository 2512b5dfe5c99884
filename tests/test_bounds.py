"""Tail bound evaluators: formulas, hypotheses, clamping, dispatch."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semipar.bounds import (
    HypothesisViolated,
    bound_eval,
    chernoff_lower,
    chernoff_lower_mean,
    chernoff_upper,
    geom_sum,
    mcdiarmid,
    weighted_geom,
)


def test_chernoff_upper_formula():
    assert chernoff_upper(100, 0.5) == pytest.approx(math.exp(-0.25 * 100 / 2.5))
    assert chernoff_upper(0, 1.0) == 1.0
    assert chernoff_upper(50, 0.0) == 1.0


def test_chernoff_lower_formula():
    assert chernoff_lower(100, 0.5) == pytest.approx(math.exp(-0.25 * 100 / 2))
    assert chernoff_lower(100, 1.0) == pytest.approx(math.exp(-50.0), abs=0)


def test_chernoff_lower_mean_inverts_the_lower_tail():
    # At mu = chernoff_lower_mean(s, l), P[X <= s] <= exp(-(mu - s)^2 / (2 mu))
    # is exactly e^-l, for an array of counts as for one.
    s = np.array([0.0, 1.0, 3.0, 15.0, 1000.0])
    for ell in (0.5, 8.3, 41.6):
        mu = chernoff_lower_mean(s, ell)
        assert mu.shape == s.shape
        for si, mi in zip(s, mu):
            assert chernoff_lower(mi, 1 - si / mi) == pytest.approx(math.exp(-ell), rel=1e-9, abs=0)
            assert mi == chernoff_lower_mean(si, ell)
    assert chernoff_lower_mean(0, 2.0) == 4.0
    assert chernoff_lower_mean(5, 0.0) == 5.0
    assert np.all(np.isinf(chernoff_lower_mean(np.array([0.0, 7.0]), math.inf)))
    for bad in ((-1, 1.0), (np.array([1.0, -0.5]), 1.0), (1, -1.0), (1, math.nan)):
        with pytest.raises(HypothesisViolated):
            chernoff_lower_mean(*bad)


def test_chernoff_hypotheses():
    with pytest.raises(HypothesisViolated):
        chernoff_upper(-1, 0.5)
    with pytest.raises(HypothesisViolated):
        chernoff_upper(10, -0.1)
    with pytest.raises(HypothesisViolated):
        chernoff_lower(10, 1.5)


def test_geom_sum_formula():
    assert geom_sum(2.0, 10) == pytest.approx(math.exp(-1.0 / 4.0 * 10))
    assert geom_sum(1.0, 5) == 1.0


def test_geom_sum_hypotheses():
    with pytest.raises(HypothesisViolated):
        geom_sum(0.5, 10)
    with pytest.raises(HypothesisViolated):
        geom_sum(2.0, 0)
    with pytest.raises(HypothesisViolated, match="integer"):
        geom_sum(2.0, 2.5)  # r counts summands; it is never truncated
    assert geom_sum(2.0, 3.0) == geom_sum(2.0, 3)


def test_weighted_geom_formula():
    w = [1.0, 2.0, 3.0]
    t = 4.0
    w2, winf = 14.0, 3.0
    expect = math.exp(-min(t * t / (16 * w2), t / (8 * winf)))
    assert weighted_geom(w, t) == pytest.approx(expect)


def test_weighted_geom_picks_smaller_exponent():
    # Large t: the linear branch t / (8 Winf) governs.
    w = [1.0]
    t = 100.0
    assert weighted_geom(w, t) == pytest.approx(math.exp(-t / 8.0))


def test_weighted_geom_hypotheses():
    with pytest.raises(HypothesisViolated):
        weighted_geom([1.0], -1.0)
    with pytest.raises(HypothesisViolated):
        weighted_geom([], 1.0)
    with pytest.raises(HypothesisViolated):
        weighted_geom([1.0, -2.0], 1.0)


def test_mcdiarmid_formula():
    d = [1.0, 1.0, 1.0, 1.0]
    t = 2.0
    assert mcdiarmid(d, t) == pytest.approx(2.0 * math.exp(-2.0 * 4.0 / 4.0))
    assert mcdiarmid(d, 0.0) == 1.0  # clamped


def test_mcdiarmid_hypotheses():
    with pytest.raises(HypothesisViolated):
        mcdiarmid([1.0], -0.5)
    with pytest.raises(HypothesisViolated):
        mcdiarmid([], 1.0)


@pytest.mark.parametrize(
    "fn,args",
    [
        (chernoff_upper, (math.nan, 1.0)),
        (chernoff_upper, (math.inf, 0.0)),   # 0 * inf in the exponent
        (chernoff_lower, (math.nan, 0.5)),
        (weighted_geom, ([1.0, 2.0], math.nan)),
        (weighted_geom, ([0.0], math.nan)),  # the zero-weight shortcut
        (weighted_geom, ([0.0, math.nan], 1.0)),
        (mcdiarmid, ([1.0], math.nan)),
        (mcdiarmid, ([0.0], math.nan)),
    ],
)
def test_undefined_inputs_raise(fn, args):
    # A NaN bound is not a probability; reporting it as 0 would claim certainty.
    with pytest.raises(HypothesisViolated):
        fn(*args)


def test_degenerate_weights():
    assert weighted_geom([0.0, 0.0], 0.0) == 1.0
    assert weighted_geom([0.0], 5.0) == 0.0
    assert mcdiarmid([0.0], 5.0) == 0.0


@given(
    st.floats(0, 1e6, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
)
def test_bounds_always_probabilities(mu, delta):
    assert 0.0 <= chernoff_upper(mu, delta) <= 1.0
    assert 0.0 <= weighted_geom([1.0, 2.0], delta) <= 1.0
    assert 0.0 <= mcdiarmid([1.0, 2.0], delta) <= 1.0


def test_bound_eval_dispatch():
    assert bound_eval("chernoff_upper", mu=10, delta=1.0) == chernoff_upper(10, 1.0)
    assert bound_eval("geom_sum", lam=2.0, r=3) == geom_sum(2.0, 3)
    with pytest.raises(ValueError, match="unknown bound"):
        bound_eval("nope")
