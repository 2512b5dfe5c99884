"""Closed-form tail bounds, evaluated numerically for empirical comparison.

Each evaluator computes the literal bound expression, clamped to [0, 1],
and rejects parameters outside the hypotheses of the underlying inequality
or for which the expression is undefined (NaN).  ``chernoff_lower_mean``
inverts the lower Chernoff tail: the arena sizes of ``semisort.f_alloc``
and the round cap of ``placement.default_round_cap`` both come from it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class HypothesisViolated(ValueError):
    """Parameters fall outside the hypotheses of the requested bound."""


def chernoff_upper(mu: float, delta: float) -> float:
    """P[X >= (1+delta) mu] <= exp(-delta^2 mu / (2 + delta)), delta >= 0."""
    if mu < 0:
        raise HypothesisViolated("mean must be non-negative")
    if delta < 0:
        raise HypothesisViolated("delta must be >= 0")
    return _clamp(math.exp(-(delta * delta * mu) / (2.0 + delta)))


def chernoff_lower(mu: float, delta: float) -> float:
    """P[X <= (1-delta) mu] <= exp(-delta^2 mu / 2), delta in [0, 1]."""
    if mu < 0:
        raise HypothesisViolated("mean must be non-negative")
    if not 0.0 <= delta <= 1.0:
        raise HypothesisViolated("delta must lie in [0, 1]")
    return _clamp(math.exp(-(delta * delta * mu) / 2.0))


def chernoff_lower_mean(s: float | np.ndarray, ell: float) -> float | np.ndarray:
    """The least mean mu >= s with chernoff_lower(mu, 1 - s/mu) <= e^-ell.

    That bound is exp(-(mu - s)^2 / (2 mu)), so mu solves (mu - s)^2 =
    2 ell mu: mu = s + ell + sqrt(ell^2 + 2 s ell).  A sum of independent
    0/1 variables whose mean is at least mu is at most s with probability
    at most e^-ell.  ``s`` may be an array of non-negative counts; an
    infinite ``ell`` gives inf for every s.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0) or not ell >= 0:
        raise HypothesisViolated("s and ell must be non-negative")
    if math.isinf(ell):  # 0 * ell would give NaN
        return s + math.inf
    return s + ell + np.sqrt(ell * ell + 2.0 * s * ell)


def geom_sum(lam: float, r: int) -> float:
    """P[sum of r Ge(p) >= lam * mean] <= exp(-(lam-1)^2 / (2 lam) * r)."""
    if lam < 1.0:
        raise HypothesisViolated("lambda must be >= 1")
    if isinstance(r, float) and not r.is_integer():
        raise HypothesisViolated(f"r counts summands and must be an integer, got {r}")
    if r < 1:
        raise HypothesisViolated("need at least one summand")
    return _clamp(math.exp(-((lam - 1.0) ** 2) / (2.0 * lam) * r))


def weighted_geom(weights: Sequence[float], t: float) -> float:
    """P[sum w_i G_i >= 2 W1 + t] <= exp(-min(t^2/(16 W2), t/(8 Winf)))."""
    if not t >= 0:
        raise HypothesisViolated("t must be >= 0")
    w = list(weights)
    if not w or not all(x >= 0 for x in w):
        raise HypothesisViolated("weights must be non-negative and non-empty")
    w2 = sum(x * x for x in w)
    winf = max(w)
    if winf == 0:
        return 1.0 if t == 0 else 0.0
    return _clamp(math.exp(-min(t * t / (16.0 * w2), t / (8.0 * winf))))


def mcdiarmid(lipschitz: Sequence[float], t: float) -> float:
    """P[|f(X) - E f(X)| > t] <= 2 exp(-2 t^2 / sum d_i^2)."""
    if not t >= 0:
        raise HypothesisViolated("t must be >= 0")
    d = list(lipschitz)
    if not d or not all(x >= 0 for x in d):
        raise HypothesisViolated("Lipschitz constants must be non-negative")
    denom = sum(x * x for x in d)
    if denom == 0:
        return 1.0 if t == 0 else 0.0
    return _clamp(2.0 * math.exp(-2.0 * t * t / denom))


_EVALUATORS = {
    "chernoff_upper": chernoff_upper,
    "chernoff_lower": chernoff_lower,
    "geom_sum": geom_sum,
    "weighted_geom": weighted_geom,
    "mcdiarmid": mcdiarmid,
}


def bound_eval(bound: str, **params) -> float:
    """Dispatch on bound name; see the individual evaluators for parameters."""
    try:
        fn = _EVALUATORS[bound]
    except KeyError:
        raise ValueError(f"unknown bound {bound!r}; choose from {sorted(_EVALUATORS)}")
    return fn(**params)


def _clamp(x: float) -> float:
    if math.isnan(x):
        raise HypothesisViolated("the bound is undefined (NaN) at these parameters")
    return min(1.0, max(0.0, x))
