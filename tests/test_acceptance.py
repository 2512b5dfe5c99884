"""Acceptance gate: ten quantitative criteria, one pass/fail line each.

Each test prints its verdict directly to the terminal (bypassing capture)
so a full run reads as a ten-line scoreboard.  Criteria 3-5 share one
50-seed semisort sweep, computed once per session.
"""

import math

import mpmath
import numpy as np
import pytest

from semipar.bounds import bound_eval
from semipar.cli import gen_keys
from semipar.graph import cull_partition, cull_threshold, generate, piece_edge_counts
from semipar.graph_algos import boosted_coloring, boosted_mis, extend_palettes, verify_coloring, verify_mis
from semipar.meter import WorkMeter
from semipar.placement import PlacementInstance, default_round_cap, place, verify_placement
from semipar.prng import derive, generator
from semipar.records import Records
from semipar.semisort import integer_sort, semisort, verify_semisort


def _verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        tail = f"  [{detail}]" if detail else ""
        print(f"\nACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Shared 50-seed semisort sweep (criteria 3, 4, 5)

SWEEP_SIZES = (1 << 14, 1 << 16, 1 << 18, 1 << 20)
SWEEP_SEEDS = 50


@pytest.fixture(scope="module")
def semisort_sweep():
    """max work/n, max bucket size, bucket attempts and restarts per size."""
    out = {}
    for n in SWEEP_SIZES:
        work_per_n = []
        max_bucket = 0
        attempts = []
        restarts = 0
        for s in range(SWEEP_SEEDS):
            seed = derive(0xACCE, n, s)
            data = gen_keys("uniform", n, seed)
            meter = WorkMeter()
            result, trace = semisort(data, None, seed, meter)
            assert verify_semisort(data.keys, result)
            work_per_n.append(meter.total_ops / n)
            max_bucket = max(max_bucket, trace.max_bucket_size)
            attempts.append(trace.bucket_attempts)
            restarts += trace.restarts
        out[n] = {
            "max_work_per_n": max(work_per_n),
            "max_bucket": max_bucket,
            "attempts": np.concatenate(attempts) if attempts else np.empty(0),
            "restarts": restarts,
        }
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_semisort_correctness(capsys):
    """500 cases per distribution, five distributions, n in {2^10..2^16}."""
    cases_per_dist = 500
    dists = [("uniform", 1.0), ("zipf", 0.8), ("zipf", 1.2), ("all_equal", 1.0), ("all_distinct", 1.0)]
    powers = [1 << e for e in range(10, 17)]
    pick = generator(0xC1, 0)
    failures = 0
    total = 0
    for di, (dist, theta) in enumerate(dists):
        for case in range(cases_per_dist):
            n = powers[int(pick.integers(0, len(powers)))]
            seed = derive(0xC1, di, case)
            data = gen_keys(dist, n, seed, theta)
            result, _ = semisort(data, None, seed)
            failures += not verify_semisort(data.keys, result)
            total += 1
    _verdict(capsys, 1, "semisort correctness", failures == 0,
             f"{total - failures}/{total} cases")


def test_criterion_2_integer_sort(capsys):
    """Integer sort equals comparison-sort-by-key on 200 random instances."""
    failures = 0
    pick = generator(0xC2, 0)
    for case in range(200):
        n = int(pick.integers(1, 1 << 18))
        seed = derive(0xC2, case)
        rng = generator(seed, 1)
        data = Records.from_keys(rng.integers(0, n, size=n, dtype=np.uint64))
        result = integer_sort(data, None, seed)
        failures += not verify_semisort(data.keys, result, sort=True)
    _verdict(capsys, 2, "integer sort vs comparison sort", failures == 0,
             f"{200 - failures}/200 instances")


def test_criterion_3_work_linearity(capsys, semisort_sweep):
    """Max charged work/n grows by at most 1.5x from n=2^14 to n=2^20."""
    lo = semisort_sweep[1 << 14]["max_work_per_n"]
    hi = semisort_sweep[1 << 20]["max_work_per_n"]
    ratio = hi / lo
    restarts = sum(semisort_sweep[n]["restarts"] for n in SWEEP_SIZES)
    runs = len(SWEEP_SIZES) * SWEEP_SEEDS
    _verdict(capsys, 3, "semisort work linearity", ratio <= 1.5,
             f"work/n {lo:.1f} -> {hi:.1f}, ratio {ratio:.3f} <= 1.5, "
             f"{restarts} restarts in {runs} runs")


def test_criterion_4_bucket_bound(capsys, semisort_sweep):
    """Max packed-bucket size stays within C_B * (log2 n)^4, C_B fit at 2^16."""
    c_b = semisort_sweep[1 << 16]["max_bucket"] / 16.0**4
    bound_20 = c_b * 20.0**4
    observed_20 = semisort_sweep[1 << 20]["max_bucket"]
    _verdict(capsys, 4, "light bucket size bound", observed_20 <= bound_20,
             f"C_B={c_b:.4f}, bucket at 2^20: {observed_20} <= {bound_20:.0f}")


def test_criterion_5_rehash_dominance(capsys, semisort_sweep):
    """Rehash attempt counts are dominated by a geometric with ratio 1/2."""
    attempts = np.concatenate([semisort_sweep[n]["attempts"] for n in SWEEP_SIZES])
    runs = len(attempts)
    ok = runs >= 10_000
    worst = ""
    for j in range(1, 6):
        frac = float((attempts > j).mean())
        limit = 2.0 ** -j
        if frac > limit:
            ok = False
        worst += f" j={j}:{frac:.4f}<={limit:.4f}"
    _verdict(capsys, 5, "rehash geometric dominance", ok, f"{runs} runs;{worst}")


def test_criterion_6_placement(capsys):
    """200 instances at n=2^16: rounds <= 8 log n, probes <= 4n, verify_placement."""
    n = 1 << 16
    d = 16
    failures = 0
    for case in range(200):
        seed = derive(0xC6, case)
        rng = generator(seed, 1)
        n_targets = n // 64
        targets = rng.integers(0, n_targets, size=n, dtype=np.int64)
        counts = np.bincount(targets, minlength=n_targets)
        caps = np.maximum(1, np.ceil(2.0 * counts).astype(np.int64))
        inst = PlacementInstance(targets=targets, capacities=caps, alpha=2.0, d=d)
        res = place(inst, default_round_cap(n), seed)
        ok = (
            res.rounds_used <= 8 * 16
            and res.probes <= 4 * n
            and verify_placement(inst, res)
        )
        failures += not ok
    _verdict(capsys, 6, "placement rounds/probes/injectivity", failures == 0,
             f"{200 - failures}/200 instances")


def test_criterion_7_culled_partition(capsys):
    """50 graphs at n=2^14, m=2^18, k=ceil(log2 n): all structural bounds."""
    n, m = 1 << 14, 1 << 18
    k = 14
    lg = 14
    failures = 0
    c_bal = 0.0
    for case in range(50):
        seed = derive(0xC7, case)
        g = generate("gnm", n, m, seed)
        # The per-phase disjunction and the post-cull degree bound are hard
        # assertions inside cull_partition; reaching here means they held.
        part = cull_partition(g, k, seed)
        ok = len(part.culled) <= max(part.phases, 1) * 4 * k**4 * lg
        counts = piece_edge_counts(g, part)
        c_bal = max(c_bal, counts.max(initial=0) / (m / k**2))
        failures += not ok
    _verdict(capsys, 7, "culled balanced partition", failures == 0 and c_bal <= 4,
             f"{50 - failures}/50 graphs, C_bal={c_bal:.3f} <= 4")


def test_criterion_8_boosted_mis_coloring(capsys):
    """Verifiers pass on 20 seeds x 3 graph families; work/m stays flat."""
    m_cycle = [1 << 14, 1 << 16, 1 << 18, 1 << 20]
    failures = 0
    total = 0
    for ki, kind in enumerate(("gnm", "power_law", "star")):
        for s in range(20):
            m = m_cycle[s % len(m_cycle)]
            n = max(m // 8, 4) if kind != "star" else m + 1
            seed = derive(0xC8, ki, s)
            g = generate(kind, n, m if kind != "star" else 0, seed)
            colors = boosted_coloring(g, k=max(2, math.ceil(math.log2(n))), seed=seed)
            mis = boosted_mis(g, k=max(2, math.ceil(math.log2(n))), seed=seed)
            ok = verify_coloring(g, colors, g.max_degree()) and verify_mis(g, mis)
            failures += not ok
            total += 1
    # Work flatness on the gnm family between m=2^14 and m=2^20.
    per_m = {}
    for m in (1 << 14, 1 << 20):
        worst = 0.0
        for s in range(3):
            seed = derive(0xC8, 2, m, s)
            g = generate("gnm", m // 8, m, seed)
            meter = WorkMeter()
            colors = boosted_coloring(g, k=math.ceil(math.log2(g.n)), seed=seed, meter=meter)
            failures += not verify_coloring(g, colors, g.max_degree())
            worst = max(worst, meter.total_ops / m)
        per_m[m] = worst
    ratio = per_m[1 << 20] / per_m[1 << 14]
    _verdict(capsys, 8, "boosted MIS + coloring", failures == 0 and ratio <= 1.5,
             f"{total} runs verified, work/m ratio {ratio:.3f} <= 1.5")


def test_criterion_9_extender_exactness(capsys):
    """extend_palettes equals the per-vertex set-difference oracle, 10^4 configs."""
    pick = generator(0xC9, 0)
    failures = 0
    for case in range(10_000):
        nv = int(pick.integers(1, 8))
        cut = int(pick.integers(0, 24))
        num_colors = int(pick.integers(max(1, cut) + 1, cut + 8))
        targets = pick.integers(0, nv, size=cut).astype(np.int64)
        colors = pick.integers(0, num_colors, size=cut).astype(np.int64)
        p = extend_palettes(nv, targets, colors, num_colors)
        ok = True
        for v in range(nv):
            gone = np.unique(colors[targets == v])
            expect = np.setdiff1d(np.arange(num_colors), gone)
            if not np.array_equal(p.allowed(v), expect):
                ok = False
            # Palette invariant: room for internal degree + 1 whenever the
            # total degree fits under num_colors (cut degree counts removals).
            cut_deg = int((targets == v).sum())
            internal_budget = num_colors - 1 - cut_deg
            if internal_budget >= 0 and p.sizes()[v] < internal_budget + 1:
                ok = False
        failures += not ok
    _verdict(capsys, 9, "palette extender exactness", failures == 0,
             f"{10_000 - failures}/10000 configurations")


def test_criterion_10_bound_evaluators(capsys):
    """bound_eval matches mpmath recomputation to relative error 1e-12."""
    mpmath.mp.dps = 60
    pick = generator(0xC10, 0)
    worst = 0.0
    checks = 0
    for case in range(100):
        mu = float(pick.uniform(0.1, 500))
        delta = float(pick.uniform(0.0, 3.0))
        lam = float(pick.uniform(1.0, 5.0))
        r = int(pick.integers(1, 100))
        t = float(pick.uniform(0.0, 50.0))
        w = [float(x) for x in pick.uniform(0.1, 5.0, size=int(pick.integers(1, 8)))]

        def rel(got, exact):
            exact = min(mpmath.mpf(1), exact)
            if exact < mpmath.mpf("1e-300"):
                # Below double-precision range: the evaluator can only
                # return 0, which is the correctly rounded answer.
                return 0.0 if got <= 1e-300 else 1.0
            return float(abs(mpmath.mpf(got) - exact) / exact)

        worst = max(worst, rel(
            bound_eval("chernoff_upper", mu=mu, delta=delta),
            mpmath.e ** (-(mpmath.mpf(delta) ** 2 * mu) / (2 + mpmath.mpf(delta))),
        ))
        dl = min(delta, 1.0)
        worst = max(worst, rel(
            bound_eval("chernoff_lower", mu=mu, delta=dl),
            mpmath.e ** (-(mpmath.mpf(dl) ** 2 * mu) / 2),
        ))
        worst = max(worst, rel(
            bound_eval("geom_sum", lam=lam, r=r),
            mpmath.e ** (-((mpmath.mpf(lam) - 1) ** 2) / (2 * mpmath.mpf(lam)) * r),
        ))
        w2 = mpmath.fsum(mpmath.mpf(x) ** 2 for x in w)
        winf = max(w)
        worst = max(worst, rel(
            bound_eval("weighted_geom", weights=w, t=t),
            mpmath.e ** (-min(mpmath.mpf(t) ** 2 / (16 * w2), mpmath.mpf(t) / (8 * mpmath.mpf(winf)))),
        ))
        worst = max(worst, rel(
            bound_eval("mcdiarmid", lipschitz=w, t=t),
            2 * mpmath.e ** (-2 * mpmath.mpf(t) ** 2 / w2),
        ))
        checks += 5
    _verdict(capsys, 10, "tail bound evaluators", worst <= 1e-12,
             f"{checks} evaluations, worst rel err {worst:.2e}")
