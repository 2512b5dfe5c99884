"""Closed-loop benchmark of semipar: one caller, one thread, calls back to back.

Set-up builds a pool of seeded inputs; each input's set-up is its
generation plus one warm-up call.  The timed loop then calls the pool
inputs in turn, in whole cycles, until ``--seconds`` have passed.  Every
call is verified outside its timed region and runs under a deadline, so a
wrong answer, a named library exception or a hang is a counted failure.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` half the time runs untraced and half traced (see tracing.py),
and the last line holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

import tracing
from workloads import (
    NAMED_FAILURES,
    POOL,
    WORKLOADS,
    Workload,
    algo_seed,
    input_rng,
    partition_counts,
)

RUN_BUDGET_S = 170.0   # a run ends well inside the 180 s a run may take
TAIL_BEYOND = 10       # calls that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "call_p50_s": "s",
    "setup_s": "s",
    "work_per_item": "ops/item",
    "rounds_per_call": "rounds",
    "peak_rss_mb": "MB",
}


class CallTimeout(Exception):
    """A call ran past its deadline."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise CallTimeout()


@dataclass
class Call:
    seconds: float
    ok: bool
    work: int = 0
    rounds: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)


@dataclass
class PoolItem:
    data: Any
    seed: int
    items: int
    gen_s: float
    setup_s: float = 0.0
    warm: Call | None = None


class Run:
    """State of one benchmark process: its clock, call counts and failures."""

    def __init__(self, wl: Workload):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.wl = wl
        self.start = perf_counter()
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.start)

    def call(self, item: PoolItem) -> Call:
        """One verified library call under a deadline; only the call is timed."""
        meter = tracing.WorkMeter()
        self.attempted += 1
        try:
            signal.setitimer(signal.ITIMER_REAL, max(0.5, min(self.wl.deadline_s, self.remaining())))
            t0 = perf_counter()
            try:
                out = self.wl.call(item.data, item.seed, meter)
            finally:
                seconds = perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (CallTimeout, *NAMED_FAILURES) as exc:
            self.failed += 1
            print(f"call failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return Call(seconds, False)
        ok = self.wl.verify(item.data, out)
        if not ok:
            self.failed += 1
            print(f"call failed verification on a {self.wl.name} input", file=sys.stderr)
        return Call(seconds, ok, meter.total_ops, meter.rounds, meter.snapshot())

    def build_pool(self, seed: int) -> list[PoolItem]:
        """Generate each pool input and make its warm-up call."""
        pool = []
        for j in range(POOL):
            t0 = perf_counter()
            data = self.wl.make_input(input_rng(seed, self.wl.name, j))
            gen_s = perf_counter() - t0
            item = PoolItem(data, algo_seed(seed, self.wl.name, j), self.wl.items(data), gen_s)
            capture = tracing.Tracer([tracing.CULL_SPEC] if self.wl.is_graph else [])
            with capture.installed():
                item.warm = self.call(item)
            item.setup_s = gen_s + item.warm.seconds
            if self.wl.is_graph:
                check_cut(capture)
            pool.append(item)
        return pool

    def loop(self, pool: list[PoolItem], seconds: float) -> list[Call]:
        """Call every pool input in turn, whole cycles, for at least ``seconds``."""
        calls: list[Call] = []
        t0 = perf_counter()
        while not calls or (perf_counter() - t0 < seconds and self.remaining() > 0):
            for item in pool:
                calls.append(self.call(item))
        return calls


def check_cut(capture: tracing.Tracer) -> None:
    """Stop the run unless the boosted call really split the graph.

    A partition with fewer than two non-empty pieces or no cut edge would
    leave the extenders nothing to carry, and the workload would time a
    vacuous run of the plain subroutines.
    """
    kept = capture.kept["graph.cull_partition"]
    if not kept:
        raise SystemExit("perfbench: no partition was captured from the boosted call")
    counts = partition_counts(*kept[-1])
    if counts["nonempty_pieces"] < 2 or counts["cut_edges"] == 0:
        raise SystemExit(f"perfbench: vacuous partition {counts}")


def throughput(pool: list[PoolItem], calls: list[Call]) -> float:
    ok = [(item, c) for item, c in zip(_cycle(pool, len(calls)), calls) if c.ok]
    seconds = sum(c.seconds for _, c in ok)
    return sum(item.items for item, _ in ok) / seconds if seconds else 0.0


def _cycle(pool: list[PoolItem], n: int) -> list[PoolItem]:
    return [pool[i % len(pool)] for i in range(n)]


def end_to_end(pool: list[PoolItem], calls: list[Call]) -> dict[str, float]:
    times = [c.seconds for c in calls if c.ok]
    warm = [(item.items, item.warm) for item in pool if item.warm.ok]
    return {
        "items_per_s": throughput(pool, calls),
        "call_p50_s": statistics.median(times) if times else 0.0,
        "setup_s": statistics.median(item.setup_s for item in pool),
        # Charged cost comes from the warm-up calls, one per pool input, so it
        # does not depend on how many timed calls fit in the run.
        "work_per_item": float(np.mean([c.work / n for n, c in warm])) if warm else 0.0,
        "rounds_per_call": float(np.mean([c.rounds for _, c in warm])) if warm else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def tail_line(calls: list[Call]) -> str:
    """The highest percentile with at least TAIL_BEYOND calls beyond it."""
    times = sorted(c.seconds for c in calls if c.ok)
    n = len(times)
    if n <= TAIL_BEYOND:
        return f"call_tail_s = n/a ({n} calls; needs more than {TAIL_BEYOND})"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return f"call_tail_s = {times[n - TAIL_BEYOND - 1]!r} s (p{pct:.1f} of {n} calls)"


def traced(run: Run, pool: list[PoolItem], seconds: float) -> dict[str, float]:
    untraced_ips = throughput(pool, run.loop(pool, seconds / 2))
    tr = tracing.Tracer(tracing.SPECS)
    with tr.installed():
        calls = run.loop(pool, seconds / 2)
    work: dict[str, int] = {}
    for c in calls:
        for label, ops in c.breakdown.items():
            work[label] = work.get(label, 0) + ops
    items = sum(item.items for item in _cycle(pool, len(calls)))
    traced_ips = throughput(pool, calls)
    generate_s = statistics.median(item.gen_s for item in pool) if run.wl.is_graph else 0.0
    overhead = untraced_ips / traced_ips - 1.0 if traced_ips else 0.0
    return tracing.layer_metrics(tr, len(calls), items, work, generate_s, overhead)


def environment(wl: Workload, args: argparse.Namespace, pool: list[PoolItem]) -> dict:
    input_bytes = wl.input_bytes(pool[0].data)
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("THREADS")},
        "input_bytes": input_bytes,
        "pool_bytes": input_bytes * len(pool),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    run = Run(WORKLOADS[args.workload])
    pool = run.build_pool(args.seed)
    print("env " + json.dumps(environment(run.wl, args, pool)))
    if args.trace:
        metrics = traced(run, pool, args.seconds)
        units = tracing.per_layer_units()
    else:
        calls = run.loop(pool, args.seconds)
        metrics = end_to_end(pool, calls)
        units = END_TO_END_UNITS
        print(tail_line(calls))
    print(f"fail_rate = {run.failed / run.attempted!r} ratio ({run.failed}/{run.attempted} calls)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0
