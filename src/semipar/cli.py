"""Benchmark harness CLI: seeded trials, work statistics, bound evaluation.

Subcommands: semisort, intsort, placement, partition, mis, color, bounds.
Each experiment runs ``--trials`` seeded trials, verifies every
correctness-bearing output, and emits one row per trial as CSV or JSON.
Output rows embed no wall-clock data, so identical configs produce
byte-identical files; wall time is reported on the summary line only.

Every setting comes from its flag, or else from the ``ExperimentConfig``
default.  ``--param KEY=VALUE`` overrides one ``SemisortParams`` field, and
``SemisortParams`` itself rejects a value its field cannot take.

Exit codes: 0 success; 1 a verifier or assertion failed, or a randomized
run used up its budget (``RuntimeError``); 2 a flag the CLI rejects, or a
``ValueError`` a library function raised for the request (one
``config error:`` line); 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod, placement as placement_mod
from .graph import cull_partition, generate, piece_edge_counts, verify_partition
from .graph_algos import boosted_coloring, boosted_mis, verify_coloring, verify_mis
from .meter import WorkMeter, ceil_log2
from .placement import (
    PlacementInstance,
    PlacementTimeout,
    default_round_cap,
    place,
    verify_placement,
)
from .prng import derive, generator
from .records import Records
from .semisort import SemisortParams, integer_sort, semisort, verify_semisort

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3

DISTRIBUTIONS = ("uniform", "zipf", "all_equal", "all_distinct")
# Settings a flag may give: key -> (config field, type).
SETTINGS = {
    "n": ("n", int),
    "m": ("m", int),
    "k": ("k", int),
    "dist": ("dist", str),
    "graph": ("graph_kind", str),
    "theta": ("theta", float),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "out": ("out", str),
    "format": ("fmt", str),
}
# The settings each experiment reads; any other flag is an error.
_RUN = ("n", "trials", "seed", "out", "format")
READS = {
    "semisort": (*_RUN, "dist", "theta"),
    "intsort": (*_RUN, "dist", "theta"),
    "placement": _RUN,
    "partition": (*_RUN, "m", "k", "graph"),
    "mis": (*_RUN, "m", "k", "graph"),
    "color": (*_RUN, "m", "k", "graph"),
}
SORTS = ("semisort", "intsort")  # the experiments that also take --param


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a misuse as ConfigError (one line, exit 2) instead of printing usage."""

    def error(self, message: str):
        raise ConfigError(message)


@dataclass
class ExperimentConfig:
    algorithm: str
    n: int = 1 << 14
    m: int = 1 << 16
    k: int = 0              # 0 means ceil(log2 n)
    dist: str = "uniform"
    theta: float = 1.0
    trials: int = 1
    seed: int = 1
    out: str | None = None
    fmt: str = "csv"
    graph_kind: str = "gnm"
    params: dict[str, float] = field(default_factory=dict)

    def resolved_k(self) -> int:
        return self.k if self.k > 0 else ceil_log2(self.n)

    def semisort_params(self) -> SemisortParams:
        return SemisortParams.for_n(self.n, **self.params)

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.dist not in DISTRIBUTIONS:
            raise ConfigError(f"dist must be one of {DISTRIBUTIONS}")
        if not math.isfinite(self.theta):
            raise ConfigError("theta must be finite")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.n < 1:
            raise ConfigError("n must be positive")
        # The placement runner draws n targets before PlacementInstance can
        # check them.  The limit is read at call time, so a test can lower it.
        limit = placement_mod.RECORD_LIMIT
        if self.algorithm == "placement" and self.n >= limit:
            raise ConfigError(f"n must be below {limit} for placement")
        if self.k < 0:
            raise ConfigError("k must be >= 0 (0 means ceil(log2 n))")
        names = {f.name for f in dataclasses.fields(SemisortParams)}
        for key in self.params:
            if key not in names:
                raise ConfigError(f"unknown --param {key!r}; expected one of {sorted(names)}")
        try:
            self.semisort_params()
        except ValueError as exc:
            raise ConfigError(f"--param: {exc}") from None


@dataclass
class TrialRecord:
    trial: int
    seed: int
    n: int
    m: int = 0
    k: int = 0
    dist: str = ""
    charged_work: int = 0
    rounds: int = 0
    restarts: int = 0
    max_bucket_size: int = 0
    max_attempts: int = 0
    verified: bool = True

    def row(self) -> dict:
        d = dataclasses.asdict(self)
        d["verified"] = int(self.verified)
        return d


CSV_COLUMNS = [f.name for f in dataclasses.fields(TrialRecord)]


def _zipf_p(n: int, theta: float) -> np.ndarray:
    """Zipf probabilities of ranks 1..n; ConfigError if the weights overflow."""
    with np.errstate(over="ignore"):
        w = np.arange(1, n + 1, dtype=np.float64) ** -theta
        total = w.sum()
    if not math.isfinite(total):
        raise ConfigError(f"theta {theta} overflows the zipf weights at n={n}")
    return w / total


def gen_keys(dist: str, n: int, seed: int, theta: float = 1.0) -> Records:
    """Seeded keys of the benchmark distributions, as ``Records.from_keys``:
    payload i names record i, which ``verify_semisort`` relies on."""
    rng = generator(seed, 0xD15)
    if dist == "uniform":
        keys = rng.integers(0, max(n, 1), size=n, dtype=np.uint64)
    elif dist == "all_equal":
        keys = np.full(n, int(rng.integers(0, 1 << 32)), dtype=np.uint64)
    elif dist == "all_distinct":
        keys = rng.permutation(n).astype(np.uint64)
    elif dist == "zipf":
        keys = rng.choice(n, size=n, p=_zipf_p(n, theta)).astype(np.uint64)
    else:
        raise ConfigError(f"unknown distribution {dist!r}")
    return Records.from_keys(keys)


def tail_report(records: list[TrialRecord]) -> dict:
    """Per-metric max/mean/quantiles over the trial records."""
    if not records:
        raise ValueError("need at least one trial record")
    out: dict = {"trials": len(records)}
    for metric in ("charged_work", "rounds", "restarts", "max_bucket_size", "max_attempts"):
        vals = np.array([getattr(r, metric) for r in records], dtype=np.float64)
        out[metric] = {
            "max": float(vals.max()),
            "mean": float(vals.mean()),
            "p50": float(np.quantile(vals, 0.5)),
            "p90": float(np.quantile(vals, 0.9)),
            "p99": float(np.quantile(vals, 0.99)),
        }
    return out


# ---------------------------------------------------------------------------
# Per-algorithm trial runners


def _run_semisort(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    seed = derive(cfg.seed, trial)
    data = gen_keys(cfg.dist, cfg.n, seed, cfg.theta)
    meter = WorkMeter()
    out, trace = semisort(data, cfg.semisort_params(), seed, meter)
    return TrialRecord(
        trial=trial, seed=seed, n=cfg.n, dist=cfg.dist,
        charged_work=meter.total_ops, rounds=meter.rounds,
        restarts=trace.restarts, max_bucket_size=trace.max_bucket_size,
        max_attempts=int(trace.bucket_attempts.max(initial=1)),
        verified=verify_semisort(data.keys, out),
    )


def _run_intsort(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    seed = derive(cfg.seed, trial)
    keys = gen_keys(cfg.dist, cfg.n, seed, cfg.theta).keys % np.uint64(max(cfg.n, 1))
    meter = WorkMeter()
    out = integer_sort(Records.from_keys(keys), cfg.semisort_params(), seed, meter)
    return TrialRecord(
        trial=trial, seed=seed, n=cfg.n, dist=cfg.dist,
        charged_work=meter.total_ops, rounds=meter.rounds,
        verified=verify_semisort(keys, out, sort=True),
    )


def _run_placement(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    seed = derive(cfg.seed, trial)
    n = cfg.n
    d = ceil_log2(n)
    n_targets = max(1, n // 64)
    rng = generator(seed, 0x11)
    targets = rng.integers(0, n_targets, size=n, dtype=np.int64)
    counts = np.bincount(targets, minlength=n_targets)
    caps = np.ceil(2.0 * counts).astype(np.int64)
    caps[caps == 0] = 1
    inst = PlacementInstance(targets=targets, capacities=caps, alpha=2.0, d=d)
    meter = WorkMeter()
    ok = False
    rounds = 0
    try:
        res = place(inst, default_round_cap(n), seed, meter)
        rounds = res.rounds_used
        ok = verify_placement(inst, res)
    except PlacementTimeout:
        pass
    return TrialRecord(
        trial=trial, seed=seed, n=n,
        charged_work=meter.total_ops, rounds=rounds, verified=ok,
    )


def _run_graph(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    seed = derive(cfg.seed, trial)
    g = generate(cfg.graph_kind, cfg.n, cfg.m, seed)
    k = cfg.resolved_k()
    meter = WorkMeter()
    max_piece = 0
    if cfg.algorithm == "partition":
        part = cull_partition(g, k, seed, meter)
        max_piece = int(piece_edge_counts(g, part).max(initial=0))
        ok = verify_partition(g, part)
    elif cfg.algorithm == "mis":
        ok = verify_mis(g, boosted_mis(g, k, seed, meter))
    else:
        ok = verify_coloring(g, boosted_coloring(g, k, seed, meter), g.max_degree())
    return TrialRecord(
        trial=trial, seed=seed, n=cfg.n, m=g.m, k=k, dist=cfg.graph_kind,
        charged_work=meter.total_ops, rounds=meter.rounds,
        max_bucket_size=max_piece, verified=ok,
    )


_RUNNERS = {
    "semisort": _run_semisort,
    "intsort": _run_intsort,
    "placement": _run_placement,
    "partition": _run_graph,
    "mis": _run_graph,
    "color": _run_graph,
}


# ---------------------------------------------------------------------------
# Output


def _config_header(cfg: ExperimentConfig) -> dict:
    """The settings this subcommand reads, and what it resolves them to.

    The output destination is left out: identical configs must produce
    byte-identical files regardless of where they land.
    """
    reads = READS[cfg.algorithm]
    d = {"algorithm": cfg.algorithm}
    for key in reads:
        if key != "out":
            name = SETTINGS[key][0]
            d[name] = getattr(cfg, name)
    if cfg.algorithm in SORTS:
        d["params"] = cfg.params
        d["semisort_params"] = dataclasses.asdict(cfg.semisort_params())
    if "k" in reads:
        d["resolved_k"] = cfg.resolved_k()
    return d


def emit_csv(cfg: ExperimentConfig, records: list[TrialRecord]) -> str:
    lines = [f"# {json.dumps(_config_header(cfg), sort_keys=True)}"]
    lines.append(",".join(CSV_COLUMNS))
    for r in records:
        row = r.row()
        lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def emit_json(cfg: ExperimentConfig, records: list[TrialRecord]) -> str:
    return json.dumps(
        {"config": _config_header(cfg), "trials": [r.row() for r in records]},
        sort_keys=True,
        indent=2,
    ) + "\n"


# ---------------------------------------------------------------------------
# Argument handling


def _parse_param(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise ConfigError(f"--param expects KEY=VALUE, got {text!r}")
    key, value = text.split("=", 1)
    try:
        return key.strip(), float(value)
    except ValueError:
        raise ConfigError(f"--param value must be numeric: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semipar-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in READS.items():
        # An unset flag sets no attribute, so the ExperimentConfig default holds.
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for key in keys:
            dest, cast = SETTINGS[key]
            p.add_argument(f"--{key}", dest=dest, type=cast)
        if name in SORTS:
            p.add_argument("--param", action="append")
    p = sub.add_parser("bounds")
    p.add_argument("--bound", required=True, choices=sorted(bounds_mod._EVALUATORS))
    p.add_argument("--param", action="append", default=[])
    p.add_argument("--weights", default=None, help="comma-separated list")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The flags given on the command line, over the ExperimentConfig defaults."""
    fields = vars(args)
    command = fields.pop("command")
    params = dict(_parse_param(p) for p in fields.pop("param", []))
    cfg = ExperimentConfig(algorithm=command, params=params, **fields)
    cfg.validate()
    return cfg


def _run_bounds(args: argparse.Namespace) -> int:
    params = dict(_parse_param(p) for p in args.param)
    if args.weights is not None:
        key = "weights" if args.bound == "weighted_geom" else "lipschitz"
        params[key] = [float(x) for x in args.weights.split(",") if x.strip()]
    try:
        value = bounds_mod.bound_eval(args.bound, **params)
    except TypeError as exc:  # a parameter the bound does not take
        raise ConfigError(str(exc)) from None
    print(f"{value:.12g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # A ValueError is a rejected request: a ConfigError from the flags, or a
    # library input error (the library's named ones all subclass it).  A
    # RuntimeError is a randomized run that used up its budget.
    try:
        args = build_parser().parse_args(argv)
        if args.command == "bounds":
            return _run_bounds(args)
        cfg = _config_from_args(args)
        runner = _RUNNERS[cfg.algorithm]
        t0 = time.perf_counter()
        records = [runner(cfg, trial) for trial in range(cfg.trials)]
        elapsed = time.perf_counter() - t0
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AssertionError, RuntimeError) as exc:
        print(f"hard failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY

    text = emit_csv(cfg, records) if cfg.fmt == "csv" else emit_json(cfg, records)
    if cfg.out:
        try:
            Path(cfg.out).write_text(text)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)

    failed = sum(not r.verified for r in records)
    summary = tail_report(records)
    print(
        f"# {cfg.algorithm}: {len(records)} trials, {failed} failed, "
        f"{elapsed:.2f}s wall", file=sys.stderr,
    )
    print(f"# summary: {json.dumps(summary, sort_keys=True)}", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
