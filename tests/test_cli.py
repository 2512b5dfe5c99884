"""Benchmark CLI: subcommands, formats, reproducibility, exit codes."""

import dataclasses
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from semipar import cli, placement
from semipar.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    ExperimentConfig,
    TrialRecord,
    gen_keys,
    main,
    tail_report,
)
from semipar.graph_algos import InvalidPalette


def run_cli(args):
    return main(list(args))


# ---------------------------------------------------------------------------
# Key generation


@pytest.mark.parametrize("dist", ["uniform", "zipf", "all_equal", "all_distinct"])
def test_gen_keys_distributions(dist):
    r = gen_keys(dist, 1000, seed=3)
    assert len(r) == 1000
    if dist == "all_equal":
        assert len(np.unique(r.keys)) == 1
    if dist == "all_distinct":
        assert len(np.unique(r.keys)) == 1000


def test_gen_keys_deterministic():
    a = gen_keys("zipf", 500, seed=7, theta=1.2)
    b = gen_keys("zipf", 500, seed=7, theta=1.2)
    assert np.array_equal(a.keys, b.keys)


def test_zipf_is_skewed():
    r = gen_keys("zipf", 20_000, seed=1, theta=1.2)
    _, counts = np.unique(r.keys, return_counts=True)
    assert counts.max() > 50 * counts.mean()


# ---------------------------------------------------------------------------
# Config


def test_config_validation():
    from semipar.cli import ConfigError

    with pytest.raises(ConfigError):
        ExperimentConfig("semisort", trials=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig("semisort", dist="nope").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig("semisort", fmt="xml").validate()


def test_resolved_k_defaults_to_log_n():
    assert ExperimentConfig("mis", n=1 << 16).resolved_k() == 16
    assert ExperimentConfig("mis", n=1 << 16, k=3).resolved_k() == 3


def test_tail_report_summary():
    recs = [
        TrialRecord(trial=i, seed=i, n=1000, charged_work=1000 * (i + 1))
        for i in range(10)
    ]
    rep = tail_report(recs)
    assert rep["trials"] == 10
    assert rep["charged_work"]["max"] == 10_000
    assert rep["charged_work"]["mean"] == 5500


# ---------------------------------------------------------------------------
# End-to-end runs (in-process via main())


def test_semisort_csv_roundtrip(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run_cli(
        ["semisort", "--n", "4096", "--trials", "2", "--seed", "5", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    assert header["n"] == 4096 and header["trials"] == 2
    assert lines[1].split(",")[0] == "trial"
    assert len(lines) == 4
    assert all(row.endswith(",1") for row in lines[2:])  # verified column


def test_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert run_cli(["semisort", "--n", "2048", "--trials", "3", "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_format(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(
        ["mis", "--n", "500", "--m", "1500", "--trials", "1", "--format", "json",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["algorithm"] == "mis"
    assert doc["trials"][0]["verified"] == 1


@pytest.mark.parametrize(
    "cmd,extra",
    [
        ("intsort", ["--n", "3000"]),
        ("placement", ["--n", "4096"]),
        ("partition", ["--n", "600", "--m", "2400", "--k", "3"]),
        ("color", ["--n", "500", "--m", "1500", "--k", "3"]),
        ("color", ["--n", "3", "--graph", "star", "--k", "3"]),  # piece ids reach n
    ],
)
def test_all_subcommands_pass(cmd, extra, tmp_path):
    out = tmp_path / "o.csv"
    assert run_cli([cmd, *extra, "--trials", "1", "--out", str(out)]) == EXIT_OK


def _uncull(part):
    assignment = part.assignment.copy()
    assignment[part.culled] = 0
    return dataclasses.replace(part, culled=part.culled[:0], assignment=assignment)


def _piece_out_of_range(part):
    assignment = part.assignment.copy()
    assignment[assignment == 0] = part.k
    return dataclasses.replace(part, assignment=assignment)


def _drop_culled_id(part):
    return dataclasses.replace(part, culled=part.culled[1:])


@pytest.mark.parametrize("tamper", [None, _uncull, _piece_out_of_range, _drop_culled_id])
def test_partition_rows_check_the_partition(tamper, tmp_path, monkeypatch):
    # The verified column re-checks the returned partition, so a partition
    # that breaks its definition reads 0.  At k = 2 this graph has culled
    # vertices and survivors in both pieces.
    real = cli.cull_partition
    if tamper is not None:
        monkeypatch.setattr(cli, "cull_partition", lambda *a: tamper(real(*a)))
    out = tmp_path / "p.json"
    code = run_cli(
        ["partition", "--n", "600", "--m", "2400", "--k", "2", "--format", "json",
         "--out", str(out)]
    )
    doc = json.loads(out.read_text())
    assert doc["trials"][0]["verified"] == (tamper is None)
    assert code == (EXIT_OK if tamper is None else cli.EXIT_VERIFY)


def _repeat_record(out):
    return out.take(np.r_[0, 0, 2:len(out)])


def _input_order(out):
    # Every record, each with its own key, but unsorted and with runs split.
    return out.take(np.argsort(out.payloads))


def _placed(res, order, slots):
    # A stand-in for res with another order and slots: a PlacementResult
    # derives both from its claims, which cannot hold a tampered order.
    return SimpleNamespace(
        rounds_used=res.rounds_used, probes=res.probes, arena_size=res.arena_size,
        order=order, slots=slots,
    )


def _slot_outside_target(res):
    slots = res.slots.copy()
    slots[-1] = res.arena_size
    return _placed(res, res.order, slots)


def _repeat_placed_record(res):
    order = res.order.copy()
    order[1] = order[0]
    return _placed(res, order, res.slots)


@pytest.mark.parametrize(
    "cmd,name,tamper",
    [
        ("semisort", "semisort", None),
        ("semisort", "semisort", lambda r: (_repeat_record(r[0]), r[1])),
        ("semisort", "semisort", lambda r: (_input_order(r[0]), r[1])),
        ("intsort", "integer_sort", None),
        ("intsort", "integer_sort", _repeat_record),
        ("intsort", "integer_sort", _input_order),
        ("placement", "place", None),
        ("placement", "place", _slot_outside_target),
        ("placement", "place", _repeat_placed_record),
    ],
    ids=["semisort", "semisort-repeat", "semisort-unsorted", "intsort", "intsort-repeat",
         "intsort-unsorted", "placement", "placement-out-of-range", "placement-repeat"],
)
def test_sort_and_placement_rows_check_their_output(cmd, name, tamper, tmp_path, monkeypatch):
    # The verified column re-checks what the library returned, so an output
    # that breaks its definition reads 0 and the run exits 1.
    real = getattr(cli, name)
    if tamper is not None:
        monkeypatch.setattr(cli, name, lambda *a: tamper(real(*a)))
    out = tmp_path / "t.json"
    code = run_cli([cmd, "--n", "4096", "--format", "json", "--out", str(out)])
    assert json.loads(out.read_text())["trials"][0]["verified"] == (tamper is None)
    assert code == (EXIT_OK if tamper is None else cli.EXIT_VERIFY)


@pytest.mark.parametrize(
    "cmd,extra,header_keys",
    [
        ("placement", [], {"algorithm", "n", "trials", "seed", "fmt"}),
        ("semisort", [], {"algorithm", "n", "trials", "seed", "fmt", "dist", "theta",
                          "params", "semisort_params"}),
        ("mis", ["--m", "1500"], {"algorithm", "n", "trials", "seed", "fmt", "m", "k",
                                  "graph_kind", "resolved_k"}),
    ],
)
def test_header_lists_only_what_the_subcommand_reads(cmd, extra, header_keys, tmp_path):
    out = tmp_path / "h.json"
    args = [cmd, "--n", "2048", *extra, "--format", "json", "--out", str(out)]
    assert run_cli(args) == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc["config"]) == header_keys
    if cmd == "placement":
        assert doc["trials"][0]["dist"] == ""


@pytest.mark.parametrize("kind", ["star", "path"])
def test_header_records_the_edges_of_star_and_path(kind, tmp_path):
    # Without --m the header records the n - 1 edges the kind resolves to.
    out = tmp_path / "g.json"
    args = ["mis", "--n", "10", "--graph", kind, "--k", "5", "--format", "json", "--out", str(out)]
    assert run_cli(args) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["m"] == doc["trials"][0]["m"] == 9


def test_intsort_all_equal_runs_equal_keys(tmp_path):
    # all_equal keys reduced mod n stay one key, which charges different
    # work from uniform keys in [n].
    work = {}
    for dist in ("uniform", "all_equal"):
        out = tmp_path / f"{dist}.csv"
        args = ["intsort", "--n", "4096", "--trials", "2", "--dist", dist, "--out", str(out)]
        assert run_cli(args) == EXIT_OK
        rows = out.read_text().splitlines()
        col = rows[1].split(",").index("charged_work")
        work[dist] = [row.split(",")[col] for row in rows[2:]]
    assert work["uniform"] != work["all_equal"]


def test_param_overrides_reach_semisort(tmp_path):
    out = tmp_path / "o.csv"
    code = run_cli(
        ["semisort", "--n", "4096", "--param", "K=4", "--param", "max_restarts=5",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    header = json.loads(out.read_text().splitlines()[0][2:])
    assert header["semisort_params"]["K"] == 4
    assert header["semisort_params"]["max_restarts"] == 5


def test_bounds_subcommand(capsys):
    code = run_cli(["bounds", "--bound", "chernoff_upper",
                    "--param", "mu=100", "--param", "delta=0.5"])
    assert code == EXIT_OK
    import math

    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(math.exp(-0.25 * 100 / 2.5))


def test_bounds_weights(capsys):
    code = run_cli(["bounds", "--bound", "weighted_geom",
                    "--weights", "1,2,3", "--param", "t=4"])
    assert code == EXIT_OK


def test_bounds_bad_params():
    assert run_cli(["bounds", "--bound", "chernoff_upper",
                    "--param", "mu=-5", "--param", "delta=0.5"]) == EXIT_CONFIG


def test_exit_code_config_error(capsys, monkeypatch):
    # A lowered record limit stands in for the 2^32 - 1 placement records
    # that would not fit in memory.
    monkeypatch.setattr(placement, "RECORD_LIMIT", 16)
    for args in (
        ["semisort", "--config", "x.cfg"],          # settings come from flags only
        # Flags the subcommand does not read.
        ["bounds", "--bound", "chernoff_upper", "--param", "mu=100",
         "--param", "delta=0.5", "--trials", "0", "--n", "7"],
        ["semisort", "--n", "2048", "--graph", "star", "--m", "5", "--k", "3"],
        ["placement", "--param", "K=5"],
        ["semisort", "--n", "x"],                   # parser-level misuse
        ["color", "--graph", "bogus"],
        ["bounds", "--bound", "weighted_geom", "--weights", "1,x"],
        ["bounds", "--bound", "geom_sum", "--param", "lam=2", "--param", "r=2.5"],
        ["bounds", "--bound", "chernoff_upper", "--param", "mu=nan", "--param", "delta=1"],
        ["semisort", "--trials", "0"],
        ["mis", "--n", "4", "--m", "100"],   # more edges than a simple graph holds
        # Star and path graphs have n - 1 edges, so --m cannot set them.
        ["mis", "--n", "10", "--m", "3", "--graph", "star", "--k", "5"],
        ["color", "--n", "10", "--m", "9", "--graph", "path"],
        ["mis", "--k", "-3"],
        ["semisort", "--param", "k=9"],      # not a SemisortParams field
        ["semisort", "--param", "Kx=2"],
        ["semisort", "--param", "K=3.9"],    # integer field
        # Values that would break placement.
        ["semisort", "--n", "4096", "--param", "d=0"],
        ["semisort", "--n", "4096", "--param", "round_cap=0"],
        ["semisort", "--n", "4096", "--param", "d=100000"],  # d > round_cap
        ["semisort", "--n", "4096", "--param", "c_alloc=-1"],
        ["semisort", "--n", "4096", "--param", "alpha=inf"],
        # Finite, but the capacities they size overflow int64.
        ["semisort", "--n", "4096", "--param", "p_s=1e-300"],
        ["semisort", "--n", "4096", "--param", "c_alloc=1e300"],
        ["semisort", "--n", "4096", "--param", "alpha=1e300"],
        ["semisort", "--dist", "zipf", "--theta", "nan"],
        ["semisort", "--n", "4096", "--dist", "zipf", "--theta", "-200"],  # weights overflow
        # Sizes past the 32-bit vertex ids or the placement record limit.
        ["partition", "--n", str(1 << 32), "--graph", "gnm", "--m", "0", "--k", "1"],
        ["placement", "--n", "20"],
    ):
        assert run_cli(args) == EXIT_CONFIG, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "params",
    [["K=1e300"], ["K=64"], ["B=1e12"], ["d=1e300"], ["round_cap=1", "max_restarts=1e30"]],
    ids=["K=1e300", "K=64", "B=1e12", "d=1e300", "max_restarts=1e30"],
)
def test_param_upper_limits_exit_config(params, capsys):
    # Integral but beyond what the run can use: each once hung or raised a
    # traceback from inside semisort.
    args = ["semisort", "--n", "4096"]
    for p in params:
        args += ["--param", p]
    assert run_cli(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --param: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("K", [20, 62])
def test_bucket_too_large_exits_config(K, capsys):
    # K is within [3, 62], but the data's largest light bucket m_b has
    # m_b^K >= 2^63, which only the run can find.
    assert run_cli(["semisort", "--n", "4096", "--param", f"K={K}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bucket of ") and err.count("\n") == 1, err


def test_light_arena_budget_exits_config(capsys):
    # B passes SemisortParams (<= 2^32) but its buckets' arena would not fit
    # a budget linear in n, which only the run's n can tell.
    assert run_cli(["semisort", "--n", "4096", "--param", "B=4294967296"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: B=4294967296 ") and err.count("\n") == 1, err


def test_dense_graph_request_exits_config(capsys):
    # Valid m, but too dense for rejection sampling to finish.
    assert run_cli(["mis", "--n", "300", "--m", "44850", "--graph", "power_law"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "too dense" in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "exc,code,prefix",
    [
        (InvalidPalette("a library input error the CLI does not name"), EXIT_CONFIG,
         "config error: "),
        (RuntimeError("a randomized run used up its budget"), cli.EXIT_VERIFY,
         "hard failure: "),
    ],
)
def test_runner_errors_follow_the_library_contract(exc, code, prefix, capsys, monkeypatch):
    # Any ValueError from a run is a rejected request (exit 2), any
    # RuntimeError a failed run (exit 1); each prints one line.
    def runner(cfg, trial):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "semisort", runner)
    assert run_cli(["semisort", "--n", "1024"]) == code
    err = capsys.readouterr().err
    assert err == f"{prefix}{exc}\n", err


def test_exit_code_io_error(tmp_path):
    assert run_cli(["semisort", "--n", "1024",
                    "--out", str(tmp_path / "no_dir" / "x.csv")]) == EXIT_IO


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "semipar.cli", "semisort", "--n", "1024"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "trial,seed" in proc.stdout
