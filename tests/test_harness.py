"""Experiment harness: CSV emission, determinism, slope fits, separation."""

import csv
import hashlib
import json
from types import SimpleNamespace

import pytest

from gossipsim import core
from gossipsim.cli import main as cli_main
from gossipsim.core import (
    AdversarySchedule,
    NetworkSnapshot,
    TokenState,
    TokenUniverse,
    run_simulation,
)
from gossipsim.dgs1 import schedule_to_text
from gossipsim.harness import (
    CSV_HEADER,
    ExperimentConfig,
    build_schedule,
    first_sentinel_crossing,
    fit_loglog_slope,
    initial_state,
    load_trace,
    make_sentinel_stop,
    measure_blocker_separation,
    run_cell,
    run_experiment,
    rows_to_csv_text,
    save_trace,
    summarize_sweep,
    sweep,
)
from gossipsim.protocols import get_protocol


def flood_config(out=None, n_list=(4,), seeds=(0,)):
    return ExperimentConfig(
        adversary={"name": "static-line"},
        protocol={"name": "flood:0"},
        initial={"kind": "single-source", "tokens": 1},
        n_list=list(n_list),
        seeds=list(seeds),
        max_rounds=50,
        out=out,
    )


class TestRunExperiment:
    def test_single_cell_csv(self, tmp_path):
        out = tmp_path / "one.csv"
        run_experiment(flood_config(out=str(out)))
        rows = list(csv.reader(out.open()))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 2

    def test_grid_is_cartesian_product(self, tmp_path):
        out = tmp_path / "grid.csv"
        run_experiment(flood_config(out=str(out), n_list=(4, 6), seeds=(0, 1, 2)))
        rows = list(csv.reader(out.open()))
        assert len(rows) == 1 + 6

    def test_identical_configs_identical_data_columns(self):
        rows_a = run_experiment(flood_config())
        rows_b = run_experiment(flood_config())

        def strip_wall(rows):
            return [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows]

        assert strip_wall(rows_a) == strip_wall(rows_b)

    def test_timeout_is_data(self):
        config = flood_config()
        config.max_rounds = 1
        config.n_list = [6]
        rows = run_experiment(config)
        assert rows[0]["completion_round"] == "TIMEOUT"

    def test_worker_pool_gives_serial_rows(self, monkeypatch):
        config = ExperimentConfig(
            adversary={"name": "ring-failure", "policy": "round-robin", "horizon": 48},
            protocol={"name": "rand-diff"},
            initial={"kind": "one-token-per-node"},
            n_list=[8, 12],
            seeds=[1, 2],
            max_rounds=400,
        )

        def strip_wall(rows):
            return [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows]

        monkeypatch.setenv("GOSSIPSIM_WORKERS", "1")
        serial = run_experiment(config)
        monkeypatch.setenv("GOSSIPSIM_WORKERS", "2")
        pooled = run_experiment(config)
        assert [(r["n"], r["seed"]) for r in pooled] == [(8, 1), (8, 2), (12, 1), (12, 2)]
        assert all(r["completion_round"] != "TIMEOUT" for r in serial)
        assert strip_wall(pooled) == strip_wall(serial)

    def test_config_hash_emitted(self, tmp_path):
        out = tmp_path / "hashed.csv"
        config = flood_config(out=str(out))
        run_experiment(config)
        meta = json.loads((tmp_path / "hashed.csv.meta.json").read_text())
        assert meta["config_hash"] == config.content_hash()

    def test_config_hash_is_pinned(self):
        # .meta.json files carry this digest; it must not drift.
        raw = {
            "adversary": {"name": "ring-failure", "policy": "round-robin", "horizon": 64},
            "protocol": {"name": "rand-diff"},
            "initial": {"kind": "single-source"},
            "n": [8, 16],
            "seeds": [1, 2],
            "max_rounds": 500,
            "out": "x.csv",
            "emit_trace": True,
        }
        config = ExperimentConfig.from_dict(raw)
        assert config.content_hash() == (
            "ab17bf03d831351e71646245c46edd80146a1a3a4b99802f683c6a249aeba946"
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_protocol_rejected(self):
        config = flood_config()
        config.protocol = {"name": "mystery"}
        with pytest.raises(KeyError):
            run_experiment(config)


class TestSweep:
    def test_exact_square_power_law(self):
        pairs = [(n, float(n * n)) for n in (8, 16, 32, 64)]
        assert abs(fit_loglog_slope(pairs) - 2.0) <= 0.001

    def test_exact_linear_power_law(self):
        pairs = [(n, float(n)) for n in (8, 16, 32, 64)]
        assert abs(fit_loglog_slope(pairs) - 1.0) <= 0.001

    def test_requires_three_points(self):
        config = flood_config(n_list=(4, 6))
        with pytest.raises(ValueError):
            sweep(config)

    def test_rand_diff_complete_graph_subquadratic(self):
        config = ExperimentConfig(
            adversary={"name": "static-complete"},
            protocol={"name": "rand-diff"},
            initial={"kind": "one-token-per-node"},
            n_list=[16, 32, 64],
            seeds=[0, 1, 2],
            max_rounds=5000,
        )
        rows = run_experiment(config)
        summary = summarize_sweep(rows, config)
        assert summary.slope is not None
        assert summary.slope < 2.0

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = flood_config(out=str(out), n_list=(4, 6, 8), seeds=(0, 1))
        summary = sweep(config)
        assert summary.slope is not None
        assert (tmp_path / "sweep.csv.summary.csv").exists()
        plot = (tmp_path / "sweep.csv.plot.dat").read_text().strip().splitlines()
        assert len(plot) == 3


class TestSeparationMeasure:
    def meta(self, n=256):
        return {
            "params": {"n": n},
            "segments": [
                {"phase": 1, "segment": 1, "rounds": [1, 1], "inner": [1, 2, 3]}
            ],
        }

    def test_identical_holdings_fraction_one(self):
        arrivals = [{t: 0 for t in range(8)} for _ in range(4)]
        stats = measure_blocker_separation(arrivals, self.meta())
        assert stats["fraction_small"] == 1.0

    def test_disjoint_holdings_fraction_zero(self):
        # pairwise-disjoint 40-token holdings at n=256: difference 40 >= 16/16
        arrivals = [
            {t + 100 * v: 0 for t in range(40)} for v in range(4)
        ]
        stats = measure_blocker_separation(arrivals, self.meta(n=256))
        assert stats["fraction_small"] == 0.0

    def test_counts_only_prior_arrivals(self):
        # arrivals in the measured round itself are not yet held
        arrivals = [dict() for _ in range(4)]
        arrivals[1] = {t: 1 for t in range(64)}
        arrivals[2] = {}
        stats = measure_blocker_separation(arrivals, self.meta())
        assert stats["fraction_small"] == 1.0


class TestSentinelPlumbing:
    def test_blocker_run_reports_sentinel(self):
        config = ExperimentConfig(
            adversary={"name": "blocker-invasive", "seed": 3},
            protocol={"name": "rand-diff"},
            initial={"kind": "single-source"},
            n_list=[64],
            seeds=[1],
            max_rounds=640,
            stop_at_sentinel=True,
        )
        cell = run_cell(config, 64, 1)
        assert cell.sentinel_round is not None
        assert cell.sentinel_round >= 1

    def test_first_crossing_witness(self):
        config = ExperimentConfig(
            adversary={"name": "blocker-oblivious"},
            protocol={"name": "rand-diff"},
            initial={"kind": "single-source"},
            n_list=[64],
            seeds=[2],
            max_rounds=768,
            stop_at_sentinel=True,
        )
        cell = run_cell(config, 64, 2, keep_result=True)
        meta = build_schedule(config.adversary, 64, 2).metadata
        rnd, node, tok = first_sentinel_crossing(cell.result.final_state, meta)
        assert rnd == cell.sentinel_round
        assert node in meta["target_nodes"] and tok in meta["sentinel_tokens"]
        assert cell.result.final_state.arrivals[node][tok] == rnd

    def test_stop_hook_reads_inserted_masks(self):
        """Inserted (node, new-token mask) pairs stop the run only when a
        sentinel lands at a target; sends are tested per (token, node)."""
        stop = make_sentinel_stop({"sentinel_tokens": [5, 6], "target_nodes": [2, 3]})
        assert stop(None, 1, [], [(0, 1 << 1), (3, 1 << 4 | 1 << 6)])
        assert not stop(None, 1, [], [(1, 1 << 5 | 1 << 6), (4, 1 << 6)])  # non-targets
        assert not stop(None, 1, [], [(2, 1 << 4 | 1 << 7), (3, 1)])  # non-sentinels
        assert not stop(None, 1, [], [])
        assert stop(None, 1, [(5, 2)], [])
        assert not stop(None, 1, [(5, 1), (4, 2)], [(2, 1 << 4)])

    def test_run_stops_at_an_inserted_sentinel(self):
        """A sentinel inserted at a target ends the run in its round; one
        inserted at a non-target, and another token at a target, do not."""
        n = 4
        snap = NetworkSnapshot(n, [(i, i + 1) for i in range(n - 1)])
        masks = {1: [(0, 1 << 3)], 2: [(3, 1 << 1)], 3: [(0, 1 << 2), (3, 1 << 3)]}
        metadata = {"sentinel_tokens": [3], "target_nodes": [3]}
        schedule = AdversarySchedule(n, 5, [snap] * 5, masks, "invasive", metadata)
        state = TokenState(n, TokenUniverse(4, 4), {0: [0]})
        idle = SimpleNamespace(plan_round=lambda state, snapshot, rng: [])
        result = run_simulation(schedule, idle, state, 5, 1, make_sentinel_stop(metadata))
        assert result.stopped_early and result.rounds_executed == 3
        assert first_sentinel_crossing(state, metadata) == (3, 3, 3)

    def test_trace_round_trip(self, tmp_path):
        config = flood_config()
        cell = run_cell(config, 4, 0, keep_result=True)
        path = tmp_path / "trace.json"
        save_trace(cell.result.final_state, path)
        arrivals = load_trace(path)
        assert arrivals == cell.result.final_state.arrivals

    def test_trace_reads_the_arrival_views_once(self, tmp_path, monkeypatch):
        """`save_trace` builds one arrival view per node (n views, not n²),
        and writes the bytes it wrote when it indexed `state.arrivals[v]`."""
        n = 48
        cell = run_cell(
            ExperimentConfig({"name": "random", "horizon": 40}, {"name": "rand-diff"},
                             {"kind": "one-token-per-node"}, [n], [3], 4000),
            n, 3, keep_result=True,
        )
        state = cell.result.final_state
        expected = json.dumps({
            "n": n,
            "arrivals": [{str(tok): rnd for tok, rnd in state.arrivals[v].items()} for v in range(n)],
        }) + "\n"
        built = []
        view_init = core.ArrivalView.__init__

        def counted(self, state, node):
            built.append(node)
            view_init(self, state, node)

        monkeypatch.setattr(core.ArrivalView, "__init__", counted)
        path = tmp_path / "trace.json"
        save_trace(state, path)
        assert built == list(range(n))
        assert path.read_text(encoding="utf-8") == expected


class TestCli:
    def test_gen_validate_round_trip(self, tmp_path):
        out = tmp_path / "ring.dgs"
        argv = ["gen", "--adversary", "ring-failure", "--n", "6", "--seed", "2"]
        assert cli_main(argv + ["--horizon", "12", "--out", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ring.dgs", "ring.dgs.meta.json"]
        assert cli_main(["validate", str(out)]) == 0
        assert cli_main(["validate", str(out), "--paths"]) == 0

    def test_gen_center_terminal_writes_schedule_and_sidecar(self, tmp_path):
        out = tmp_path / "ct.dgs"
        argv = ["gen", "--adversary", "center-terminal", "--n", "12", "--r", "6", "--seed", "3"]
        assert cli_main(argv + ["--horizon", "20", "--out", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ct.dgs", "ct.dgs.meta.json"]
        built = build_schedule({"name": "center-terminal", "r": 6, "horizon": 20}, 12, 3)
        assert out.read_text() == schedule_to_text(built)
        assert cli_main(["validate", str(out), "--paths"]) == 0
        no_r = ["gen", "--adversary", "center-terminal", "--n", "12", "--seed", "3", "--horizon", "20"]
        assert cli_main(no_r + ["--out", str(tmp_path / "no_r.dgs")]) == 1
        assert not (tmp_path / "no_r.dgs").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--adversary", "static-line", "--n", "4", "--seed", "1", "--out", "nodir/x.dgs"],
            ["gen", "--adversary", "center-terminal", "--n", "12", "--seed", "3", "--horizon", "20",
             "--out", "ct.dgs"],
            ["validate", "nodir/x.dgs"],
        ],
        ids=["gen-missing-dir", "gen-without-r", "validate-missing-file"],
    )
    def test_gen_and_validate_errors_are_one_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_validate_rejects_paths_violation(self, tmp_path, capsys):
        out = tmp_path / "ring.dgs"
        argv = ["gen", "--adversary", "ring-failure", "--n", "6", "--seed", "2", "--horizon", "4"]
        assert cli_main(argv + ["--out", str(out)]) == 0
        # The ring's edge (3, 4) lies outside the center-terminal infrastructure.
        sidecar = {"generator": "center-terminal", "params": {"n": 6, "r": 3}}
        (tmp_path / "ring.dgs.meta.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert cli_main(["validate", str(out), "--paths"]) == 1
        assert "edge-outside-infrastructure" in capsys.readouterr().out

    def test_validate_paths_reports_budget_witness(self, tmp_path, capsys):
        out = tmp_path / "ct.dgs"
        argv = ["gen", "--adversary", "center-terminal", "--n", "12", "--r", "6", "--seed", "3"]
        assert cli_main(argv + ["--horizon", "20", "--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        # Center pair (0, 1) has one path, its direct edge, so a budget of 0.
        del lines[lines.index("E 0 1", lines.index("R 3"))]
        out.write_text("\n".join(lines))
        capsys.readouterr()
        assert cli_main(["validate", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["validate", str(out), "--paths"]) == 1
        assert capsys.readouterr().out == "REJECT: budget-exceeded (0, 3, 1, 0)\n"

    def test_sweep_prints_slope_and_writes_one_row_per_n(self, tmp_path, capsys):
        base = tmp_path / "sweep"
        raw = {
            "adversary": {"name": "static-line"},
            "protocol": {"name": "rand-diff"},
            "n": [4, 8, 16],
            "seeds": [1],
            "max_rounds": 10_000,
            "out": str(base),
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(raw))
        capsys.readouterr()
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        assert "log-log slope (completion): " in capsys.readouterr().out
        with open(f"{base}.summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert [row["n"] for row in summary] == ["4", "8", "16"]
        plot = tmp_path.joinpath("sweep.plot.dat").read_text().splitlines()
        assert [line.split()[0] for line in plot] == ["2.000000", "3.000000", "4.000000"]

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("sweep", {"n": [4, 8]}, "sweep needs at least 3 n values"),
            ("sweep", {"adversary": {"name": "nope"}}, "unknown adversary 'nope'"),
            ("run", {"n": None}, "'n'"),
            ("run", '{"n": [4', "Expecting"),
            ("sweep", None, "No such file"),
            ("sweep", {"measure": "sentinal"}, "measure 'sentinal'"),
        ],
        ids=[
            "sweep-two-n", "sweep-unknown-adversary", "run-no-n", "run-bad-json", "sweep-no-file",
            "sweep-bad-measure",
        ],
    )
    def test_bad_config_is_an_error_line_not_a_traceback(
        self, tmp_path, capsys, command, text, message
    ):
        cfg = tmp_path / "config.json"
        if isinstance(text, dict):
            raw = {
                "adversary": {"name": "static-line"},
                "protocol": {"name": "rand-diff"},
                "n": [4, 8, 16],
                "seeds": [1],
                "max_rounds": 1000,
            }
            raw.update(text)
            text = json.dumps({k: v for k, v in raw.items() if v is not None})
        if text is not None:
            cfg.write_text(text)
        capsys.readouterr()
        assert cli_main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and message in err

    @pytest.mark.parametrize(
        "change, line",
        [
            ({"n": None}, "ERROR: missing key 'n'"),
            ({"adversary": {"policy": "round-robin"}}, "ERROR: missing key 'name'"),
            ({"adversary": {"name": "nope"}}, "ERROR: unknown adversary 'nope'"),
            (
                {"adversary": {"name": "ring-failure", "policy": "round-robin"}},
                "ERROR: ring-failure needs horizon",
            ),
            (
                {"protocol": {"name": "central-broadcast", "c_cap": 8.0}},
                "ERROR: unknown central-broadcast key 'c_cap'",
            ),
            (
                {"protocol": {"name": "central-kgossip", "mode": "staged", "c_ex": 1.0}},
                "ERROR: unknown central-kgossip key 'c_ex'",
            ),
            (
                {"protocol": {"name": "central-broadcast", "c_phase": 1.0}},
                "ERROR: unknown central-broadcast key 'c_phase'",
            ),
            (
                {"protocol": {"name": "central-kgossip", "mode": "staged", "c_s": 2.0}},
                "ERROR: unknown central-kgossip key 'c_s'",
            ),
            ({"measure": "sentinal"}, "ERROR: measure 'sentinal' is not 'completion' or 'sentinel'"),
            (
                {"initial": {"kind": "single-source", "real_tokens": 2}},
                "ERROR: unknown single-source key 'real_tokens'",
            ),
            (
                {"initial": {"kind": "one-token-per-node", "tokens": 4}},
                "ERROR: unknown one-token-per-node key 'tokens'",
            ),
            (
                {"initial": {"kind": "file", "path": "start.json", "source": 1}},
                "ERROR: unknown file key 'source'",
            ),
            ({"initial": {"kind": "file"}}, "ERROR: missing key 'path'"),
        ],
        ids=[
            "missing-n", "adversary-without-name", "unknown-adversary",
            "dynamic-without-horizon", "central-broadcast-unknown-key", "central-kgossip-unknown-key",
            "central-broadcast-c-phase", "central-kgossip-c-s", "bad-measure",
            "single-source-real-tokens", "one-token-per-node-tokens", "file-source", "file-without-path",
        ],
    )
    def test_config_error_line_names_the_problem(self, tmp_path, capsys, change, line):
        raw = {
            "adversary": {"name": "static-line"},
            "protocol": {"name": "rand-diff"},
            "n": [4],
            "seeds": [1],
            "max_rounds": 100,
        }
        raw.update(change)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
        capsys.readouterr()
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize(
        "sidecar, reason",
        [
            (None, "needs the metadata sidecar"),
            ({"generator": "random-interval-connected", "params": {"n": 6}}, "names no path family"),
            ({"generator": "ring-failure", "params": {"n": 7}}, "sidecar n=7 differs"),
            ({"generator": "ring-failure", "params": {"n": "6"}}, "need an integer n >= 3"),
            ({"generator": "center-terminal", "params": {"n": 6, "r": 6}}, "need an integer r in [3, n-1]"),
            ({"generator": "center-terminal", "params": {"n": 6}}, "need an integer r in [3, n-1]"),
        ],
    )
    def test_validate_paths_rejects_bad_sidecar(self, tmp_path, capsys, sidecar, reason):
        out = tmp_path / "ring.dgs"
        argv = ["gen", "--adversary", "ring-failure", "--n", "6", "--seed", "2", "--horizon", "4"]
        assert cli_main(argv + ["--out", str(out)]) == 0
        meta = tmp_path / "ring.dgs.meta.json"
        if sidecar is None:
            meta.unlink()
        else:
            meta.write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert cli_main(["validate", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["validate", str(out), "--paths"]) == 1
        printed = capsys.readouterr().out
        assert printed.startswith("REJECT: ") and reason in printed

    def test_gen_oblivious_blocker_carries_start_distribution(self, tmp_path):
        out = tmp_path / "blk.dgs"
        argv = ["gen", "--adversary", "blocker-oblivious", "--n", "64", "--seed", "7"]
        assert cli_main(argv + ["--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "blk.dgs.meta.json").read_text())
        built = build_schedule({"name": "blocker-oblivious"}, 64, 7)
        assert sidecar["start_holdings"] == built.metadata["start_holdings"]
        loaded = build_schedule({"name": "file", "path": str(out)}, 64, 0)
        spec = {"kind": "single-source"}
        assert initial_state(spec, 64, loaded).arrivals == initial_state(spec, 64, built).arrivals

        def cell(adversary):
            config = ExperimentConfig(
                adversary=adversary,
                protocol={"name": "rand-diff"},
                initial=spec,
                n_list=[64],
                seeds=[1],
                max_rounds=768,
                stop_at_sentinel=True,
            )
            return run_cell(config, 64, 1).sentinel_round

        assert cell({"name": "file", "path": str(out)}) == cell({"name": "blocker-oblivious", "seed": 7})

    def test_run_command(self, tmp_path):
        config_path = tmp_path / "config.json"
        out = tmp_path / "rows.csv"
        config_path.write_text(
            json.dumps(
                {
                    "adversary": {"name": "static-line"},
                    "protocol": {"name": "flood:0"},
                    "initial": {"kind": "single-source", "tokens": 1},
                    "n": [5],
                    "seeds": [0, 1],
                    "max_rounds": 40,
                    "out": str(out),
                }
            )
        )
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert out.exists()

    def test_separation_command(self, tmp_path):
        config = ExperimentConfig(
            adversary={"name": "blocker-invasive", "seed": 5},
            protocol={"name": "rand-diff"},
            initial={"kind": "single-source"},
            n_list=[64],
            seeds=[0],
            max_rounds=64,
        )
        cell = run_cell(config, 64, 0, keep_result=True)
        trace = tmp_path / "t.json"
        save_trace(cell.result.final_state, trace)
        from gossipsim.harness import build_schedule

        schedule = build_schedule(config.adversary, 64, 0)
        meta = tmp_path / "m.json"
        meta.write_text(json.dumps(schedule.metadata))
        assert cli_main(["separation", "--trace", str(trace), "--meta", str(meta)]) == 0

    @pytest.mark.parametrize(
        "missing, meta, message",
        [
            ("trace", {"params": {"n": 4}, "segments": [{"inner": [1, 2], "rounds": [1, 1]}]}, "No such file"),
            ("meta", None, "No such file"),
            (None, {"params": {"n": 4}}, "metadata does not describe blocker segments"),
        ],
        ids=["missing-trace", "missing-meta", "meta-without-segments"],
    )
    def test_separation_bad_input_is_an_error_line(self, tmp_path, capsys, missing, meta, message):
        trace, meta_path = tmp_path / "t.json", tmp_path / "m.json"
        if missing != "trace":
            trace.write_text(json.dumps({"n": 4, "arrivals": [{}, {}, {}, {}]}))
        if missing != "meta":
            meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert cli_main(["separation", "--trace", str(trace), "--meta", str(meta_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and message in err
        assert err.count("\n") == 1

    def test_csv_text_header_stable(self):
        assert rows_to_csv_text([]).strip() == ",".join(CSV_HEADER)


class TestInitialState:
    def test_file_start_reads_universe_and_holdings(self, tmp_path):
        """`kind: file` reads a JSON file of the universe (size and real
        count) and each node's tokens, keyed by node id as a string; a cell
        run from it equals a run from the same state built directly."""
        start = tmp_path / "start.json"
        start.write_text(json.dumps(
            {"universe": {"size": 6, "real": 4}, "holdings": {"0": [0, 1], "5": [2, 3, 4, 5]}}
        ))
        spec = {"kind": "file", "path": str(start)}
        schedule = build_schedule({"name": "static-line"}, 8, 1)
        state = initial_state(spec, 8, schedule)
        expected = TokenState(8, TokenUniverse(6, 4), {0: [0, 1], 5: [2, 3, 4, 5]})
        assert state == expected
        assert [sorted(state.tokens(v)) for v in (0, 5, 7)] == [[0, 1], [2, 3, 4, 5], []]
        config = ExperimentConfig({"name": "static-line"}, {"name": "rand-diff"}, spec, [8], [2], 500)
        cell = run_cell(config, 8, 2, keep_result=True)
        direct = run_simulation(schedule, get_protocol("rand-diff"), expected, 500, 2)
        assert cell.completion_round == direct.completion_round is not None
        assert cell.result.final_state == direct.final_state


class TestCentralDispatch:
    def test_central_broadcast_by_name(self):
        config = ExperimentConfig(
            adversary={"name": "random", "extra_edge_prob": 0.2, "horizon": 2000},
            protocol={"name": "central-broadcast"},
            initial={"kind": "single-source"},
            n_list=[10],
            seeds=[3],
            max_rounds=2000,
        )
        rows = run_experiment(config)
        assert rows[0]["completion_round"] != "TIMEOUT"

    def test_central_kgossip_by_name(self):
        config = ExperimentConfig(
            adversary={"name": "ring-failure", "policy": "round-robin", "horizon": 300},
            protocol={"name": "central-kgossip", "mode": "naive"},
            initial={"kind": "one-token-per-node"},
            n_list=[8],
            seeds=[2],
            max_rounds=300,
        )
        rows = run_experiment(config)
        assert rows[0]["completion_round"] != "TIMEOUT"
        assert int(rows[0]["completion_round"]) <= 8 * 8

    def test_central_kgossip_pads_non_multiple_k(self):
        config = ExperimentConfig(
            adversary={"name": "static-complete"},
            protocol={"name": "central-kgossip"},
            initial={"kind": "single-source", "tokens": 12},
            n_list=[8],
            seeds=[1],
            max_rounds=8 * 12,
        )
        rows = run_experiment(config)
        assert rows[0]["completion_round"] != "TIMEOUT"


class TestCrossProcessDeterminism:
    def test_cli_runs_are_byte_identical_modulo_walltime(self, tmp_path):
        import subprocess
        import sys

        config_path = tmp_path / "config.json"
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rows-{tag}.csv"
            config_path.write_text(
                json.dumps(
                    {
                        "adversary": {"name": "random", "extra_edge_prob": 0.2, "horizon": 400},
                        "protocol": {"name": "rand-diff"},
                        "initial": {"kind": "one-token-per-node"},
                        "n": [9, 12],
                        "seeds": [1, 2],
                        "max_rounds": 400,
                        "out": str(out),
                    }
                )
            )
            subprocess.run(
                [sys.executable, "-m", "gossipsim.cli", "run", "--config", str(config_path)],
                check=True,
                capture_output=True,
            )
            rows = list(csv.DictReader(out.open()))
            outputs.append(
                [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows]
            )
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "adversary, protocol, initial, n, rounds, stop, executed, completed, digests",
    [
        (  # randdiff-ring's cell, smaller
            {"name": "ring-failure", "policy": "round-robin", "horizon": 192},
            {"name": "rand-diff"}, {"kind": "single-source"}, 48, 192, False,
            67, 48, ("9d3eebf0f946c4c1", "234b1763601a1314"),
        ),
        (  # kgossip-random's cell, smaller
            {"name": "random", "extra_edge_prob": 0.1, "horizon": 4096},
            {"name": "central-kgossip", "mode": "staged"},
            {"kind": "single-source", "tokens": 32}, 16, 4096, False,
            134, 16, ("77933a0aab610f09", "0071509489a494c9"),
        ),
        (  # skb-blocker's cell, smaller
            {"name": "skb-blocker"}, {"name": "skb-uniform"}, {"kind": "single-source"},
            256, 240, False, 240, 1, ("54702df08034f226", "2ebd0081745782c3"),
        ),
        (  # blocker-sentinel's cell, smaller
            {"name": "blocker-invasive"}, {"name": "rand-diff"}, {"kind": "single-source"},
            144, 1728, True, 13, 1, ("54702df08034f226", "aec48be11a3c4ec8"),
        ),
        (  # the same schedule run on to completion, insertions included
            {"name": "blocker-invasive"}, {"name": "rand-diff"}, {"kind": "single-source"},
            144, 1728, False, 254, 144, ("aa46390e9ff8b264", "b517c14322f24a14"),
        ),
    ],
    ids=["randdiff-ring", "kgossip-random", "skb-blocker", "blocker-sentinel", "blocker-complete"],
)
def test_per_node_completion_pinned(
    adversary, protocol, initial, n, rounds, stop, executed, completed, digests
):
    """Per-node completion rounds and per-round arrival counts of one cell
    of each benchmark workload, seed 5, pinned by sha256 prefixes."""
    config = ExperimentConfig(adversary, protocol, initial, [n], [5], rounds, stop_at_sentinel=stop)
    result = run_cell(config, n, 5, keep_result=True).result
    completion = sorted(result.per_node_completion.items())
    assert result.rounds_executed == executed
    assert len(completion) == completed
    assert tuple(
        hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]
        for value in (completion, result.per_round_new_arrivals)
    ) == digests
