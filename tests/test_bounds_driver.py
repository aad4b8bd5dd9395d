"""`scripts/bounds.py`: every subcommand prints, at CI sizes, the statistics
that the three scripts it replaced (`lower_bound_sweep.py`,
`skb_blocking_demo.py` and `kgossip_budget_sweep.py`) printed for the same
flags, and the `line` CSV data columns are theirs byte for byte.  Timing
fields (per-round milliseconds, wall seconds) are masked."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gossipsim.core import run_simulation
from gossipsim.harness import initial_state
from gossipsim.protocols import get_protocol
from gossipsim.skb_adversary import SkbAdversaryParams, build_skb_adversary

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bounds.py"
CSV_HEAD = "n,seed,adversary,protocol,completion_round,sentinel_round\n"


def run_driver(tmp_path, *args) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    return re.sub(r"(wall=\d+\.\ds|=\d+\.\d{3}(?=\s|$))", "=*", done.stdout)


def data_columns(path: Path) -> str:
    return "".join(",".join(row.split(",")[:6]) + "\n" for row in path.read_text().splitlines())


@pytest.mark.parametrize(
    "args, expected, csv",
    [
        (
            ["skb", "--n", "64"],
            "n=64 horizon=64 segments=16 crossed=0 fraction=0.0000 =*\n",
            None,
        ),
        (
            ["central", "--n", "16", "--seeds", "1", "--staged"],
            "--- strategy: naive ---\n"
            "n= 16 k=   8 budget=    128 completions=[24]\n"
            "n= 16 k=  16 budget=    256 completions=[49]\n"
            "n= 16 k=  32 budget=    512 completions=[100]\n"
            "--- strategy: staged ---\n"
            "n= 16 k=   8 budget=    128 completions=[24]\n"
            "n= 16 k=  16 budget=    256 completions=[49]\n"
            "n= 16 k=  32 budget=    512 completions=[130]\n",
            None,
        ),
        (
            ["line", "--n", "64", "1024", "--seeds", "1", "--out", "lb.csv"],
            "n=   64  eps=0.03125  horizon=2  rand-diff=10.0  flood=8.0  no-scatter=9.0  "
            "ratio=1.1  crossing/horizon=5.00  runs=1\n"
            "         earliest crossing: round 10, node 23, token 46 (seed 1); "
            "every cell cleared it; above the controls\n"
            "         median ms per executed round: rand-diff=*  no-scatter=*  flood=*\n"
            "n= 1024  eps=0.03125  horizon=10  rand-diff=34.0  flood=20.0  no-scatter=20.0  "
            "ratio=1.7  crossing/horizon=3.40  runs=1\n"
            "         earliest crossing: round 34, node 587, token 518 (seed 1); "
            "every cell cleared it; above the controls\n"
            "         median ms per executed round: rand-diff=*  no-scatter=*  flood=*\n"
            "eps=0.03125 log-log slope: 0.441\n"
            "rand-diff rows written to lb.csv\n",
            (
                "lb.csv",
                "64,1,blocker-oblivious,rand-diff,TIMEOUT,10\n"
                "1024,1,blocker-oblivious,rand-diff,TIMEOUT,34\n",
            ),
        ),
        (
            ["line", "--n", "1024", "--seeds", "1", "--epsilon", "0.5", "--out", "lb-half.csv"],
            "n= 1024  eps=0.5  horizon=160  rand-diff=167.0  flood=11.0  no-scatter=11.0  "
            "ratio=15.2  crossing/horizon=1.04  runs=1\n"
            "         earliest crossing: round 167, node 587, token 997 (seed 1); "
            "every cell cleared it; above the controls\n"
            "         median ms per executed round: rand-diff=*  no-scatter=*  flood=*\n"
            "rand-diff rows written to lb-half.csv\n",
            ("lb-half.csv", "1024,1,blocker-oblivious,rand-diff,TIMEOUT,167\n"),
        ),
        (
            [
                "line", "--n", "1024", "--seeds", "1", "--variant", "invasive",
                "--epsilon", "0.5", "--out", "lb-invasive.csv",
            ],
            "n= 1024  eps=0.5  horizon=160  rand-diff=15.0  flood=11.0  no-scatter=-  "
            "ratio=1.4  crossing/horizon=0.09  runs=1\n"
            "         earliest crossing: round 15, node 11, token 241 (seed 1); "
            "1 cells crossed before it; above the controls\n"
            "         median ms per executed round: rand-diff=*  flood=*\n"
            "rand-diff rows written to lb-invasive.csv\n",
            ("lb-invasive.csv", "1024,1,blocker-invasive,rand-diff,TIMEOUT,15\n"),
        ),
    ],
    ids=["skb", "central-staged", "line", "line-eps0.5", "line-invasive"],
)
def test_driver_prints_the_old_scripts_statistics(tmp_path, args, expected, csv):
    assert run_driver(tmp_path, *args) == expected
    if csv is not None:
        name, rows = csv
        assert data_columns(tmp_path / name) == CSV_HEAD + rows
        assert (tmp_path / f"{name}.meta.json").exists()


def test_skb_cell_is_the_old_demo_run(monkeypatch, capsys):
    """The `skb` subcommand runs one harness cell: skb-uniform from the
    single source, cell seed 1 and the adversary seed `--seed`, to the
    horizon.  Its final arrivals equal the old demo's direct
    `run_simulation(..., seed=1)`, which a wrong protocol seed would not
    give: at this size no segment crosses, so the printed line cannot tell."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    spec = importlib.util.spec_from_file_location("bounds_driver", SCRIPT)
    bounds = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bounds)
    cells, run_cell = [], bounds.run_cell

    def recorded(config, n, seed, keep_result=False):
        cells.append((config, n, seed, keep_result, run_cell(config, n, seed, keep_result)))
        return cells[-1][-1]

    monkeypatch.setattr(bounds, "run_cell", recorded)
    monkeypatch.setattr(sys, "argv", ["bounds.py", "skb", "--n", "256", "--seed", "3"])
    bounds.main()
    assert "crossed=0" in capsys.readouterr().out
    [(config, n, seed, keep_result, cell)] = cells
    schedule = build_skb_adversary(SkbAdversaryParams(256, seed=3))
    assert (config.adversary, config.protocol, config.initial) == (
        {"name": "skb-blocker", "seed": 3}, {"name": "skb-uniform"}, {"kind": "single-source"}
    )
    assert (n, seed, keep_result, config.max_rounds) == (256, 1, True, schedule.horizon)
    finals = [
        run_simulation(
            schedule, get_protocol("skb-uniform"),
            initial_state({"kind": "single-source"}, 256, schedule), schedule.horizon, seed=s,
        ).final_state.arrivals
        for s in (1, 2)
    ]
    assert cell.result.final_state.arrivals == finals[0] != finals[1]
