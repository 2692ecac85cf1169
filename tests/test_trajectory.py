"""The BENCH_*.json trajectories at the root of the repository keep the
shape that tools/bench_trajectory.py writes, so that later readers can put
their runs side by side."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_KEYS = {"workload", "seed", "commit", "digests", "host", "result"}


def test_bench_trajectories_have_the_shape_the_tool_writes():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    workloads = {w["name"] for w in spec["workloads"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text(encoding="ascii"))
        assert set(bench) == {"tag", "runs"}, path.name
        assert path.name == f"BENCH_{bench['tag']}.json"
        assert bench["runs"], path.name
        for run in bench["runs"]:
            where = f"{path.name}: {run.get('workload')}"
            assert set(run) == RUN_KEYS, where
            assert run["workload"] in workloads, where
            assert isinstance(run["seed"], int) and isinstance(run["commit"], str), where
            assert run["digests"] and all(d.startswith(f"{run['workload']} seed=") for d in run["digests"]), where
            assert set(run["host"]) == {"cpus", "python"}, where
            assert run["result"]["correct"] is True, where


def test_an_unknown_workload_is_a_usage_error_before_any_run(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = []
    monkeypatch.setattr(tool, "run_workload", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exit_:
        tool.main(["probe", "--workload", "scan_n7", "--workload", "no_such_workload"])
    assert exit_.value.code == 2 and runs == []
    assert "invalid choice: 'no_such_workload'" in capsys.readouterr().err
    assert not (ROOT / "BENCH_probe.json").exists()
