import argparse
import ast
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

import pytest

import irrcolor
from irrcolor.cli import main
from irrcolor.coloring import Coloring
from irrcolor.errors import SearchCancelled
from irrcolor.graphs import parse_graph6, to_graph6

from conftest import Polls, complete, cycle, random_bipartite, spy, spy_walks, walk_depths, walk_nodes


C4_EDGELIST = "4 4\n0 1\n1 2\n2 3\n3 0\n"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timings(report):
    for rec in report.get("graphs", []):
        rec.pop("timings", None)
    return report


def test_invariants_edgelist_c4(tmp_path, capsys):
    src = tmp_path / "c4.txt"
    src.write_text(C4_EDGELIST)
    code, out, _ = run_cli(
        capsys,
        [
            "invariants",
            str(src),
            "--format",
            "edgelist",
            "--invariants",
            "chi,ir,gamma,chi_i,irc_colorable,chi_irc",
            "--json",
        ],
    )
    assert code == 0
    report = json.loads(out)
    values = {k: v["value"] for k, v in report["graphs"][0]["invariants"].items()}
    assert values == {
        "chi": 2,
        "ir": 2,
        "gamma": 2,
        "chi_i": 2,
        "irc_colorable": True,
        "chi_irc": 2,
    }


def test_invariants_k5_graph6(tmp_path, capsys):
    src = tmp_path / "k5.g6"
    src.write_text(to_graph6(complete(5)).decode() + "\n")
    code, out, _ = run_cli(
        capsys, ["invariants", str(src), "--invariants", "chi_i,irc_colorable", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    inv = report["graphs"][0]["invariants"]
    assert inv["chi_i"]["value"] == 5
    assert inv["irc_colorable"]["value"] is False


def test_invariants_malformed_graph6_exits_64(tmp_path, capsys):
    src = tmp_path / "bad.g6"
    src.write_text("Dxx!!\n")
    code, _, err = run_cli(capsys, ["invariants", str(src)])
    assert code == 64
    assert "line 1" in err


def test_invariants_unknown_invariant_exits_65(tmp_path, capsys):
    src = tmp_path / "k3.g6"
    src.write_text(to_graph6(complete(3)).decode() + "\n")
    code, _, _ = run_cli(capsys, ["invariants", str(src), "--invariants", "chi,zeta"])
    assert code == 65


def test_invariants_deterministic_modulo_timings(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text(
        "\n".join(to_graph6(cycle(n)).decode() for n in range(3, 8)) + "\n"
    )
    args = ["invariants", str(src), "--json"]
    code1, out1, _ = run_cli(capsys, args)
    code2, out2, _ = run_cli(capsys, args)
    assert code1 == code2 == 0
    r1 = strip_timings(json.loads(out1))
    r2 = strip_timings(json.loads(out2))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_invariants_size_cap_marker(tmp_path, capsys):
    # a 24-vertex cycle is over the chi_i cap but chi still computes
    src = tmp_path / "c24.g6"
    src.write_text(to_graph6(cycle(24)).decode() + "\n")
    code, out, _ = run_cli(
        capsys, ["invariants", str(src), "--invariants", "chi,chi_i", "--json"]
    )
    assert code == 0
    inv = json.loads(out)["graphs"][0]["invariants"]
    assert inv["chi"]["value"] == 2
    assert inv["chi_i"]["status"] == "skipped(cap)"


def test_chi_irc_runs_at_twelve_vertices(tmp_path, capsys):
    # the cap was 10 while chi_irc restarted its search for every color count
    src = tmp_path / "bipartite12.g6"
    src.write_text(to_graph6(random_bipartite(random.Random(0), 12, 0.6)).decode() + "\n")
    code, out, _ = run_cli(capsys, ["invariants", str(src), "--invariants", "chi_irc", "--json"])
    assert code == 0
    assert json.loads(out)["graphs"][0]["invariants"]["chi_irc"] == {"status": "ok", "value": 2}


def test_invariants_parallel_matches_serial(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text(
        "\n".join(to_graph6(cycle(n)).decode() for n in range(3, 9)) + "\n"
    )
    _, serial, _ = run_cli(capsys, ["invariants", str(src), "--json"])
    _, parallel, _ = run_cli(capsys, ["invariants", str(src), "--jobs", "2", "--json"])
    a = strip_timings(json.loads(serial))
    b = strip_timings(json.loads(parallel))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_jobs_pool_is_bounded_by_the_input(monkeypatch, tmp_path, capsys):
    # the pool forks all its workers at the first task, so --jobs 5000 on
    # two graphs must ask for two; the fake pool runs the tasks in process
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    src = tmp_path / "two.g6"
    src.write_text("\n".join(to_graph6(cycle(n)).decode() for n in (4, 5)) + "\n")
    for argv in (["invariants", str(src), "--invariants", "chi"], ["scan", "chain", str(src)]):
        code, _, _ = run_cli(capsys, argv + ["--jobs", "5000", "--json"])
        assert code == 0
    assert sizes == [2, 2]


def test_gen_writes_graph_and_sidecar(tmp_path, capsys):
    out = tmp_path / "a63.g6"
    code, _, _ = run_cli(capsys, ["gen", "A", "6", "3", "--out", str(out)])
    assert code == 0
    g = parse_graph6(out.read_text().strip())
    assert g.n == 6
    sidecar = json.loads((tmp_path / "a63.g6.json").read_text())
    assert sidecar["claims"]["chi_i"] == {"value": 3, "exact": True}
    assert sidecar["labels"][0] == "v1"


def test_gen_edgelist_format(tmp_path, capsys):
    out = tmp_path / "tilde3.txt"
    code, _, _ = run_cli(
        capsys, ["gen", "tilde", "3", "--format", "edgelist", "--out", str(out)]
    )
    assert code == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("27 ")


def test_gen_sidecar_coloring_replays(tmp_path, capsys):
    from irrcolor.coloring import Coloring
    from irrcolor.irc import is_irc_coloring

    out = tmp_path / "t3.g6"
    code, _, _ = run_cli(capsys, ["gen", "tilde", "3", "--out", str(out)])
    assert code == 0
    g = parse_graph6(out.read_text().strip())
    sidecar = json.loads((tmp_path / "t3.g6.json").read_text())
    colors = sidecar["coloring"]
    col = Coloring(tuple(colors), max(colors) + 1)
    assert is_irc_coloring(g, col).is_irc


def test_gen_bad_params_exit_65(capsys):
    code, _, err = run_cli(capsys, ["gen", "Z", "2", "5"])
    assert code == 65
    assert "at least 3" in err
    code, _, _ = run_cli(capsys, ["gen", "A", "6"])
    assert code == 65
    code, _, _ = run_cli(capsys, ["gen", "nosuch", "1"])
    assert code == 65
    code, out, err = run_cli(capsys, ["gen", "complete", "63"])  # past graph6's size byte
    assert (code, out) == (65, "") and "n <= 62" in err


def test_gen_unwritable_out_exits_65(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["gen", "A", "6", "3", "--out", str(tmp_path / "missing" / "x.g6")])
    assert code == 65
    assert out == ""
    assert err.startswith("parameter error: ") and "No such file or directory" in err


def test_gen_fixture(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["gen", "fixture", "tree7"])
    assert code == 0
    line = out.splitlines()[0]
    assert parse_graph6(line).n == 7


def test_scan_chain_exit_codes(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text(
        "\n".join(to_graph6(cycle(n)).decode() for n in (3, 4, 5, 6)) + "\n"
    )
    code, out, _ = run_cli(capsys, ["scan", "chain", str(src), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["violations"] == 0
    code, _, _ = run_cli(capsys, ["scan", "chain", str(tmp_path / "missing.g6")])
    assert code == 64


def test_scan_conjecture_smoke(tmp_path, capsys):
    from irrcolor.families import gen_cut_vertex, gen_tilde

    src = tmp_path / "graphs.g6"
    lines = [
        to_graph6(cycle(4)).decode(),
        to_graph6(gen_cut_vertex(3).graph).decode(),
        to_graph6(gen_tilde(3).graph).decode(),
    ]
    src.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, ["scan", "conjecture", str(src), "--json"])
    assert code == 0
    report = json.loads(out)
    verdicts = [rec["invariants"]["conjecture"]["value"] for rec in report["graphs"]]
    assert verdicts == ["holds", "holds", "holds"]


def _oracle_passes(monkeypatch) -> list:
    """Record the arguments of every pass the oracle makes."""
    from irrcolor import oracle

    passes = []
    spy(monkeypatch, oracle, "_tally", passes)
    return passes


def _miss_the_chi_coloring(monkeypatch):
    """Make the fast path's fewest-color committee coloring of C6 a proper
    3-coloring, as if it had missed the 2-colorings."""
    from irrcolor import invariants

    monkeypatch.setattr(invariants, "irc_colorability", lambda g, token=None: Coloring((0, 1, 2, 0, 1, 2), 3))


def test_scan_conjecture_confirms_a_finding_with_one_oracle_pass(monkeypatch):
    from irrcolor import cli

    # a fast path that misses the chi-coloring of C6 makes a finding, and
    # the oracle, which has one, refutes it from a single committee pass
    _miss_the_chi_coloring(monkeypatch)
    passes = _oracle_passes(monkeypatch)
    rec, violations = cli._scan_graph(0, cycle(6), "conjecture", None, oracle_cap=8)
    assert rec["invariants"]["conjecture"]["value"] == "finding"
    assert [v["oracle_confirmed"] for v in violations] == [False]
    assert len(passes) == 1


def test_scan_conjecture_keeps_a_finding_when_the_budget_ends_in_the_oracle(monkeypatch):
    from irrcolor import cli

    _miss_the_chi_coloring(monkeypatch)
    fast = Polls()
    cli._scan_graph(0, cycle(6), "conjecture", fast, oracle_cap=0)  # the fast path alone
    token = Polls(fast.polls + 10)
    rec, violations = cli._scan_graph(0, cycle(6), "conjecture", token, oracle_cap=8)
    assert token.polls == fast.polls + 10  # cancelled inside the oracle
    assert rec["invariants"]["conjecture"] == {"status": "ok", "value": "finding"}
    assert [v["oracle_confirmed"] for v in violations] == [None]


def test_verify_family_a_asks_the_oracle_once_per_graph(monkeypatch):
    from irrcolor.claims import VERIFY_SCOPES

    passes = _oracle_passes(monkeypatch)
    claims = [claim for row in VERIFY_SCOPES["family-a"] for claim in row(None, 8)]
    assert [ok for _, ok, _ in claims] == [True] * 3
    assert len(passes) == 3


def test_scan_characterization_smoke(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text(
        "\n".join(to_graph6(g).decode() for g in (cycle(6), cycle(8), complete(3))) + "\n"
    )
    code, out, _ = run_cli(capsys, ["scan", "characterization", str(src), "--json"])
    assert code == 0
    report = json.loads(out)
    states = [rec["invariants"]["characterization"] for rec in report["graphs"]]
    assert states[0]["value"] == "agree"
    assert states[1]["value"] == "agree"
    assert states[2]["status"] == "skipped"


def test_scan_characterization_skips_isolated_vertices(tmp_path, capsys):
    # K2 + K1 and two isolated vertices are bipartite non-stars; the family
    # classification needs every vertex to have a neighbor
    src = tmp_path / "graphs.g6"
    src.write_text("B_\nA?\nC]\n")
    code, out, _ = run_cli(capsys, ["scan", "characterization", str(src), "--json"])
    assert code == 0
    states = [rec["invariants"]["characterization"] for rec in json.loads(out)["graphs"]]
    assert states == [
        {"status": "skipped", "value": "isolated vertex"},
        {"status": "skipped", "value": "isolated vertex"},
        {"status": "ok", "value": "agree"},
    ]


def test_scan_characterization_skips_disconnected_graphs(tmp_path, capsys):
    # two disjoint P3 have chi_i = 2, but the pair witness and the family are
    # read off one bipartition, which a disconnected graph does not fix
    src = tmp_path / "graphs.g6"
    src.write_text("EgCG\n")
    assert parse_graph6("EgCG").min_degree() == 1
    code, out, _ = run_cli(capsys, ["scan", "characterization", str(src), "--json"])
    assert code == 0
    states = [rec["invariants"]["characterization"] for rec in json.loads(out)["graphs"]]
    assert states == [{"status": "skipped", "value": "disconnected"}]


def test_verify_scope(capsys):
    code, out, _ = run_cli(capsys, ["verify", "family-a", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["failed"] == 0
    assert all(c["status"] == "pass" for c in report["claims"])
    code, _, _ = run_cli(capsys, ["verify", "nosuch"])
    assert code == 65


def test_verify_fails_a_claim_the_oracle_disagrees_with(monkeypatch, capsys):
    from irrcolor import claims
    from irrcolor.oracle import OracleResult

    monkeypatch.setattr(claims, "oracle_invariants", lambda g, ids, cap, token=None: {i: OracleResult(-1) for i in ids})
    code, out, _ = run_cli(capsys, ["verify", "family-a", "--json"])
    report = json.loads(out)
    assert code == 2
    assert [c["status"] for c in report["claims"]] == ["fail"] * 3
    assert all(c["detail"].endswith(" oracle=DISAGREES") for c in report["claims"])
    assert report["violations"] == [{"check": c["claim"], "detail": c["detail"]} for c in report["claims"]]
    assert report["summary"] == {"claims": 3, "failed": 3, "skipped": 0}
    code, out, _ = run_cli(capsys, ["verify", "family-a"])
    assert code == 2
    assert "FAIL family A(6,3): chi = ir = chi_i = 3 (chi=3 ir=3 chi_i=3 claim=3 oracle=DISAGREES)" in out.splitlines()


def test_verify_fails_an_asset_claim_with_graph6_detail_pairs(monkeypatch, capsys):
    from irrcolor import claims, cli

    # no minimal dominating set is maximal irredundant, and no graph has chi_irc
    monkeypatch.setattr(cli, "is_maximal_irredundant", lambda g, s: False)
    value = claims._value
    monkeypatch.setattr(claims, "_value", lambda g, name, token=None: None if name == "chi_irc" else value(g, name, token))
    failed = {}
    for scope in ("dominating-irredundant", "dominator-gamma"):
        code, out, _ = run_cli(capsys, ["verify", scope, "--json"])
        assert code == 2
        [claim] = json.loads(out)["claims"]
        assert claim["status"] == "fail" and claim["detail"].startswith("violations: [")
        failed[scope] = ast.literal_eval(claim["detail"].removeprefix("violations: "))
        assert failed[scope] and all(type(pair) is tuple and len(pair) == 2 for pair in failed[scope])
    # the four graphs of minimum degree >= 2 with chi_d = gamma
    assert [parse_graph6(g6).min_degree() >= 2 for g6, _ in failed["dominator-gamma"]] == [True] * 4


def test_invariants_witnesses_flag(tmp_path, capsys):
    src = tmp_path / "c4.g6"
    src.write_text(to_graph6(cycle(4)).decode() + "\n")
    code, out, _ = run_cli(
        capsys,
        ["invariants", str(src), "--invariants", "chi,ir", "--witnesses", "--json"],
    )
    assert code == 0
    rec = json.loads(out)["graphs"][0]
    assert rec["witnesses"]["chi"]["coloring"] == [0, 1, 0, 1]
    assert len(rec["witnesses"]["ir"]["set"]) == 2


def test_budget_marks_skipped():
    from irrcolor.budget import Deadline
    from irrcolor.cli import _graph_record

    rec = _graph_record(0, cycle(6), ("chi_i",), Deadline(0.0))
    assert rec["invariants"]["chi_i"]["status"] == "skipped(budget)"


def test_scan_chain_check_finishes_the_cells_walk_and_polls_the_budget(monkeypatch):
    from irrcolor.cli import _graph_record, _scan_graph

    g = cycle(8)
    nodes = walk_nodes(g)
    walks = spy_walks(monkeypatch)
    cells = Polls()
    rec = _graph_record(0, g, ("chi", "ir", "gamma", "chi_i", "chi_gamma", "chi_d", "chi_gd"), cells)
    assert all(cell["status"] == "ok" for cell in rec["invariants"].values())
    [depth] = walk_depths(walks)
    assert depth < len(nodes) - 1
    # the cells share one walk up to the deepest layer they read; the
    # minimal dominating set check after them reads the same walk to its
    # last layer, and polls nothing else
    del walks[:]
    token = Polls()
    rec, violations = _scan_graph(0, g, "chain", token, oracle_cap=8)
    assert violations == [] and rec["invariants"]["chi_gd"]["status"] == "ok"
    assert walk_depths(walks) == [len(nodes) - 1]
    assert token.polls == cells.polls + sum(nodes[depth + 1:])

    # a budget that runs out inside the check's layers still skips the mode
    token = Polls(cells.polls + 1)  # expires on the check's first poll
    rec, _ = _scan_graph(0, g, "chain", token, oracle_cap=8)
    assert rec["invariants"] == {"chain": {"status": "skipped(budget)", "value": None}}


def test_scans_walk_once_per_graph(monkeypatch, connected_le6):
    from irrcolor import budget
    from irrcolor.cli import _SCAN_MODES, CHAIN, _graph_record

    walks = spy_walks(monkeypatch)
    depths = {"bounds": 0, "cells": 0}
    for g in connected_le6:
        del walks[:]
        _SCAN_MODES["bounds"](0, g, budget.scope(None), 8)
        [depth] = walk_depths(walks)  # ir and chi_i share it
        depths["bounds"] += depth
        del walks[:]
        _graph_record(0, g, ("chi", "ir", "gamma", *CHAIN[1:]), budget.scope(None))
        [depth] = walk_depths(walks)  # the cells of scan chain
        depths["cells"] += depth
        del walks[:]
        _SCAN_MODES["chain"](0, g, budget.scope(None), 8)
        assert walk_depths(walks) == [len(walk_nodes(g)) - 1]  # then the domination check's read to the end
    # the deepest layers read, summed over the 143 graphs; their greedy
    # dominating sets have 236 vertices in all
    assert depths == {"bounds": 235, "cells": 235}


def _module_env() -> dict:
    """The environment for a subprocess that imports irrcolor from where
    this test did."""
    here = str(Path(irrcolor.__file__).parent.parent)
    path = os.pathsep.join(p for p in (here, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "irrcolor", "gen", "B", "6", "4"],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert proc.returncode == 0
    assert parse_graph6(proc.stdout.splitlines()[0]).n == 6


def test_closed_stdout_exits_141_quietly(tmp_path):
    # a report far larger than a pipe buffer, whose reader stops after one line
    src = tmp_path / "k3.g6"
    src.write_text("Bw\n" * 2000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "irrcolor", "invariants", str(src), "--invariants", "chi", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_module_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_jobs_honour_budget(tmp_path, capsys):
    # ir polls the budget before its first subset, so once the budget has
    # run out every ir cell is skipped, in pool workers as in a serial run
    src = tmp_path / "graphs.g6"
    src.write_text("\n".join(to_graph6(cycle(n)).decode() for n in range(5, 9)) + "\n")
    argv = ["invariants", str(src), "--invariants", "chi,ir", "--budget-seconds", "1e-9", "--json"]
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, argv + ["--jobs", jobs])
        assert code == 0
        cells = [rec["invariants"] for rec in json.loads(out)["graphs"]]
        assert [c["ir"]["status"] for c in cells] == ["skipped(budget)"] * 4
        assert cells[1]["chi"] == {"status": "ok", "value": 2}  # C6 needs no search
    # scan runs in the pool under a budget too, with the serial result
    reports = []
    for jobs in ("1", "2"):
        _, out, _ = run_cli(capsys, ["scan", "bounds", str(src), "--jobs", jobs, "--budget-seconds", "1e-9", "--json"])
        reports.append(strip_timings(json.loads(out)))
    assert reports[0] == reports[1]
    assert reports[0]["summary"]["skipped"] > 0


def test_irc_colorable_above_cap_respects_budget(tmp_path, capsys):
    # n = 102, far above the irc_colorable cap: a cocktail party graph on 34
    # vertices, whose 2^17 maximal cliques make the obstruction scan slow,
    # with a triangle hung on each vertex
    k = 34
    edges = [(u, v) for u in range(k) for v in range(u + 1, k) if u % 2 or v != u + 1]
    for v in range(k):
        a, b = k + 2 * v, k + 2 * v + 1
        edges += [(v, a), (v, b), (a, b)]
    src = tmp_path / "cocktail.txt"
    src.write_text(f"{3 * k} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    argv = ["invariants", str(src), "--format", "edgelist", "--invariants", "irc_colorable",
            "--budget-seconds", "0.5", "--json"]
    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, argv)
    elapsed = time.monotonic() - t0
    assert code == 0
    cell = json.loads(out)["graphs"][0]["invariants"]["irc_colorable"]
    assert cell in ({"status": "skipped(budget)", "value": None}, {"status": "ok", "value": False})
    assert elapsed < 1.5


def _usage_error(capsys, argv):
    # argparse's own exit code, 2, is the documented code for recorded findings
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 65
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage: ")
    return out.err


def test_usage_errors_exit_65(tmp_path, capsys):
    src = tmp_path / "k3.g6"
    src.write_text(to_graph6(complete(3)).decode() + "\n")
    assert "argument --jobs: invalid int value: 'abc'" in _usage_error(capsys, ["scan", "chain", str(src), "--jobs", "abc"])
    assert "invalid choice: 'nosuch'" in _usage_error(capsys, ["scan", "nosuch", str(src)])
    assert "unrecognized arguments: --nosuch" in _usage_error(capsys, ["scan", "chain", str(src), "--nosuch"])
    assert "invalid choice: 'nosuch'" in _usage_error(capsys, ["nosuch"])


def test_jobs_below_one_and_negative_budget_exit_65(tmp_path, capsys):
    src = tmp_path / "k3.g6"
    src.write_text(to_graph6(complete(3)).decode() + "\n")
    for argv in (
        ["invariants", str(src), "--budget-seconds", "-1"],
        ["invariants", str(src), "--budget-seconds", "nan"],
        ["scan", "bounds", str(src), "--budget-seconds", "-0.5"],
        ["verify", "bounds", "--budget-seconds", "-1"],
    ):
        assert "--budget-seconds must be at least 0" in _command_usage_error(capsys, argv)
    for argv in (["invariants", str(src), "--jobs", "0"], ["scan", "chain", str(src), "--jobs", "-2"]):
        assert "--jobs must be at least 1" in _command_usage_error(capsys, argv)
    for argv in (["verify", "family-a", "--oracle-cap", "-3"], ["scan", "conjecture", str(src), "--oracle-cap", "-1"]):
        assert "--oracle-cap must be at least 0" in _command_usage_error(capsys, argv)
    # argparse's own errors for a subcommand print the same usage line
    assert "invalid int value" in _command_usage_error(capsys, ["scan", "chain", str(src), "--jobs", "abc"])
    code, out, _ = run_cli(capsys, ["invariants", str(src), "--budget-seconds", "0", "--jobs", "1"])
    assert code == 0 and "skipped" not in out.splitlines()[0]


def _command_usage_error(capsys, argv):
    """A usage error, reported under the usage line of the command it names."""
    err = _usage_error(capsys, argv)
    assert err.startswith(f"usage: irrcolor {argv[0]} ")
    return err


def _count_parsers(monkeypatch) -> list:
    """Every argparse parser constructed from here on."""
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "real = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(self) or real(self, *a, **k)\n"
        "import irrcolor.cli, sys\n"
        "print(len(built))\n"
        "print('dataclasses' in sys.modules, 'importlib.resources' in sys.modules)\n"
        "irrcolor.cli.main(['gen', 'complete', '3'])\n"
        "print(len(built) > 0)\n"
    )
    # -S: a .pth file that site runs could import importlib.resources first
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=_module_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("0", "True")  # the first main() builds it
    # nor does the import pull in dataclasses (and inspect behind it) or importlib.resources
    assert lines[1] == "False False"


def test_star_import_exports_no_submodule():
    # the package's imports bind its submodules too; a star import that
    # exported them would overwrite a caller's `graphs` or `budget`
    assert not [name for name in irrcolor.__all__ if isinstance(getattr(irrcolor, name), ModuleType)]
    assert {"Graph", "cross_check", "irc_colorability"} <= set(irrcolor.__all__)
    namespace = {"graphs": []}
    exec("from irrcolor import *", namespace)
    assert namespace["graphs"] == []
    assert set(irrcolor.__all__) <= set(dir(irrcolor)) and set(irrcolor.__all__) <= namespace.keys()


# the modules that only gen, verify, scan characterization and a scan
# conjecture finding read; the other commands start without compiling them
LAZY_MODULES = ("irrcolor.families", "irrcolor.oracle", "irrcolor.characterize", "irrcolor.claims")


def _fresh(*args) -> subprocess.CompletedProcess:
    """``python -S`` with ``args`` in a fresh process; -S, since a .pth file
    that site runs could import anything first."""
    proc = subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True, env=_module_env())
    assert proc.returncode == 0, proc.stderr
    return proc


def test_invariants_and_the_cell_scans_load_no_claim_module(tmp_path):
    src = tmp_path / "k3.g6"
    src.write_text(to_graph6(complete(3)).decode() + "\n")
    runs = [["invariants", str(src)], ["scan", "chain", str(src)], ["scan", "bounds", str(src)]]
    script = (
        "import contextlib, io, json, sys\n"
        "import irrcolor.cli\n"
        f"loaded = lambda: [m for m in {LAZY_MODULES!r} if m in sys.modules]\n"
        "print(json.dumps([0, loaded()]))\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = irrcolor.cli.main(argv)\n"
        "    print(json.dumps([code, loaded()]))\n"
    )
    lines = _fresh("-c", script, json.dumps(runs)).stdout.splitlines()
    assert [json.loads(line) for line in lines] == [[0, []]] * 4


def test_the_claim_commands_run_in_a_fresh_process(tmp_path):
    data = Path(irrcolor.__file__).parent / "data"
    gen = _fresh("-m", "irrcolor", "gen", "complete", "3").stdout
    assert parse_graph6(gen.splitlines()[0]).n == 3
    verify = json.loads(_fresh("-m", "irrcolor", "verify", "all", "--json").stdout)
    assert verify["summary"]["failed"] == 0 and verify["summary"]["claims"] > 0
    for mode, asset in (("characterization", "bipartite_connected_le7.g6"), ("conjecture", "connected_le6.g6")):
        report = json.loads(_fresh("-m", "irrcolor", "scan", mode, str(data / asset), "--json").stdout)
        assert report["summary"]["violations"] == 0 and report["summary"]["graphs"] > 0, mode


def test_the_package_root_loads_the_oracle_on_first_use():
    script = (
        "import sys, irrcolor\n"
        "names = dir(irrcolor)\n"
        "print('irrcolor.oracle' in sys.modules, 'cross_check' in names, 'OracleResult' in names)\n"
        "from irrcolor import cross_check\n"
        "from irrcolor import oracle\n"
        "print(cross_check is oracle.cross_check, irrcolor.independent_partitions is oracle.independent_partitions)\n"
    )
    assert _fresh("-c", script).stdout.splitlines() == ["False True True", "True True"]
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        irrcolor.nosuch


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    src = tmp_path / "k3.g6"
    src.write_text(to_graph6(complete(3)).decode() + "\n")
    run_cli(capsys, ["gen", "complete", "3"])  # builds the parser, unless an earlier call has
    built = _count_parsers(monkeypatch)
    assert run_cli(capsys, ["invariants", str(src), "--invariants", "chi"])[0] == 0
    _usage_error(capsys, ["scan", "chain", str(src), "--jobs", "0"])
    assert built == []


def test_a_usage_error_leaves_no_state_for_the_next_call(tmp_path, capsys):
    src = tmp_path / "k3.g6"
    src.write_text(to_graph6(complete(3)).decode() + "\n")
    valid = ["invariants", str(src), "--json"]
    alone = strip_timings(json.loads(run_cli(capsys, valid)[1]))
    # each error sets options that the valid call leaves at their defaults
    for argv in (
        ["invariants", str(src), "--invariants", "chi", "--witnesses", "--jobs", "0"],
        ["invariants", str(src), "--format", "edgelist", "--witnesses", "--jobs", "abc"],
    ):
        _usage_error(capsys, argv)
        code, out, _ = run_cli(capsys, valid)
        assert code == 0 and strip_timings(json.loads(out)) == alone


def _help(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def _listed(help_text: str) -> list[str]:
    """The names after 'one of:' in a help text, unwrapped: the listing
    ends at the first line indented less than its own continuation lines."""
    listing = re.split(r"\n(?!   )", help_text.split("one of: ", 1)[1], maxsplit=1)[0]
    return re.sub(r"\n +", " ", re.sub(r"-\n +", "-", listing)).split(", ")


def test_help_is_the_same_after_other_calls(tmp_path, capsys):
    from irrcolor.claims import VERIFY_SCOPES
    from irrcolor.families import GENERATORS

    src = tmp_path / "k3.g6"
    src.write_text(to_graph6(complete(3)).decode() + "\n")
    helps = [["--help"], ["scan", "--help"], ["invariants", "--help"], ["gen", "--help"], ["verify", "--help"]]
    before = [_help(capsys, argv) for argv in helps]
    run_cli(capsys, ["invariants", str(src), "--witnesses", "--json"])
    _usage_error(capsys, ["scan", "chain", str(src), "--oracle-cap", "-1"])
    _usage_error(capsys, ["nosuch"])
    run_cli(capsys, ["gen", "complete", "3"])
    assert [_help(capsys, argv) for argv in helps] == before
    assert before[1].startswith("usage: irrcolor scan ")
    # the family and scope lists, rendered when argparse formats the help
    assert _listed(before[3]) == [*GENERATORS, "fixture"]
    assert _listed(before[4]) == ["all", *VERIFY_SCOPES]


def test_verify_scan_scopes_skip_on_budget_overrun(capsys):
    # every scope polls the budget before each row, so none passes a claim
    # once the budget is gone; the asset rows read the scan modes, which
    # record an overrun as a skipped cell, and skip the claim too
    from irrcolor.claims import VERIFY_SCOPES

    for scope in VERIFY_SCOPES:
        code, out, _ = run_cli(capsys, ["verify", scope, "--budget-seconds", "1e-9", "--json"])
        assert code == 0
        claims = json.loads(out)["claims"]
        assert claims == [{"claim": f"{scope} (remaining checks)", "status": "skip", "detail": "budget exhausted"}]
    # inside a row: the trees row polls once per tree, and an asset row
    # raises after its scan when the budget ran out under it
    [trees], [bounds] = VERIFY_SCOPES["min-degree"], VERIFY_SCOPES["bounds"]
    token = Polls(3)
    with pytest.raises(SearchCancelled):
        list(trees(token, 8))
    assert token.polls == 3
    with pytest.raises(SearchCancelled):
        list(bounds(Polls(50), 8))


def test_an_asset_row_stops_after_the_graph_the_budget_ran_out_under():
    from irrcolor import budget
    from irrcolor.claims import VERIFY_SCOPES, _asset_graphs
    from irrcolor.cli import _SCAN_MODES

    # the polls of the bounds scan up to and including the graph that makes the 50th
    spent = 0
    for idx, g in enumerate(_asset_graphs("connected_le6.g6")):
        counted = Polls()
        _SCAN_MODES["bounds"](idx, g, budget.scope(counted), 8)
        spent += counted.polls
        if spent >= 50:
            break
    [bounds] = VERIFY_SCOPES["bounds"]
    token = Polls(50)
    with pytest.raises(SearchCancelled):
        list(bounds(token, 8))
    assert 50 < token.polls <= spent + 1  # the rest of that graph's cells, then the row's own poll


# engine calls per command on the packaged assets: chi, irredundant-set
# walk layers built (the empty set's included), obstruction scans,
# restricted-growth partition searches, oracle passes.  A change here is a change in the work the CLI asks for.
ENGINE_CALLS = {
    ("scan", "chain", "connected_le6.g6"): (193, 527, 0, 233, 0),  # the check reads every layer
    ("scan", "bounds", "connected_le6.g6"): (187, 378, 0, 0, 0),
    ("scan", "conjecture", "connected_le6.g6"): (143, 0, 143, 11, 0),
    ("scan", "characterization", "bipartite_connected_le7.g6"): (117, 208, 0, 0, 0),
    ("verify", "full-degree"): (13, 26, 0, 0, 0),  # chi_i reads no layer past one vertex
    ("verify", "bounds"): (187, 378, 0, 0, 0),
    ("verify", "chain"): (193, 378, 0, 233, 0),
    ("verify", "dominating-irredundant"): (0, 527, 0, 0, 0),
    ("verify", "family-a"): (3, 13, 0, 0, 3),
    ("verify", "family-z"): (7, 13, 0, 0, 1),
    ("verify", "realizable"): (4, 8, 0, 0, 4),  # nor does each B(k, l), a full-degree graph
    ("verify", "two-color"): (117, 208, 0, 0, 0),  # the scan characterization counts
    ("verify", "min-degree"): (0, 0, 22344, 0, 0),
    ("verify", "cut-vertex"): (0, 0, 0, 0, 0),
    ("verify", "bridge"): (0, 0, 0, 0, 0),
    ("verify", "max-colors"): (0, 0, 0, 0, 0),
    ("verify", "even-bipartite"): (0, 0, 0, 0, 0),
    ("verify", "epn-family"): (0, 0, 0, 0, 0),
    ("verify", "dominator-gamma"): (76, 119, 4, 84, 0),
}


def test_scan_and_verify_build_no_graph_through_the_public_check(monkeypatch, capsys):
    from irrcolor.graphs import Graph

    checks = []
    real = Graph._check

    def counted(self):
        checks.append(self.n)
        real(self)

    monkeypatch.setattr(Graph, "_check", counted)
    Graph(2, (2, 1))
    assert checks == [2]  # the counter sees a direct construction
    data = Path(irrcolor.__file__).parent / "data"
    for argv in (["scan", "chain", str(data / "connected_le6.g6")], ["verify", "min-degree"]):
        del checks[:]
        assert main(argv) == 0
        capsys.readouterr()
        assert checks == [], argv


def test_engine_calls_are_pinned(monkeypatch, capsys):
    from irrcolor import coloring, irc, oracle

    engines = ((coloring, "chromatic_number"), (irc, "_obstructed"), (coloring, "_restricted_growth_search"),
               (oracle, "_tally"))
    seen = [[] for _ in engines]
    for (module, name), calls in zip(engines, seen):
        spy(monkeypatch, module, name, calls)
    walks = spy_walks(monkeypatch)
    data = Path(irrcolor.__file__).parent / "data"
    got = {}
    for argv in ENGINE_CALLS:
        for calls in (*seen, walks):
            del calls[:]
        main([str(data / arg) if arg.endswith(".g6") else arg for arg in argv])
        capsys.readouterr()
        chi, *rest = (len(calls) for calls in seen)
        got[argv] = (chi, sum(len(walk.layers) for walk in walks), *rest)
    assert got == ENGINE_CALLS
