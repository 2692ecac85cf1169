"""Golden reports: the non-timing output of fixed CLI commands, pinned by
SHA-256.

Each digest covers the exit code and standard output of one command.  JSON
reports are hashed after dropping every graph record's ``timings`` field;
other output is hashed as printed.  A digest changes only when an answer, a
witness, a report field or an exit code changes.
"""

import hashlib
import json
from importlib.resources import as_file, files
from pathlib import Path

import pytest

from irrcolor import claims, cli
from irrcolor.cli import main
from irrcolor.graphs import to_graph6

from conftest import rainbow_gnp_graphs

ALL_NINE = "chi,ir,gamma,chi_i,chi_gamma,chi_d,chi_gd,irc_colorable,chi_irc"

GOLDEN = [
    (("invariants", "connected_le6.g6", "--invariants", ALL_NINE, "--witnesses", "--json"),
     "18b57ef35319fee7a41bcf774cf209d79b6c84c0a07b5ecf787773cf3b8f6b72"),
    (("scan", "chain", "connected_le6.g6", "--json"),
     "e675e58a7ec10505d3c1230b5fac76c6e936b653e7cc451191f72ba16b7b6fcf"),
    (("scan", "bounds", "connected_le6.g6", "--json"),
     "7674d079a71e73e7d9e217ae9757ede8f61041427ef0e6785a33b92a92786a6c"),
    (("scan", "conjecture", "connected_le6.g6", "--json"),
     "f513090562b7853be7d78ebe37ed7efb6b5d187e2676930e400d40bbf777d85e"),
    (("scan", "characterization", "bipartite_connected_le7.g6", "--json"),
     "446e60708fa2eb5a8355b094566a3de5eae54cfa3d256bfea1537784c477e2ce"),
    (("verify", "all", "--json"),
     "563d733c03169e37363cd45066e8c8af3e98c64bca27801a781d63bef2ccd803"),
    (("gen", "A", "6", "3"),
     "6307e6517db6ef68eecc9fbdd59c5d87a475f4982f540e9b5d87b2462f5c1674"),
    (("gen", "tilde", "3"),
     "f8ac024c0f229fc44dfc5940d5c9b5c7fc4a5bb4d4e10d249cf4c83a03cef73b"),
    (("gen", "bridge", "3", "3"),
     "f75a382b0728eb3ca2d860f70c6dbc2a91c6cd0bfced58f9f56b6ba6c0d93692"),
    (("gen", "fixture", "epn_sample"),
     "d18fc6476a5626c5e76ecbe5c8343d7aa1a0fbb87dc5d21d68c7cfde8bd67616"),
]


def report_digest(argv, capsys) -> str:
    """SHA-256 of the exit code and the non-timing output of ``main(argv)``;
    packaged asset names in ``argv`` are resolved to their files."""
    data = files("irrcolor").joinpath("data")
    resolved = []
    for arg in argv:
        if arg.endswith(".g6"):
            with as_file(data.joinpath(arg)) as path:
                arg = str(path)
        resolved.append(arg)
    code = main(resolved)
    out = capsys.readouterr().out
    if "--json" in argv:
        report = json.loads(out)
        for rec in report.get("graphs", []):
            rec.pop("timings", None)
        out = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(f"{code}\n{out}".encode("ascii")).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=["-".join(a[:2]) for a, _ in GOLDEN])
def test_golden_report(argv, digest, capsys):
    assert report_digest(argv, capsys) == digest


def test_rainbow_gnp_witnesses(tmp_path, capsys):
    """``invariants --witnesses --json`` with the default six on the 15
    base graphs of the rainbow_gnp benchmark, whose own digest holds no
    witness, equals the report checked in before the set walk could build
    the last layer it reads in part; ``timings`` are not compared."""
    src = tmp_path / "rainbow_gnp.g6"
    src.write_text("".join(to_graph6(g).decode() + "\n" for g in rainbow_gnp_graphs()))
    assert main(["invariants", str(src), "--witnesses", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for rec in report["graphs"]:
        rec.pop("timings")
    pinned = Path(__file__).parent / "data" / "rainbow_gnp_witnesses.json"
    assert report == json.loads(pinned.read_text(encoding="ascii"))


def _written_values(monkeypatch) -> list:
    """The values that the CLI's report writer will be given: each report
    passed to ``_emit`` and each ``gen`` sidecar, recorded as built."""
    seen = []
    emit_report, sidecar_of = cli._emit, claims._sidecar

    def emit(report, as_json):
        seen.append(report)
        return emit_report(report, as_json)

    def sidecar(inst):
        seen.append(sidecar_of(inst))
        return seen[-1]

    monkeypatch.setattr(claims, "_emit", emit)
    monkeypatch.setattr(claims, "_sidecar", sidecar)
    monkeypatch.setattr(cli, "_emit", emit)
    return seen


@pytest.mark.parametrize("argv", [a for a, _ in GOLDEN], ids=["-".join(a[:2]) for a, _ in GOLDEN])
def test_report_writer_matches_json_dumps(argv, monkeypatch, capsys):
    """Each golden command's report or sidecar is written byte for byte as
    ``json.dumps(value, indent=2, sort_keys=True)`` writes it."""
    seen = _written_values(monkeypatch)
    report_digest(argv, capsys)
    assert len(seen) == 1
    assert cli._to_json(seen[0]) == json.dumps(seen[0], indent=2, sort_keys=True)


def test_report_writer_matches_json_dumps_on_witnesses(tmp_path, monkeypatch, capsys):
    """``invariants --witnesses --json`` on the rainbow_gnp base graphs
    prints the bytes that ``json.dumps`` writes for its report."""
    src = tmp_path / "rainbow_gnp.g6"
    src.write_text("".join(to_graph6(g).decode() + "\n" for g in rainbow_gnp_graphs()))
    seen = _written_values(monkeypatch)
    assert main(["invariants", str(src), "--witnesses", "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(seen[0], indent=2, sort_keys=True) + "\n"
