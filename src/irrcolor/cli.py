"""Command-line front end.

Subcommands:
  invariants  compute invariants for graphs read from a file or stdin
  gen         build a named family instance and write it plus a claims sidecar
  verify      check the paper's claims, one table of rows per scope
  scan        stream graphs through inequality / conjecture / equivalence checks

``gen`` and ``verify`` live in ``claims``, which this module imports only
inside those two commands; ``scan`` loads ``characterize`` and the oracle
only in the modes and branches that read them.

Exit codes: 0 success or no findings, 2 findings recorded (scan) or a failed
claim (verify), 64 input error, 65 parameter error, 141 stdout closed by its
reader.  Reports are deterministic for fixed input and flags; wall-clock
timings live in their own field so byte comparisons can drop them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _escape
from typing import Optional

from . import budget
from .budget import Deadline
from .errors import DEFAULT_SIZE_CAP, FormatError, SearchCancelled
from .graphs import Graph, bipartition, component_count, parse_edge_list, parse_graph6, to_graph6
from .irredundance import is_maximal_irredundant, minimal_dominating_sets
from .invariants import REGISTRY

SCHEMA = "irrcolor-report/1"
DEFAULT_INVARIANTS = ("chi", "ir", "gamma", "chi_i", "chi_gamma", "irc_colorable")
CONJECTURE_CAP = 40


def _compute_invariant(g: Graph, name: str, token=None, capped=True):
    """Returns (status, value, witness) from the registry solver, the one
    place the CLI calls one; status in ok / absent / skipped(cap), and the
    witness as the solver gives it.  ``capped=False`` ignores the CLI cap."""
    row = REGISTRY[name]
    if g.n < row.min_n:
        return "absent", None, None
    if capped and g.n > row.cap:
        result = row.above_cap(g, token) if row.above_cap else None
        if result is None:
            return "skipped(cap)", None, None
    else:
        result = row.solve(g, token)
        if result is None:
            return "absent", None, None
    return ("ok", *result)


def _value(g: Graph, name: str, token=None):
    """Invariant ``name`` on g, None where absent; no CLI cap, since ``scan
    conjecture`` and ``verify`` go past it."""
    return _compute_invariant(g, name, token, capped=False)[1]


def _record(idx: int, g: Graph) -> dict:
    """A report record for graph ``idx`` with no cells yet.  Its graph6
    echo is the record a graph6 input was read from (``to_graph6`` returns
    it); an edge-list graph is encoded, and above 62 vertices echoes null."""
    return {
        "id": idx,
        "n": g.n,
        "m": g.m,
        "graph6": to_graph6(g).decode("ascii") if g.n <= 62 else None,
        "invariants": {},
        "timings": {},
    }


def _violation(check: str, record: dict, detail: str) -> dict:
    return {"check": check, "graph": record["id"], "graph6": record["graph6"], "detail": detail}


def _graph_record(idx: int, g: Graph, names, token=None, witnesses=False) -> dict:
    token = budget.scope(token)  # the cells share chi and the set walk
    record = _record(idx, g)
    if witnesses:
        record["witnesses"] = {}
    for name in names:
        t0 = time.perf_counter()
        try:
            status, value, witness = _compute_invariant(g, name, token)
        except SearchCancelled:
            status, value, witness = "skipped(budget)", None, None
        record["invariants"][name] = {"status": status, "value": value}
        if witnesses:
            record["witnesses"][name] = None if witness is None else REGISTRY[name].encode(witness)
        record["timings"][name] = round(time.perf_counter() - t0, 6)
    return record


def _map_graphs(fn, graphs: list[Graph], jobs: int) -> list:
    """``fn(idx, g)`` for each input graph, in input order; when there are
    several graphs, in a pool of ``jobs`` worker processes or one per graph,
    whichever is fewer."""
    if jobs > 1 and len(graphs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here

        with ProcessPoolExecutor(max_workers=min(jobs, len(graphs))) as pool:
            return list(pool.map(fn, range(len(graphs)), graphs))
    return [fn(i, g) for i, g in enumerate(graphs)]


def _report(command: str, records: list[dict], violations: list[dict], **fields) -> dict:
    skipped = sum(
        1
        for rec in records
        for cell in rec["invariants"].values()
        if cell["status"].startswith("skipped")
    )
    return {
        "schema": SCHEMA,
        "command": command,
        **fields,
        "graphs": records,
        "violations": violations,
        "summary": {"graphs": len(records), "violations": len(violations), "skipped": skipped},
    }


# --- input handling -----------------------------------------------------------


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _read_graphs(path: Optional[str], fmt: str) -> list[Graph]:
    text = _read_text(path)
    if fmt == "edgelist":
        return [parse_edge_list(text)]
    graphs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            graphs.append(parse_graph6(line))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return graphs


_INF = float("inf")


def _to_json(value, pad: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it,
    byte for byte, with ``pad`` the line break and indent of its own line.

    ``indent`` puts ``json.dumps`` on the stdlib's pure-Python encoder; this
    writer builds each container with one join instead.  It dispatches on the
    exact type of a value: str, int, dict, list, tuple, None, bool or float.
    Any other value, and a dict key that is not a str, raises TypeError."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = [_escape(key) + ": " + _to_json(item, inner) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_to_json(item, inner) for item in value]) + pad + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        if value != value:  # NaN and the infinities by name, as json writes them
            return "NaN"
        if value == _INF or value == -_INF:
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(_to_json(report))
        return
    for rec in report.get("graphs", []):
        parts = [f"graph {rec['id']}: n={rec['n']} m={rec['m']}"]
        for name, cell in rec["invariants"].items():
            shown = cell["value"] if cell["status"] == "ok" else cell["status"]
            parts.append(f"{name}={str(shown).lower() if isinstance(shown, bool) else shown}")
        print("  ".join(parts))
    for violation in report.get("violations", []):
        print(f"VIOLATION {violation['check']}: {violation['detail']}")
    for claim in report.get("claims", []):
        print(f"{claim['status'].upper():4s} {claim['claim']}"
              + (f" ({claim['detail']})" if claim.get("detail") else ""))
    summary = report.get("summary")
    if summary:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(summary.items()))
        print(f"summary: {pairs}")


# --- invariants command ---------------------------------------------------------


def cmd_invariants(args) -> int:
    try:
        graphs = _read_graphs(args.input, args.format)
    except (FormatError, IndexError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 64
    names = DEFAULT_INVARIANTS if not args.invariants else tuple(args.invariants.split(","))
    for name in names:
        if name not in REGISTRY:
            print(f"parameter error: unknown invariant {name!r}", file=sys.stderr)
            return 65
    token = Deadline(args.budget_seconds) if args.budget_seconds else None
    record = partial(_graph_record, names=names, token=token, witnesses=args.witnesses)
    _emit(_report("invariants", _map_graphs(record, graphs, args.jobs), []), args.json)
    return 0


# --- scan command ---------------------------------------------------------------


CHAIN = ("chi", "chi_i", "chi_gamma", "chi_d", "chi_gd")


# A check takes (g, the values of a record's ok cells, token) and yields
# (check, detail) for each relation they break.
def _chain_breaks(g: Graph, val: dict, token):
    """(check, detail) for each link of chi <= chi_i <= ... <= chi_gd that
    ``val`` breaks; a link with an end missing or None is not checked."""
    for lo, hi in zip(CHAIN, CHAIN[1:]):
        a, b = val.get(lo), val.get(hi)
        if a is not None and b is not None and a > b:
            yield f"chain:{lo}<={hi}", f"{lo}={a} > {hi}={b}"


def _domination_breaks(g: Graph, val: dict, token):
    """(check, detail) for ir > gamma, when ``val`` holds both, and for each
    minimal dominating set that is not maximal irredundant on graphs up to
    chi_gamma's vertex cap.  The check reads every layer of the set walk
    that the cells began."""
    ir, gamma = val.get("ir"), val.get("gamma")
    if ir is not None and gamma is not None and ir > gamma:
        yield "ir<=gamma", f"ir={ir} > gamma={gamma}"
    if g.n <= REGISTRY["chi_gamma"].cap:
        for d in minimal_dominating_sets(g, token):
            if not is_maximal_irredundant(g, d):
                yield "minimal-dominating-is-maximal-irredundant", f"set mask {d} dominates minimally but is not maximal irredundant"


def _bounds_breaks(g: Graph, val: dict, token):
    """(check, detail) when ``val`` holds chi, ir and chi_i and they break
    max(chi, ir) <= chi_i <= chi + ir - 1."""
    if all(name in val for name in ("chi", "ir", "chi_i")):
        chi, ir, chi_i = val["chi"], val["ir"], val["chi_i"]
        if not (max(chi, ir) <= chi_i <= chi + ir - 1):
            yield "bounds:max(chi,ir)<=chi_i<=chi+ir-1", f"chi={chi} ir={ir} chi_i={chi_i}"


def _cells_scan(names, *checks):
    """A scan of the report cells ``names``, then of each check on the
    values of the cells that are ok."""

    def scan(idx: int, g: Graph, token, oracle_cap: int):
        record = _graph_record(idx, g, names, token)
        val = {name: cell["value"] for name, cell in record["invariants"].items() if cell["status"] == "ok"}
        found = [pair for check in checks for pair in check(g, val, token)]
        return record, [_violation(check, record, detail) for check, detail in found]

    return scan


def _conjecture_scan(idx: int, g: Graph, token, oracle_cap: int):
    record = _record(idx, g)
    violations = []
    t0 = time.perf_counter()
    status, verdict = "skipped(cap)", None
    if g.n <= CONJECTURE_CAP:
        chi = _value(g, "chi", token)
        record["invariants"]["chi"] = {"status": "ok", "value": chi}
        status = "ok"
        fewest = _compute_invariant(g, "irc_colorable", token, capped=False)[2]
        if fewest is None:
            verdict = "not_colorable"
        elif fewest.k == chi:
            verdict = "holds"
        else:
            verdict = "finding"
            entry = _violation(
                "conjecture:chi-color-committee-coloring-exists",
                record,
                f"committee-colorable but no committee coloring with chi={chi} colors found",
            )
            entry["oracle_confirmed"] = None
            if g.n <= oracle_cap:
                from .oracle import irc_class_counts  # loads the oracle: only for a finding

                try:
                    counts = irc_class_counts(g, oracle_cap, token)
                    entry["oracle_confirmed"] = bool(counts) and chi not in counts
                except SearchCancelled:
                    pass  # the finding stands, unconfirmed
            violations.append(entry)
    record["invariants"]["conjecture"] = {"status": status, "value": verdict}
    record["timings"]["conjecture"] = round(time.perf_counter() - t0, 6)
    return record, violations


def _characterization_scan(idx: int, g: Graph, token, oracle_cap: int):
    # loads characterize: only here
    from .characterize import bipartite_two_family, find_anchor_edge, find_near_twin_pair, is_star

    record = _record(idx, g)
    violations = []
    t0 = time.perf_counter()
    sides = bipartition(g)
    if g.n < 2:
        status = ("skipped", "trivial")
    elif sides is None:
        status = ("skipped", "not bipartite")
    elif is_star(g) is not None:
        status = ("skipped", "star")
    elif g.min_degree() == 0:
        status = ("skipped", "isolated vertex")
    elif component_count(g) > 1:
        # the three conditions are read off one bipartition, which a
        # disconnected graph does not fix
        status = ("skipped", "disconnected")
    elif g.n > REGISTRY["chi_i"].cap:
        status = ("skipped(cap)", None)
    else:
        # three conditions that should agree on a bipartite non-star graph
        chi_i = _value(g, "chi_i", token)
        family = bipartite_two_family(g)
        conds = {
            "chi_i_is_2": chi_i == 2,
            "pair_witness": (find_anchor_edge(g) or find_near_twin_pair(g)) is not None,
            "family": family.kind in ("linked_stars", "dominating_edge", "near_twin"),
        }
        record["invariants"]["chi_i"] = {"status": "ok", "value": chi_i}
        record["invariants"]["family"] = {"status": "ok", "value": family.kind}
        agree = len(set(conds.values())) == 1
        if not agree:
            violations.append(_violation("two-color-equivalence", record, json.dumps(conds, sort_keys=True)))
        status = ("ok", "agree" if agree else "disagree")
    record["invariants"]["characterization"] = {"status": status[0], "value": status[1]}
    record["timings"]["characterization"] = round(time.perf_counter() - t0, 6)
    return record, violations


_SCAN_MODES = {
    "chain": _cells_scan(("chi", "ir", "gamma", *CHAIN[1:]), _chain_breaks, _domination_breaks),
    "bounds": _cells_scan(("chi", "ir", "chi_i"), _bounds_breaks),
    "conjecture": _conjecture_scan,
    "characterization": _characterization_scan,
}


def _scan_graph(idx: int, g: Graph, mode: str, token, oracle_cap: int):
    """One graph through one scan mode; a budget overrun marks the mode
    skipped."""
    try:
        return _SCAN_MODES[mode](idx, g, budget.scope(token), oracle_cap)
    except SearchCancelled:
        record = _record(idx, g)
        record["invariants"][mode] = {"status": "skipped(budget)", "value": None}
        return record, []


def cmd_scan(args) -> int:
    try:
        graphs = _read_graphs(args.input, "graph6")
    except (FormatError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 64
    token = Deadline(args.budget_seconds) if args.budget_seconds else None
    scan = partial(_scan_graph, mode=args.mode, token=token, oracle_cap=args.oracle_cap)
    results = _map_graphs(scan, graphs, args.jobs)
    violations = [violation for _, found in results for violation in found]
    _emit(_report("scan", [record for record, _ in results], violations, mode=args.mode), args.json)
    return 2 if violations else 0


# --- gen and verify commands ----------------------------------------------------


def cmd_gen(args) -> int:
    from . import claims  # loads the families, the oracle and characterize: only here

    return claims.cmd_gen(args)


def cmd_verify(args) -> int:
    from . import claims  # loads the families, the oracle and characterize: only here

    return claims.cmd_verify(args)


# --- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with exit 65, the parameter-error code; argparse's
    own 2 is the code for recorded findings."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(65, f"{self.prog}: error: {message}\n")


class _Names:
    """The names a help text lists as ``%(names)s``, joined when argparse
    formats the help, so that building the parser imports nothing for
    them; ``names`` is a function that returns them."""

    def __init__(self, names):
        self.names = names

    def __str__(self):
        return ", ".join(self.names())


def _family_names() -> list[str]:
    from .families import GENERATORS  # for the help text only

    return list(GENERATORS)


def _scope_names() -> list[str]:
    from .claims import VERIFY_SCOPES  # for the help text only

    return ["all", *VERIFY_SCOPES]


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later
    ``main()`` in the process.  Its ``set_defaults(fn=cmd_*)`` therefore binds
    the command functions once per process; each subcommand's parser is bound
    too, as ``parser``, so that ``main`` reports range errors under its usage."""
    parser = _Parser(
        prog="irrcolor",
        description="Exact irredundance-flavored coloring invariants for small graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true")
    shared.add_argument("--budget-seconds", type=float, default=0.0)

    p_inv = sub.add_parser("invariants", parents=[shared], help="compute invariants for input graphs")
    p_inv.add_argument("input", nargs="?", default=None, help="file path or - for stdin")
    p_inv.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    listed = f"comma list of {','.join(REGISTRY)}; default {','.join(DEFAULT_INVARIANTS)}"
    p_inv.add_argument("--invariants", default="", help=listed)
    p_inv.add_argument("--witnesses", action="store_true", help="include witness colorings/sets in the report")
    p_inv.add_argument("--jobs", type=int, default=1)
    p_inv.set_defaults(fn=cmd_invariants)

    p_gen = sub.add_parser("gen", help="generate a family instance plus claims sidecar")
    # the listing helps are set once ``names`` exists: an argparse that checks
    # a help string as the argument is added would find no ``%(names)s``
    family = p_gen.add_argument("family")
    family.names, family.help = _Names(_family_names), "one of: %(names)s"
    p_gen.add_argument("params", nargs="*", help="family parameters")
    p_gen.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p_gen.add_argument("--out", default=None, help="output path; sidecar goes to PATH.json")
    p_gen.set_defaults(fn=cmd_gen)

    p_ver = sub.add_parser("verify", parents=[shared], help="check the paper's claims")
    scope = p_ver.add_argument("scope")
    scope.names, scope.help = _Names(_scope_names), "one of: %(names)s"
    p_ver.add_argument("--oracle-cap", type=int, default=DEFAULT_SIZE_CAP)
    p_ver.set_defaults(fn=cmd_verify)

    p_scan = sub.add_parser("scan", parents=[shared], help="scan a graph6 stream for violations")
    p_scan.add_argument("mode", choices=tuple(_SCAN_MODES))
    p_scan.add_argument("input", nargs="?", default=None, help="file path or - for stdin")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--oracle-cap", type=int, default=DEFAULT_SIZE_CAP)
    p_scan.set_defaults(fn=cmd_scan)

    for command in sub.choices.values():
        command.set_defaults(parser=command)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("jobs", 1), ("budget_seconds", 0), ("oracle_cap", 0)):
        value = getattr(args, flag, least)
        if not value >= least:  # a nan budget fails too
            args.parser.error(f"--{flag.replace('_', '-')} must be at least {least}, not {value}")
    return args.fn(args)


def run() -> None:
    try:
        code = main()
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull,
        # so the flush at exit stays quiet, and exit as a shell does on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    run()
