"""Command-line front end.

Subcommands:
  invariants  compute invariants for graphs read from a file or stdin
  gen         build a named family instance and write it plus a claims sidecar
  verify      check the paper's claims, one table of rows per scope
  scan        stream graphs through inequality / conjecture / equivalence checks

Exit codes: 0 success or no findings, 2 findings recorded (scan) or a failed
claim (verify), 64 input error, 65 parameter error, 141 stdout closed by its
reader.  Reports are deterministic for fixed input and flags; wall-clock
timings live in their own field so byte comparisons can drop them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import cache, partial
from itertools import chain, product
from typing import Optional, Sequence

from . import budget, families
from .budget import Deadline
from .characterize import bipartite_two_family, epn_rich_vertex, find_anchor_edge, find_near_twin_pair, is_star
from .errors import FormatError, ParameterError, SearchCancelled, UnsupportedSizeError
from .graphs import (
    Graph,
    bipartition,
    component_count,
    connectivity_profile,
    format_edge_list,
    mask_from,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .irc import is_irc_coloring
from .irredundance import ir_number, is_maximal_irredundant, maximal_irredundant_sets, minimal_dominating_sets
from .invariants import REGISTRY
from .oracle import DEFAULT_SIZE_CAP, irc_class_counts, oracle_invariants

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
    """A report record for graph ``idx`` with no cells yet."""
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


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
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


# --- gen command ----------------------------------------------------------------


def _build_family(name: str, params: Sequence[str | int]) -> families.FamilyInstance:
    if name == "fixture":
        if len(params) != 1:
            raise ParameterError("fixture expects 1 parameter(s)")
        return families.fixture(params[0])
    try:
        nums = [int(p) for p in params]
    except ValueError as exc:
        raise ParameterError(f"{name} parameters must be integers") from exc
    return families.generate(name, *nums)


def _sidecar(inst: families.FamilyInstance) -> dict:
    return {
        "schema": SCHEMA,
        "source": inst.source,
        "n": inst.graph.n,
        "m": inst.graph.m,
        "claims": {
            key: {"value": claim.value, "exact": claim.exact}
            for key, claim in sorted(inst.claims.items())
        },
        "coloring": list(inst.coloring.color_of) if inst.coloring else None,
        "labels": list(inst.labels) if inst.labels else None,
    }


def cmd_gen(args) -> int:
    try:
        inst = _build_family(args.family, args.params)
        if args.format == "graph6":
            payload = to_graph6(inst.graph).decode("ascii") + "\n"
        else:
            payload = format_edge_list(inst.graph)
        sidecar = json.dumps(_sidecar(inst), indent=2, sort_keys=True) + "\n"
        if args.out:
            for path, text in ((args.out, payload), (args.out + ".json", sidecar)):
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(text)
            return 0
    except (ParameterError, UnsupportedSizeError, OSError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 65
    sys.stdout.write(payload)
    sys.stdout.write(sidecar)
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


# --- verify command -------------------------------------------------------------

# ``VERIFY_SCOPES`` maps each scope to its rows, functions (token, oracle_cap)
# -> iterator of (claim text, ok, detail) that ``cmd_verify`` turns into claims.


def _asset_graphs(name: str) -> list[Graph]:
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="ascii") as fh:
        return [parse_graph6(line) for line in fh if line.strip()]


def _asset_row(scan, asset: str, claim: str):
    """The row claiming that ``scan`` finds nothing on a packaged asset.  Each
    graph runs under its own scope, as in the scan command; only the number
    of records with no skipped cell, which ``claim`` formats, and the
    (graph6, detail) pairs of the violations are kept.  The row polls after
    each graph, since the scans record an overrun as a skipped cell."""

    def row(token, oracle_cap):
        tested, bad = 0, []
        for idx, g in enumerate(_asset_graphs(asset)):
            record, found = scan(idx, g, budget.scope(token), oracle_cap)
            tested += not any(cell["status"].startswith("skipped") for cell in record["invariants"].values())
            bad += [(violation["graph6"], violation["detail"]) for violation in found]
            budget.check(token)
        yield claim.format(tested), not bad, f"violations: {bad}" if bad else ""

    return row


def _dominator_gamma_scan(idx: int, g: Graph, token, oracle_cap: int):
    """chi_d = gamma implies committee-colorable with at least gamma colors, for
    minimum degree >= 2; other graphs, and chi_d != gamma, are skipped cells."""
    record = _record(idx, g)
    hit = g.min_degree() >= 2 and _value(g, "chi_d", token) == (gamma := _value(g, "gamma", token))
    record["invariants"]["dominator-gamma"] = {"status": "ok" if hit else "skipped", "value": None}
    if hit:
        colorable, irc_k = _value(g, "irc_colorable", token), _value(g, "chi_irc", token)
        if not colorable or irc_k is None or irc_k < gamma:
            return record, [_violation("dominator-gamma", record, f"gamma={gamma} colorable={colorable} chi_irc={irc_k}")]
    return record, []


def _instance_row(label: str, spec, *checks):
    """The row of ``checks`` on the ``gen`` instance ``spec`` = (kind, params),
    built when the row runs.  A check takes (instance, scope, oracle_cap) and
    yields triples; the checks share one scope.  Each claim text, after
    ``label``, is formatted with the instance's source and claimed values."""

    def row(token, oracle_cap):
        inst = _build_family(*spec)
        scope = budget.scope(token)
        facts = {"source": inst.source, **{name: claim.value for name, claim in inst.claims.items()}}
        for check in checks:
            for text, ok, detail in check(inst, scope, oracle_cap):
                yield f"{label}: {text}".format(**facts), ok, detail

    return row


def _values(text: str, ids, relation=None, confirm=(), terse=False):
    """The check that the values ``ids`` equal the instance's claims, or hold
    ``relation``, and that the oracle, below its cap, finds the claimed
    values of ``confirm``.  The detail lists the values, then, unless
    ``terse``, the claim and the oracle's verdict."""

    def check(inst, scope, oracle_cap):
        got = {name: _value(inst.graph, name, scope) for name in ids}
        ok = relation(got) if relation else all(got[name] == inst.claims[name].value for name in ids)
        verdict = ""
        if ok and confirm and inst.graph.n <= oracle_cap:
            found = oracle_invariants(inst.graph, confirm, oracle_cap, scope)
            ok = all(found[name].value == inst.claims[name].value for name in confirm)
            verdict = " oracle=confirmed" if ok else " oracle=DISAGREES"
        detail = " ".join(f"{name}={value}" for name, value in got.items())
        if confirm and not terse:
            detail += f" claim={inst.claims[ids[-1]].value}{verdict}"  # family A claims one value for its three ids
        yield text, ok, detail

    return check


def _fact(text: str, test):
    """The check of one fact: ``test(instance, scope)`` gives (ok, detail)."""
    return lambda inst, scope, oracle_cap: [(text, *test(inst, scope))]


def _vertices(n: int):
    return _fact(f"{n} vertices", lambda inst, scope: (inst.graph.n == n, f"n={inst.graph.n}"))


def _committee_passes(inst, scope):
    """The instance's coloring passes the committee check with its claimed chi_irc classes."""
    passes = is_irc_coloring(inst.graph, inst.coloring, scope).is_irc
    return passes and inst.coloring.k == inst.claims["chi_irc"].value, ""


def _z_ir_witness(inst, scope):
    witness = mask_from(inst.label_index(f"v{i}") for i in (1, 2))
    return ir_number(inst.graph, scope)[0] == 2 and is_maximal_irredundant(inst.graph, witness), "witness = {v1, v2}"


def _z_pendants(inst, scope):
    """Counts the maximal irredundant sets of Z(k,2) that miss v_i and one of
    its pendants p_i.j in some copy i."""
    vs = {i: inst.label_index(f"v{i}") for i in (1, 2)}
    pend = {i: mask_from(inst.label_index(f"p{i}.{j}") for j in range(1, 4)) for i in (1, 2)}
    bad = sum(any(not (s >> vs[i] & 1) and (s & pend[i]) != pend[i] for i in (1, 2))
              for s in maximal_irredundant_sets(inst.graph, token=scope))
    return bad == 0, f"violations={bad}"


def _cut_vertex_hub(inst, scope):
    prof = connectivity_profile(inst.graph)
    ok = prof.connected and prof.cut_vertices == 1 << inst.label_index("x") and not prof.bridges
    return ok, f"cut_vertices={prof.cut_vertices} bridges={prof.bridges}"


def _bridge_hubs(inst, scope):
    prof = connectivity_profile(inst.graph)
    hubs = (inst.label_index("L.x"), inst.label_index("R.x"))
    return prof.connected and hubs in prof.bridges, f"bridges={prof.bridges}"


def _epn_hub(inst, scope):
    star = epn_rich_vertex(inst.graph)
    return star == inst.label_index("v*"), f"found={star}"


def _trees_row(token, oracle_cap):
    # every labeled tree with n <= 7, then 4,096 seeded Pruefer sequences at n = 8
    rng = random.Random(88)
    seqs = chain(
        ((seq, n) for n in range(2, 8) for seq in product(range(n), repeat=n - 2)),
        ((tuple(rng.randrange(8) for _ in range(6)), 8) for _ in range(4096)),
    )
    bad = 0
    for checked, (seq, n) in enumerate(seqs, start=1):
        budget.check(token)
        bad += _value(families._prufer_tree(seq, n), "irc_colorable", token)
    yield f"trees are never committee-colorable ({checked} labeled trees, n <= 8)", bad == 0, f"violations={bad}"


_CHI_IR_CHI_I = ("chi", "ir", "chi_i")
_IRC_PASSES = _fact("{chi_irc}-class coloring passes the committee check", _committee_passes)
_MAX_COLORS = _fact("attached {chi_irc}-coloring passes, certifying max committee colors >= {chi_irc}", _committee_passes)
_FULL_DEGREE = [*(("complete", (n,)) for n in range(2, 7)), *(("star", (n,)) for n in range(3, 8)),
                ("B", (6, 4)), ("B", (5, 2)), ("B", (7, 3))]

VERIFY_SCOPES = {
    "full-degree": tuple(_instance_row("full-degree", spec, _values(
        "chi_i == chi on {source}", ("chi", "chi_i"), lambda got: got["chi_i"] == got["chi"])) for spec in _FULL_DEGREE),
    "bounds": (_asset_row(_SCAN_MODES["bounds"], "connected_le6.g6",
                          "bounds: max(chi,ir) <= chi_i <= chi+ir-1 on {} connected graphs (n <= 6)"),),
    "chain": (_asset_row(_cells_scan(CHAIN, _chain_breaks), "connected_le6.g6",
                         "chain: chi <= chi_i <= chi_gamma <= chi_d <= chi_gd on {} connected graphs (n <= 6)"),),
    "dominating-irredundant": (_asset_row(_cells_scan(("ir", "gamma"), _domination_breaks), "connected_le6.g6",
                                          "every minimal dominating set is maximal irredundant, and ir <= gamma, on {} graphs"),),
    "family-a": tuple(_instance_row("family {source}", ("A", params), _values(
        "chi = ir = chi_i = {chi_i}", _CHI_IR_CHI_I, confirm=_CHI_IR_CHI_I)) for params in ((6, 3), (8, 3), (8, 4))),
    "family-z": (
        _instance_row("family {source}", ("Z", (3, 1)),
                      _values("chi={chi} ir={ir} chi_i={chi_i}", _CHI_IR_CHI_I, confirm=("chi_i",), terse=True)),
        _instance_row("family {source}", ("Z", (3, 2)), _vertices(14), _values("chi = {chi}", ("chi",)),
                      # this claim text is pinned by perfbench/golden/scan_n7.json
                      _fact("ir = 2 (size-capped verify mode)", _z_ir_witness), _values("chi_i = {chi_i}", ("chi_i",)),
                      _fact("every maximal irredundant set holds v_i or all its pendants, per copy", _z_pendants)),
    ),
    "realizable": tuple(_instance_row("family {source}", ("B", params), _values(
        "chi_i = {chi_i}", ("chi_i",), confirm=("chi_i",))) for params in ((6, 4), (5, 2), (6, 6), (8, 3))),
    "two-color": (_asset_row(
        _SCAN_MODES["characterization"], "bipartite_connected_le7.g6",
        "two-color equivalence (chi_i=2 <=> pair witness <=> family member) on {} bipartite non-star graphs (n <= 7)"),),
    "min-degree": (_trees_row,),
    "cut-vertex": (_instance_row("cut-vertex family G(3)", ("cut_vertex", (3,)), _vertices(31),
                                 _fact("hub is the unique cut vertex, no bridges", _cut_vertex_hub), _IRC_PASSES),),
    "bridge": (_instance_row("bridge family G(3,3)", ("bridge", (3, 3)),
                             _fact("the hub-hub edge is a bridge", _bridge_hubs), _IRC_PASSES),),
    "max-colors": (_instance_row("clique-core family tilde(3)", ("tilde", (3,)), _vertices(27), _MAX_COLORS),),
    "even-bipartite": (_instance_row(
        "cycle-core family gstar(4)", ("bipartite_star_of_cycles", (4,)),
        _fact("bipartite", lambda inst, scope: (bipartition(inst.graph) is not None, "")), _MAX_COLORS),),
    "epn-family": (_instance_row("epn fixture", ("fixture", ("epn_sample",)),
                                 _fact("hub vertex with mutual double external privates found", _epn_hub), _IRC_PASSES),),
    "dominator-gamma": (_asset_row(
        _dominator_gamma_scan, "connected_le6.g6",
        "chi_d = gamma implies committee-colorable with max colors >= gamma ({} matching graphs, min degree >= 2, n <= 6)"),),
}


def cmd_verify(args) -> int:
    if args.scope != "all" and args.scope not in VERIFY_SCOPES:
        print(f"parameter error: unknown scope {args.scope!r}", file=sys.stderr)
        return 65
    token = Deadline(args.budget_seconds) if args.budget_seconds else None
    scopes = list(VERIFY_SCOPES) if args.scope == "all" else [args.scope]
    claims: list[dict] = []
    for scope in scopes:
        try:
            for row in VERIFY_SCOPES[scope]:
                budget.check(token)
                for text, ok, detail in row(token, args.oracle_cap):
                    claims.append({"claim": text, "status": "pass" if ok else "fail", "detail": detail})
        except SearchCancelled:
            claims.append({"claim": f"{scope} (remaining checks)", "status": "skip", "detail": "budget exhausted"})
            break
    failed = [{"check": c["claim"], "detail": c["detail"]} for c in claims if c["status"] == "fail"]
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "scope": args.scope,
        "claims": claims,
        "violations": failed,
        "summary": {
            "claims": len(claims),
            "failed": len(failed),
            "skipped": sum(1 for c in claims if c["status"] == "skip"),
        },
    }
    _emit(report, args.json)
    return 2 if failed else 0


# --- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with exit 65, the parameter-error code; argparse's
    own 2 is the code for recorded findings."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(65, f"{self.prog}: error: {message}\n")


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
    p_gen.add_argument("family", help="one of: " + ", ".join([*families.GENERATORS, "fixture"]))
    p_gen.add_argument("params", nargs="*", help="family parameters")
    p_gen.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p_gen.add_argument("--out", default=None, help="output path; sidecar goes to PATH.json")
    p_gen.set_defaults(fn=cmd_gen)

    p_ver = sub.add_parser("verify", parents=[shared], help="check the paper's claims")
    p_ver.add_argument("scope", help="one of: all, " + ", ".join(VERIFY_SCOPES))
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
