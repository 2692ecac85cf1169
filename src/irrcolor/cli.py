"""Command-line front end.

Subcommands:
  invariants  compute invariants for graphs read from a file or stdin
  gen         build a named family instance and write it plus a claims sidecar
  verify      run the data-driven verification suites
  scan        stream graphs through inequality / conjecture / equivalence checks

Exit codes: 0 success or no findings, 2 findings recorded (scan), 64 input
error, 65 parameter error, 141 stdout closed by its reader.  Reports are
deterministic for fixed input and flags; wall-clock timings live in their
own field so byte comparisons can drop them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from importlib.resources import files as resource_files
from itertools import chain, product
from typing import Optional

from . import budget, families
from .budget import Deadline
from .characterize import bipartite_two_family, find_anchor_edge, find_near_twin_pair, is_star
from .errors import FormatError, ParameterError, SearchCancelled, SizeCapError, UnsupportedSizeError
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
from .irredundance import ir_verify, is_maximal_irredundant, maximal_irredundant_sets, minimal_dominating_sets
from .invariants import REGISTRY
from .oracle import DEFAULT_SIZE_CAP, irc_class_counts, oracle_invariant, oracle_invariants

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
    conjecture`` and the verify suites go past it."""
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
    token = budget.scope(token)  # the cells share chi and the set walks
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
    """``fn(idx, g)`` for each input graph, in input order; in a pool of
    ``jobs`` worker processes when there are several graphs."""
    if jobs > 1 and len(graphs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
            if cell["status"] == "ok":
                val = cell["value"]
                shown = str(val).lower() if isinstance(val, bool) else val
                parts.append(f"{name}={shown}")
            else:
                parts.append(f"{name}={cell['status']}")
        print("  ".join(str(p) for p in parts))
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


def _build_family(name: str, params: list[str]) -> families.FamilyInstance:
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
    minimal dominating set that is not maximal irredundant, up to n = 16."""
    ir, gamma = val.get("ir"), val.get("gamma")
    if ir is not None and gamma is not None and ir > gamma:
        yield "ir<=gamma", f"ir={ir} > gamma={gamma}"
    if g.n <= 16:
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
        if len(set(conds.values())) > 1:
            violations.append(_violation("two-color-equivalence", record, json.dumps(conds, sort_keys=True)))
            status = ("ok", "disagree")
        else:
            status = ("ok", "agree")
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


def _asset_graphs(name: str) -> list[Graph]:
    text = resource_files("irrcolor").joinpath(f"data/{name}").read_text(encoding="ascii")
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def _claim(claims, name, ok, detail=""):
    claims.append({"claim": name, "status": "pass" if ok else "fail", "detail": detail})


def _claim_clean(claims, name, bad):
    """A claim that passes when the list of violations ``bad`` is empty."""
    _claim(claims, name, not bad, f"violations: {bad}" if bad else "")


def _verify_full_degree(claims, token, oracle_cap):
    cases = [families.gen_complete(n) for n in range(2, 7)]
    cases += [families.gen_star(n) for n in range(3, 8)]
    cases += [families.gen_family_b(6, 4), families.gen_family_b(5, 2), families.gen_family_b(7, 3)]
    for inst in cases:
        g = inst.graph
        scope = budget.scope(token)
        chi, chi_i = _value(g, "chi", scope), _value(g, "chi_i", scope)
        _claim(
            claims,
            f"full-degree: chi_i == chi on {inst.source}",
            chi_i == chi,
            f"chi={chi} chi_i={chi_i}",
        )


def _verify_asset(scan, asset: str, claim: str, claims, token, oracle_cap):
    """The claim that ``scan`` finds nothing on a packaged asset.  Each graph
    runs under its own scope, as in the scan command; only the number of
    records with no skipped cell, which ``claim`` formats, and the (graph6,
    detail) pairs of the violations are kept."""
    tested, bad = 0, []
    for idx, g in enumerate(_asset_graphs(asset)):
        record, found = scan(idx, g, budget.scope(token), oracle_cap)
        tested += not any(cell["status"].startswith("skipped") for cell in record["invariants"].values())
        bad += [(violation["graph6"], violation["detail"]) for violation in found]
    budget.check(token)  # the scans record an overrun as a skipped cell
    _claim_clean(claims, claim.format(tested), bad)


def _verify_family_a(claims, token, oracle_cap):
    for n, k in ((6, 3), (8, 3), (8, 4)):
        inst = families.gen_family_a(n, k)
        g = inst.graph
        scope = budget.scope(token)
        chi, irn, chi_i = (_value(g, name, scope) for name in ("chi", "ir", "chi_i"))
        ok = chi == irn == chi_i == k
        detail = f"chi={chi} ir={irn} chi_i={chi_i} claim={k}"
        if ok and g.n <= oracle_cap:
            oracle = oracle_invariants(g, ("chi", "ir", "chi_i"), oracle_cap, token)
            ok = all(result.value == k for result in oracle.values())
            detail += " oracle=confirmed" if ok else " oracle=DISAGREES"
        _claim(claims, f"family A({n},{k}): chi = ir = chi_i = {k}", ok, detail)


def _verify_family_z(claims, token, oracle_cap):
    inst = families.gen_family_z(3, 1)
    g = inst.graph
    scope = budget.scope(token)
    chi, irn, chi_i = (_value(g, name, scope) for name in ("chi", "ir", "chi_i"))
    ok = (chi, irn, chi_i) == (3, 1, 3)
    if ok and g.n <= oracle_cap:
        ok = oracle_invariant(g, "chi_i", oracle_cap, token).value == 3
    _claim(claims, "family Z(3,1): chi=3 ir=1 chi_i=3", ok, f"chi={chi} ir={irn} chi_i={chi_i}")

    inst = families.gen_family_z(3, 2)
    g = inst.graph
    _claim(claims, "family Z(3,2): 14 vertices", g.n == 14, f"n={g.n}")
    scope = budget.scope(token)
    chi = _value(g, "chi", scope)
    _claim(claims, "family Z(3,2): chi = 3", chi == 3, f"chi={chi}")
    vs = {i: inst.label_index(f"v{i}") for i in (1, 2)}
    pend = {i: mask_from(inst.label_index(f"p{i}.{j}") for j in range(1, 4)) for i in (1, 2)}
    _claim(
        claims,
        "family Z(3,2): ir = 2 (size-capped verify mode)",
        ir_verify(g, 2, mask_from(vs.values()), scope),
        "witness = {v1, v2}",
    )
    chi_i = _value(g, "chi_i", scope)
    _claim(claims, "family Z(3,2): chi_i = 4", chi_i == 4, f"chi_i={chi_i}")
    bad = 0
    for s in maximal_irredundant_sets(g, token=scope):
        for i in (1, 2):
            if not (s >> vs[i] & 1) and (s & pend[i]) != pend[i]:
                bad += 1
                break
    _claim(
        claims,
        "family Z(3,2): every maximal irredundant set holds v_i or all its pendants, per copy",
        bad == 0,
        f"violations={bad}",
    )


def _verify_realizable(claims, token, oracle_cap):
    for n, k in ((6, 4), (5, 2), (6, 6), (8, 3)):
        inst = families.gen_family_b(n, k)
        g = inst.graph
        chi_i = _value(g, "chi_i", token)
        ok = chi_i == k
        detail = f"chi_i={chi_i} claim={k}"
        if ok and g.n <= oracle_cap:
            ok = oracle_invariant(g, "chi_i", oracle_cap, token).value == k
            detail += " oracle=confirmed" if ok else " oracle=DISAGREES"
        _claim(claims, f"family B({n},{k}): chi_i = {k}", ok, detail)


def _verify_min_degree(claims, token, oracle_cap):
    # every labeled tree with n <= 7, then 4,096 seeded Pruefer sequences at n = 8
    rng = random.Random(88)
    seqs = chain(
        ((seq, n) for n in range(2, 8) for seq in product(range(n), repeat=n - 2)),
        ((tuple(rng.randrange(8) for _ in range(6)), 8) for _ in range(4096)),
    )
    checked = bad = 0
    for seq, n in seqs:
        checked += 1
        bad += _value(families._prufer_tree(seq, n), "irc_colorable", token)
    _claim(
        claims,
        f"trees are never committee-colorable ({checked} labeled trees, n <= 8)",
        bad == 0,
        f"violations={bad}",
    )


def _verify_cut_vertex(claims, token, oracle_cap):
    inst = families.gen_cut_vertex(3)
    g = inst.graph
    _claim(claims, "cut-vertex family G(3): 31 vertices", g.n == 31, f"n={g.n}")
    prof = connectivity_profile(g)
    hub = 30
    ok = prof.connected and prof.cut_vertices == 1 << hub and not prof.bridges
    _claim(claims, "cut-vertex family G(3): hub is the unique cut vertex, no bridges", ok,
           f"cut_vertices={prof.cut_vertices} bridges={prof.bridges}")
    _claim(claims, "cut-vertex family G(3): 3-class coloring passes the committee check",
           is_irc_coloring(g, inst.coloring, token).is_irc)


def _verify_bridge(claims, token, oracle_cap):
    inst = families.gen_bridge(3, 3)
    g = inst.graph
    prof = connectivity_profile(g)
    hub1, hub2 = 30, 61
    ok = prof.connected and (hub1, hub2) in prof.bridges
    _claim(claims, "bridge family G(3,3): the hub-hub edge is a bridge", ok, f"bridges={prof.bridges}")
    _claim(claims, "bridge family G(3,3): 4-class coloring passes the committee check",
           is_irc_coloring(g, inst.coloring, token).is_irc)


def _verify_max_colors(claims, token, oracle_cap):
    inst = families.gen_tilde(3)
    g = inst.graph
    _claim(claims, "clique-core family tilde(3): 27 vertices", g.n == 27, f"n={g.n}")
    _claim(
        claims,
        "clique-core family tilde(3): attached 3-coloring passes, certifying max committee colors >= 3",
        is_irc_coloring(g, inst.coloring, token).is_irc and inst.coloring.k == 3,
    )


def _verify_even_bipartite(claims, token, oracle_cap):
    inst = families.gen_star_of_cycles(4)
    g = inst.graph
    _claim(claims, "cycle-core family gstar(4): bipartite", bipartition(g) is not None, "")
    _claim(
        claims,
        "cycle-core family gstar(4): attached 4-coloring passes, certifying max committee colors >= 4",
        is_irc_coloring(g, inst.coloring, token).is_irc and inst.coloring.k == 4,
    )


def _verify_epn_family(claims, token, oracle_cap):
    inst = families.fixture("epn_sample")
    g = inst.graph
    star = families.epn_rich_vertex(g)
    _claim(claims, "epn fixture: hub vertex with mutual double external privates found",
           star == 0, f"found={star}")
    _claim(claims, "epn fixture: 3-class coloring passes the committee check",
           is_irc_coloring(g, inst.coloring, token).is_irc)


def _verify_dominator_gamma(claims, token, oracle_cap):
    # the implication is stated for graphs of minimum degree at least 2
    graphs = [g for g in _asset_graphs("connected_le6.g6") if g.min_degree() >= 2]
    hits = 0
    bad = []
    for g in graphs:
        scope = budget.scope(token)
        chi_d, gam = _value(g, "chi_d", scope), _value(g, "gamma", scope)
        if chi_d != gam:
            continue
        hits += 1
        colorable, irc_k = _value(g, "irc_colorable", scope), _value(g, "chi_irc", scope)
        if not colorable or irc_k is None or irc_k < gam:
            bad.append(to_graph6(g).decode("ascii"))
    _claim_clean(
        claims,
        f"chi_d = gamma implies committee-colorable with max colors >= gamma ({hits} matching graphs, min degree >= 2, n <= 6)",
        bad,
    )


VERIFY_SCOPES = {
    "full-degree": _verify_full_degree,
    "bounds": partial(_verify_asset, _SCAN_MODES["bounds"], "connected_le6.g6",
                      "bounds: max(chi,ir) <= chi_i <= chi+ir-1 on {} connected graphs (n <= 6)"),
    "chain": partial(_verify_asset, _cells_scan(CHAIN, _chain_breaks), "connected_le6.g6",
                     "chain: chi <= chi_i <= chi_gamma <= chi_d <= chi_gd on {} connected graphs (n <= 6)"),
    "dominating-irredundant": partial(
        _verify_asset, _cells_scan(("ir", "gamma"), _domination_breaks), "connected_le6.g6",
        "every minimal dominating set is maximal irredundant, and ir <= gamma, on {} graphs"),
    "family-a": _verify_family_a,
    "family-z": _verify_family_z,
    "realizable": _verify_realizable,
    "two-color": partial(
        _verify_asset, _SCAN_MODES["characterization"], "bipartite_connected_le7.g6",
        "two-color equivalence (chi_i=2 <=> pair witness <=> family member) on {} bipartite non-star graphs (n <= 7)"),
    "min-degree": _verify_min_degree,
    "cut-vertex": _verify_cut_vertex,
    "bridge": _verify_bridge,
    "max-colors": _verify_max_colors,
    "even-bipartite": _verify_even_bipartite,
    "epn-family": _verify_epn_family,
    "dominator-gamma": _verify_dominator_gamma,
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
            VERIFY_SCOPES[scope](claims, token, args.oracle_cap)
        except SearchCancelled:
            claims.append({"claim": f"{scope} (remaining checks)", "status": "skip", "detail": "budget exhausted"})
            break
        except SizeCapError as exc:
            claims.append({"claim": scope, "status": "skip", "detail": str(exc)})
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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="irrcolor",
        description="Exact irredundance-flavored coloring invariants for small graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="compute invariants for input graphs")
    p_inv.add_argument("input", nargs="?", default=None, help="file path or - for stdin")
    p_inv.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    listed = f"comma list of {','.join(REGISTRY)}; default {','.join(DEFAULT_INVARIANTS)}"
    p_inv.add_argument("--invariants", default="", help=listed)
    p_inv.add_argument("--json", action="store_true")
    p_inv.add_argument("--witnesses", action="store_true", help="include witness colorings/sets in the report")
    p_inv.add_argument("--jobs", type=int, default=1)
    p_inv.add_argument("--budget-seconds", type=float, default=0.0)
    p_inv.set_defaults(fn=cmd_invariants)

    p_gen = sub.add_parser("gen", help="generate a family instance plus claims sidecar")
    p_gen.add_argument("family", help="one of: " + ", ".join([*families.GENERATORS, "fixture"]))
    p_gen.add_argument("params", nargs="*", help="family parameters")
    p_gen.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p_gen.add_argument("--out", default=None, help="output path; sidecar goes to PATH.json")
    p_gen.set_defaults(fn=cmd_gen)

    p_ver = sub.add_parser("verify", help="run the data-driven verification suites")
    p_ver.add_argument("scope", help="one of: all, " + ", ".join(VERIFY_SCOPES))
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--oracle-cap", type=int, default=DEFAULT_SIZE_CAP)
    p_ver.add_argument("--budget-seconds", type=float, default=0.0)
    p_ver.set_defaults(fn=cmd_verify)

    p_scan = sub.add_parser("scan", help="scan a graph6 stream for violations")
    p_scan.add_argument("mode", choices=tuple(_SCAN_MODES))
    p_scan.add_argument("input", nargs="?", default=None, help="file path or - for stdin")
    p_scan.add_argument("--json", action="store_true")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--oracle-cap", type=int, default=DEFAULT_SIZE_CAP)
    p_scan.add_argument("--budget-seconds", type=float, default=0.0)
    p_scan.set_defaults(fn=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("jobs", 1), ("budget_seconds", 0), ("oracle_cap", 0)):
        value = getattr(args, flag, least)
        if not value >= least:  # a nan budget fails too
            parser.error(f"--{flag.replace('_', '-')} must be at least {least}, not {value}")
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
