"""The paper's claims: the ``gen`` and ``verify`` commands.

``gen`` builds a family instance from ``families`` and writes it with its
claimed invariants.  ``verify`` checks the claims of ``VERIFY_SCOPES``, one
table of rows per scope, with the fast engines, the oracle below its cap
and the scan modes of ``cli``.  The CLI imports this module inside those
two commands only, so that ``invariants`` and ``scan`` start without
compiling the families, the oracle or ``characterize``.
"""

from __future__ import annotations

import os
import random
import sys
from itertools import chain, product
from typing import Sequence

from . import budget, families
from .budget import Deadline
from .characterize import epn_rich_vertex
from .cli import (
    CHAIN,
    SCHEMA,
    _SCAN_MODES,
    _cells_scan,
    _chain_breaks,
    _domination_breaks,
    _emit,
    _read_graphs,
    _record,
    _to_json,
    _value,
    _violation,
)
from .errors import ParameterError, SearchCancelled, UnsupportedSizeError
from .graphs import Graph, bipartition, connectivity_profile, format_edge_list, mask_from, to_graph6
from .irc import is_irc_coloring
from .irredundance import ir_number, is_maximal_irredundant, maximal_irredundant_sets
from .oracle import oracle_invariants


# --- gen command ----------------------------------------------------------------


def _build_family(name: str, params: Sequence[str | int]) -> families.FamilyInstance:
    if name != "fixture":  # a fixture's parameter is its name
        try:
            params = [int(p) for p in params]
        except ValueError as exc:
            raise ParameterError(f"{name} parameters must be integers") from exc
    return families.generate(name, *params)


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
        sidecar = _to_json(_sidecar(inst)) + "\n"
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


# --- verify command -------------------------------------------------------------

# ``VERIFY_SCOPES`` maps each scope to its rows, functions (token, oracle_cap,
# assets=None) -> iterator of (claim text, ok, detail) that ``cmd_verify``
# turns into claims.  ``assets`` is the run's ``_Assets``, which only the
# asset rows read; called without it, an asset row reads a table of its own.


def _asset_graphs(name: str) -> list[Graph]:
    return _read_graphs(os.path.join(os.path.dirname(__file__), "data", name), "graph6")


class _Assets:
    """The packaged graphs of one ``verify`` run: each asset file is read
    once, and each graph gets one Scope on the run's token, which every
    asset row of the run reads, so that its shared results (chi, the set
    walk, chi_d, the committee tables) are computed once.  A graph in both
    assets has one Scope.  The table lives for one run only."""

    def __init__(self, token):
        self.token = token
        self.files: dict[str, list[tuple[Graph, budget.Scope]]] = {}
        self.scopes: dict[Graph, budget.Scope] = {}

    def read(self, name: str) -> list[tuple[Graph, budget.Scope]]:
        if name not in self.files:
            scopes, token = self.scopes, self.token
            self.files[name] = [(g, scopes.setdefault(g, budget.Scope(token))) for g in _asset_graphs(name)]
        return self.files[name]


def _asset_row(scan, asset: str, claim: str):
    """The row claiming that ``scan`` finds nothing on a packaged asset.  Each
    graph runs under its Scope in ``assets``; only the number of records
    with no skipped cell, which ``claim`` formats, and the (graph6, detail)
    pairs of the violations are kept.  The row polls after each graph,
    since the scans record an overrun as a skipped cell."""

    def row(token, oracle_cap, assets=None):
        tested, bad = 0, []
        for idx, (g, scope) in enumerate((assets or _Assets(token)).read(asset)):
            record, found = scan(idx, g, scope, oracle_cap)
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

    def row(token, oracle_cap, assets=None):
        inst = _build_family(*spec)
        scope = budget.scope(token)
        facts = {"source": inst.source, **{name: claim.value for name, claim in inst.claims.items()}}
        for check in checks:
            for text, ok, detail in check(inst, scope, oracle_cap):
                yield f"{label}: {text}".format(**facts), ok, detail

    return row


def _values(text: str, ids, relation=None, confirm=()):
    """The check that the values ``ids`` equal the instance's claims, or hold
    ``relation``, and that the oracle, below its cap, finds the claimed
    values of ``confirm``.  With ``confirm``, and one claim for all ``ids``,
    the detail adds that claim and the oracle's verdict to the values."""

    def check(inst, scope, oracle_cap):
        got = {name: _value(inst.graph, name, scope) for name in ids}
        ok = relation(got) if relation else all(got[name] == inst.claims[name].value for name in ids)
        verdict = ""
        if ok and confirm and inst.graph.n <= oracle_cap:
            found = oracle_invariants(inst.graph, confirm, oracle_cap, scope)
            ok = all(found[name].value == inst.claims[name].value for name in confirm)
            verdict = " oracle=confirmed" if ok else " oracle=DISAGREES"
        detail = " ".join(f"{name}={value}" for name, value in got.items())
        if confirm and len({inst.claims[name].value for name in ids}) == 1:
            detail += f" claim={inst.claims[ids[0]].value}{verdict}"
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


def _trees_row(token, oracle_cap, assets=None):
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
                      _values("chi={chi} ir={ir} chi_i={chi_i}", _CHI_IR_CHI_I, confirm=("chi_i",))),
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
    assets = _Assets(token)
    claims: list[dict] = []
    for scope in scopes:
        try:
            for row in VERIFY_SCOPES[scope]:
                budget.check(token)
                for text, ok, detail in row(token, args.oracle_cap, assets):
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
