"""Exact computation of irredundance-flavored coloring invariants.

The package computes, for small graphs: the chromatic number, the lower
irredundance and domination numbers, the irredundance chromatic number
(minimum colors of a proper coloring leaving some maximal irredundant set
rainbow), the gamma / dominator / global dominator chromatic numbers, and
the committee-compelling maximum (largest color count such that every
one-vertex-per-class committee is irredundant).  A deliberately naive
exhaustive oracle recomputes everything by definition for cross-checking,
and generators build the extremal families the ``verify`` claims need.
"""

from .coloring import (
    Coloring,
    RainbowCert,
    chromatic_number,
    dominator_chromatic_number,
    gamma_chromatic_number,
    global_dominator_chromatic_number,
    irredundance_chromatic_number,
    is_proper,
    is_rainbow,
)
from .errors import (
    FormatError,
    LoopError,
    ParameterError,
    PreconditionError,
    SearchCancelled,
    SizeCapError,
    UnsupportedSizeError,
)
from .graphs import (
    ConnectivityProfile,
    Graph,
    VertexSet,
    bipartition,
    bits,
    connectivity_profile,
    corona_k1,
    from_edge_list,
    format_edge_list,
    mask_from,
    merge_copies,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .irc import (
    IrcVerdict,
    irc_chromatic_number,
    irc_colorability,
    irc_with_k_colors,
    is_irc_coloring,
)
from .irredundance import (
    gamma_number,
    ir_number,
    is_dominating,
    is_irredundant,
    is_maximal_irredundant,
    maximal_irredundant_sets,
    minimal_dominating_sets,
    private_neighbors,
)

# the oracle loads on first use of one of its names (PEP 562), so that
# importing the package, or the CLI through it, does not compile it
_ORACLE_NAMES = ("CrossCheckReport", "OracleResult", "cross_check", "independent_partitions", "oracle_invariant")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES})


__all__ = [
    "Coloring", "RainbowCert", "chromatic_number", "dominator_chromatic_number", "gamma_chromatic_number",
    "global_dominator_chromatic_number", "irredundance_chromatic_number", "is_proper", "is_rainbow",
    "FormatError", "LoopError", "ParameterError", "PreconditionError", "SearchCancelled", "SizeCapError",
    "UnsupportedSizeError",
    "ConnectivityProfile", "Graph", "VertexSet", "bipartition", "bits", "connectivity_profile", "corona_k1",
    "from_edge_list", "format_edge_list", "mask_from", "merge_copies", "parse_edge_list", "parse_graph6", "to_graph6",
    "IrcVerdict", "irc_chromatic_number", "irc_colorability", "irc_with_k_colors", "is_irc_coloring",
    "gamma_number", "ir_number", "is_dominating", "is_irredundant", "is_maximal_irredundant",
    "maximal_irredundant_sets", "minimal_dominating_sets", "private_neighbors",
    *_ORACLE_NAMES,
]
__version__ = "0.1.0"
