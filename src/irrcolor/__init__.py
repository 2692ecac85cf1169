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
from .oracle import (
    CrossCheckReport,
    OracleResult,
    cross_check,
    independent_partitions,
    oracle_invariant,
)

from types import ModuleType as _ModuleType

# the imports above also bind the submodules; a star import leaves them out
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
