"""Exact domination-polynomial engine.

Core pieces: bitmask graphs with pure surgery ops, exact big-int
polynomials, a brute-force enumeration oracle, the vertex/edge/product
decomposition recurrences, closed recurrence systems for triangular and
square cactus chains, and a verification harness that arbitrates every
published identity against the oracle.
"""
from .graph import (
    EdgeListParseError,
    Graph,
    coalesce,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    format_edge_list,
    parse_edge_list,
    path_graph,
)
from .poly import DomPoly, ExactDivisionError
from .oracle import (
    DEFAULT_CAP,
    HARD_CAP,
    EnumerationCapError,
    count_dominating_sets,
    domination_number,
    domination_polynomial,
    domination_table,
    restricted_polynomial,
)
from .decompose import (
    components_product,
    edge_recurrence,
    edge_recurrence_bracket,
    vertex_recurrence,
)
from .families import (
    CHAIN_FAMILIES,
    FAMILY_NAMES,
    GADGET_FAMILIES,
    Erratum,
    RecurrenceConfigError,
    attach_gadget,
    build_chain,
    family_order,
    family_polynomial,
    family_polynomials,
    o_polynomial,
    o_stream,
    ortho_chain,
    para_chain,
    q_polynomial,
    q_stream,
    t_coefficient_table,
    t_count_sequence,
    t_polynomial,
    triangle_chain,
)
from .verify import IdentityCheck, VerificationReport, verify_families

__version__ = "0.1.0"

__all__ = [
    "CHAIN_FAMILIES",
    "DEFAULT_CAP",
    "DomPoly",
    "EdgeListParseError",
    "EnumerationCapError",
    "Erratum",
    "ExactDivisionError",
    "FAMILY_NAMES",
    "GADGET_FAMILIES",
    "Graph",
    "HARD_CAP",
    "IdentityCheck",
    "RecurrenceConfigError",
    "VerificationReport",
    "attach_gadget",
    "build_chain",
    "coalesce",
    "complete_graph",
    "components_product",
    "connected_components",
    "count_dominating_sets",
    "cycle_graph",
    "disjoint_union",
    "domination_number",
    "domination_polynomial",
    "domination_table",
    "edge_recurrence",
    "edge_recurrence_bracket",
    "family_order",
    "family_polynomial",
    "family_polynomials",
    "format_edge_list",
    "o_polynomial",
    "o_stream",
    "ortho_chain",
    "para_chain",
    "parse_edge_list",
    "path_graph",
    "q_polynomial",
    "q_stream",
    "restricted_polynomial",
    "t_coefficient_table",
    "t_count_sequence",
    "t_polynomial",
    "triangle_chain",
    "verify_families",
    "vertex_recurrence",
]
