"""chromalab: exact graph-coloring toolkit and closed-form claims audit."""

from .coloring import (
    EdgeColoring,
    SearchBudget,
    VertexColoring,
    chromatic_index,
    chromatic_number,
    greedy_clique_lower_bound,
    is_k_colorable,
    validate_edge_coloring,
    validate_vertex_coloring,
)
from .errors import (
    BudgetExceededError,
    ConstructionInfeasibleError,
    DomainError,
    EdgeListFormatError,
)
from .graphs import (
    Graph,
    bipartition,
    complement,
    disjoint_union,
    format_edge_list,
    join,
    max_degree,
    parse_edge_list,
)
from .linegraph import LineGraphResult, line_graph

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConstructionInfeasibleError",
    "DomainError",
    "EdgeColoring",
    "EdgeListFormatError",
    "Graph",
    "LineGraphResult",
    "SearchBudget",
    "VertexColoring",
    "bipartition",
    "chromatic_index",
    "chromatic_number",
    "complement",
    "disjoint_union",
    "format_edge_list",
    "greedy_clique_lower_bound",
    "is_k_colorable",
    "join",
    "line_graph",
    "max_degree",
    "parse_edge_list",
    "validate_edge_coloring",
    "validate_vertex_coloring",
]
