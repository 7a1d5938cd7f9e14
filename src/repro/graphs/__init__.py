"""Graph substrates: kernels, families, and the paper's constructions.

* :class:`~repro.graphs.bipartite.BipartiteGraph` / :class:`~repro.graphs.graph.Graph`
  — the two core data structures;
* :mod:`~repro.graphs.families`, :mod:`~repro.graphs.planar` — workload
  generators (expanders and low-arboricity graphs);
* :mod:`~repro.graphs.cplus`, :mod:`~repro.graphs.gbad`,
  :mod:`~repro.graphs.core_graph`, :mod:`~repro.graphs.generalized_core`,
  :mod:`~repro.graphs.worst_case`, :mod:`~repro.graphs.broadcast_chain`
  — the constructions from the paper (Sections 1.1, 3, 4.3 and 5);
* :mod:`~repro.graphs.arboricity` — Nash–Williams machinery.
"""

from repro.graphs.arboricity import (
    arboricity,
    degeneracy,
    degeneracy_ordering,
    densest_subgraph,
    expander_arboricity_lower_bound,
    nash_williams_density,
)
from repro.graphs.bipartite import BipartiteGraph, BlockBipartite
from repro.graphs.broadcast_chain import BroadcastChain, broadcast_chain
from repro.graphs.core_graph import (
    CoreGraphLayout,
    core_graph,
    core_graph_layout,
    core_graph_max_unique_coverage,
    core_graph_min_expansion,
    core_graph_properties,
)
from repro.graphs.cplus import cplus_graph, cplus_informed_after_round_one
from repro.graphs.families import (
    chordal_cycle_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    hypercube,
    margulis_expander,
    path_graph,
    random_bipartite,
    random_bipartite_regular,
    random_regular,
    star_graph,
)
from repro.graphs.gbad_analysis import (
    alternating_run_payoff,
    full_run_payoff,
    gbad_run_subset,
    predicted_run_wireless,
)
from repro.graphs.gbad import (
    gbad,
    gbad_alternating_subset,
    gbad_private_block,
    gbad_shared_block,
    gbad_unique_expansion,
    gbad_wireless_lower_bound,
)
from repro.graphs.generalized_core import (
    GeneralizedCore,
    boosted_core,
    diluted_core,
    generalized_core,
    generalized_core_max_unique_coverage,
    lemma46_regime_ok,
)
from repro.graphs.graph import Graph
from repro.graphs.unique_tweak import UniqueTweaked, unique_tweaked_expander
from repro.graphs.planar import (
    complete_binary_tree,
    grid_2d,
    random_recursive_tree,
    triangular_grid,
)
from repro.graphs.worst_case import (
    WorstCaseExpander,
    corollary_4_11_parameters,
    worst_case_expander,
)

__all__ = [
    "BipartiteGraph",
    "BlockBipartite",
    "BroadcastChain",
    "CoreGraphLayout",
    "GeneralizedCore",
    "Graph",
    "WorstCaseExpander",
    "alternating_run_payoff",
    "arboricity",
    "boosted_core",
    "broadcast_chain",
    "chordal_cycle_graph",
    "complete_binary_tree",
    "complete_graph",
    "core_graph",
    "core_graph_layout",
    "core_graph_max_unique_coverage",
    "core_graph_min_expansion",
    "core_graph_properties",
    "corollary_4_11_parameters",
    "cplus_graph",
    "cplus_informed_after_round_one",
    "cycle_graph",
    "degeneracy",
    "degeneracy_ordering",
    "densest_subgraph",
    "diluted_core",
    "erdos_renyi",
    "expander_arboricity_lower_bound",
    "full_run_payoff",
    "gbad",
    "gbad_run_subset",
    "gbad_alternating_subset",
    "gbad_private_block",
    "gbad_shared_block",
    "gbad_unique_expansion",
    "gbad_wireless_lower_bound",
    "generalized_core",
    "generalized_core_max_unique_coverage",
    "grid_2d",
    "hypercube",
    "lemma46_regime_ok",
    "margulis_expander",
    "nash_williams_density",
    "path_graph",
    "predicted_run_wireless",
    "random_bipartite",
    "random_bipartite_regular",
    "random_recursive_tree",
    "random_regular",
    "star_graph",
    "UniqueTweaked",
    "unique_tweaked_expander",
    "triangular_grid",
    "worst_case_expander",
]
