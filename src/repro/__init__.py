"""repro — a full reproduction of *Wireless Expanders* (SPAA 2018).

Attali, Parter, Peleg and Solomon introduce **wireless expansion**: the
right notion of neighbourhood expansion for collision-limited radio
networks, sitting between ordinary vertex expansion and unique-neighbour
expansion (``β ≥ βw ≥ βu``).  This package implements, from scratch:

* the graph substrates and every construction in the paper (``C⁺``,
  ``Gbad``, the core graph and its generalizations, the worst-case plugged
  expanders, the Section 5 broadcast chains) — :mod:`repro.graphs`;
* exact and sampled analyzers for all three expansion notions, the spectral
  toolbox, and every closed-form bound — :mod:`repro.expansion`;
* the spokesman-election algorithms (randomized decay-style sampling and
  the whole Appendix A family) — :mod:`repro.spokesman`;
* a synchronous collision-model radio network simulator with Decay,
  flooding, round-robin and spokesman-aided broadcast — :mod:`repro.radio`;
* the experiment harness regenerating every claim as a measured table —
  :mod:`repro.analysis` and the ``benchmarks/`` directory;
* the execution runtime farming sweep tasks across processes with a
  content-addressed result cache and resumable manifests —
  :mod:`repro.runtime`;
* the declarative scenario layer tying all of the above together: one
  picklable spec from graph → protocol → channel → runtime —
  :mod:`repro.scenario`.

Quickstart::

    from repro import Scenario

    batch = Scenario.from_string(
        "hypercube(10) | decay | erasure(0.1) | trials=64 | seed=0"
    ).run()
    print(batch.completion_rate, batch.round_quantiles())
"""

from repro.analysis import (
    fit_loglinear,
    render_table,
    summarize,
    write_table,
)
from repro.expansion import (
    bipartite_expansion_exact,
    bipartite_unique_expansion_exact,
    expansion_of_set,
    kushilevitz_mansour_lower_bound,
    lemma31_verify,
    max_unique_coverage_exact,
    mg_bound,
    second_eigenvalue,
    theorem11_shape,
    unique_expansion_exact,
    unique_expansion_of_set,
    vertex_expansion_exact,
    vertex_expansion_sampled,
    wireless_expansion_exact,
    wireless_expansion_of_set_exact,
)
from repro.graphs import (
    BipartiteGraph,
    Graph,
    arboricity,
    boosted_core,
    broadcast_chain,
    core_graph,
    core_graph_max_unique_coverage,
    core_graph_min_expansion,
    cplus_graph,
    diluted_core,
    gbad,
    generalized_core,
    hypercube,
    margulis_expander,
    random_bipartite_regular,
    random_regular,
    worst_case_expander,
)
from repro.radio import (
    ChannelSpec,
    DecayProtocol,
    FloodingProtocol,
    RadioNetwork,
    RoundRobinProtocol,
    SpokesmanBroadcastProtocol,
    measure_chain_broadcast,
    run_broadcast,
)
from repro.scenario import (
    GraphSpec,
    ProtocolSpec,
    Scenario,
    ScenarioSweep,
)
from repro.spokesman import (
    SpokesmanResult,
    spokesman_exact,
    spokesman_greedy_add,
    spokesman_naive_greedy,
    spokesman_partition,
    spokesman_portfolio,
    spokesman_recursive,
    spokesman_sampling,
    wireless_lower_bound_of_set,
)

__version__ = "1.0.0"

__all__ = [
    "BipartiteGraph",
    "ChannelSpec",
    "DecayProtocol",
    "FloodingProtocol",
    "Graph",
    "GraphSpec",
    "ProtocolSpec",
    "RadioNetwork",
    "Scenario",
    "ScenarioSweep",
    "RoundRobinProtocol",
    "SpokesmanBroadcastProtocol",
    "SpokesmanResult",
    "__version__",
    "arboricity",
    "bipartite_expansion_exact",
    "bipartite_unique_expansion_exact",
    "boosted_core",
    "broadcast_chain",
    "core_graph",
    "core_graph_max_unique_coverage",
    "core_graph_min_expansion",
    "cplus_graph",
    "diluted_core",
    "expansion_of_set",
    "fit_loglinear",
    "gbad",
    "generalized_core",
    "hypercube",
    "kushilevitz_mansour_lower_bound",
    "lemma31_verify",
    "margulis_expander",
    "max_unique_coverage_exact",
    "measure_chain_broadcast",
    "mg_bound",
    "random_bipartite_regular",
    "random_regular",
    "render_table",
    "run_broadcast",
    "second_eigenvalue",
    "spokesman_exact",
    "spokesman_greedy_add",
    "spokesman_naive_greedy",
    "spokesman_partition",
    "spokesman_portfolio",
    "spokesman_recursive",
    "spokesman_sampling",
    "summarize",
    "theorem11_shape",
    "unique_expansion_exact",
    "unique_expansion_of_set",
    "vertex_expansion_exact",
    "vertex_expansion_sampled",
    "wireless_expansion_exact",
    "wireless_expansion_of_set_exact",
    "wireless_lower_bound_of_set",
    "worst_case_expander",
    "write_table",
]
