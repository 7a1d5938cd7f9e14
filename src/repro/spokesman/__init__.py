"""Spokesman election algorithms (Section 4.2 and Appendix A).

Given a bipartite ``G_S = (S, N, E)``, find ``S' ⊆ S`` maximizing
``|Γ¹_S(S')|``.  Exact solver, the paper's randomized sampler, four
deterministic procedures with proven guarantees, a local-search baseline,
and the Corollary A.16 portfolio.
"""

from repro.spokesman.base import (
    SpokesmanResult,
    evaluate_subset,
    nonisolated_right_count,
)
from repro.spokesman.degree_classes import (
    degree_class_members,
    spokesman_degree_classes,
)
from repro.spokesman.exact import spokesman_exact
from repro.spokesman.greedy_add import spokesman_greedy_add
from repro.spokesman.naive_greedy import naive_greedy_trace, spokesman_naive_greedy
from repro.spokesman.partition import (
    PartitionState,
    procedure_partition,
    procedure_partition_batch,
)
from repro.spokesman.portfolio import (
    DETERMINISTIC_ALGORITHMS,
    RANDOMIZED_ALGORITHMS,
    spokesman_portfolio,
    wireless_lower_bound_of_set,
    wireless_lower_bounds_of_sets,
)
from repro.spokesman.recursive import spokesman_recursive
from repro.spokesman.sampling import (
    largest_degree_class,
    lemma43_reduction,
    spokesman_sampling,
    spokesman_sampling_all_scales,
)
from repro.spokesman.threshold_partition import (
    spokesman_partition,
    spokesman_threshold_partition,
    spokesman_threshold_sweep,
    threshold_population,
)

__all__ = [
    "DETERMINISTIC_ALGORITHMS",
    "PartitionState",
    "RANDOMIZED_ALGORITHMS",
    "SpokesmanResult",
    "degree_class_members",
    "evaluate_subset",
    "largest_degree_class",
    "lemma43_reduction",
    "naive_greedy_trace",
    "nonisolated_right_count",
    "procedure_partition",
    "procedure_partition_batch",
    "spokesman_degree_classes",
    "spokesman_exact",
    "spokesman_greedy_add",
    "spokesman_naive_greedy",
    "spokesman_partition",
    "spokesman_portfolio",
    "spokesman_recursive",
    "spokesman_sampling",
    "spokesman_sampling_all_scales",
    "spokesman_threshold_partition",
    "spokesman_threshold_sweep",
    "threshold_population",
    "wireless_lower_bound_of_set",
    "wireless_lower_bounds_of_sets",
]
