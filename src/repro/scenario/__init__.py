"""repro.scenario — the declarative scenario API.

One picklable spec layer from graph → protocol → channel → workload →
runtime: a :class:`Scenario` names a graph family, a broadcast protocol,
a channel model, a workload (broadcast/gossip/aggregate/pipeline), a
trial count, and a seed — everything one of the paper's claims
quantifies over — and is constructible from a compact string::

    from repro.scenario import Scenario

    sc = Scenario.from_string(
        "random_regular(256, 8) | decay | erasure(0.1) | trials=64 | seed=0"
    )
    batch = sc.run()                        # the batched engine, one call
    sc.run(executor=4, cache="results/cache")   # parallel + cached, bit-for-bit

Specs round-trip losslessly through four views — string
(``from_string``/``describe``), canonical dict (``to_dict``/``from_dict``,
the content-address the result cache hashes), pickle (frozen dataclasses,
the payload worker processes receive), and live objects (``build``).
:class:`ScenarioSweep` sweeps over spec *fields* (grid or explicit list),
and the registries (:data:`GRAPHS`, :data:`PROTOCOLS`, plus the radio
layer's channels) are extensible and discoverable via
``repro scenarios list``.
"""

from repro.radio.channel import ChannelSpec
from repro.scenario.presets import SCENARIOS, get_scenario, register_scenario
from repro.scenario.registry import (
    GRAPHS,
    PROTOCOLS,
    BuiltGraph,
    SpecEntry,
    SpecRegistry,
)
from repro.scenario.spec import (
    GraphSpec,
    ProtocolSpec,
    RealizedScenario,
    Scenario,
    clear_graph_memo,
)
from repro.scenario.sweep import ScenarioPoint, ScenarioSweep
from repro.workload import WORKLOADS, WorkloadSpec
from repro.scenario.tasks import (
    expansion_summary,
    merge_batches,
    run_scenario,
    run_scenario_shard,
    run_scenario_sharded,
    scenario_summary,
)

__all__ = [
    "BuiltGraph",
    "ChannelSpec",
    "GRAPHS",
    "GraphSpec",
    "PROTOCOLS",
    "ProtocolSpec",
    "RealizedScenario",
    "SCENARIOS",
    "Scenario",
    "ScenarioPoint",
    "ScenarioSweep",
    "SpecEntry",
    "SpecRegistry",
    "WORKLOADS",
    "WorkloadSpec",
    "clear_graph_memo",
    "expansion_summary",
    "get_scenario",
    "merge_batches",
    "register_scenario",
    "run_scenario",
    "run_scenario_shard",
    "run_scenario_sharded",
    "scenario_summary",
]
