"""Radio network simulator (Section 1.1 model) and broadcast protocols.

Collision semantics, the Decay protocol, flooding/round-robin baselines, the
centralized spokesman-aided scheduler, and the Section 5 lower-bound
experiment drivers.

The engine is *trial-vectorized*: the paper's positive results are
probabilistic, so experiments need many independent trials per graph, and
:func:`run_broadcast_batch` advances all of them together — one sparse
``(n, T)`` product per round instead of ``T`` Python-loop simulations::

    from repro.graphs import hypercube
    from repro.radio import DecayProtocol, run_broadcast_batch

    batch = run_broadcast_batch(hypercube(10), DecayProtocol(),
                                trials=256, seed=0)
    batch.completion_rate      # fraction of trials that informed everyone
    batch.round_quantiles()    # median / p90 / p99 broadcast time
    batch.trial(7)             # any trial as a plain BroadcastResult

Seeding a batch with a master seed is bit-for-bit equivalent to seeding
``T`` standalone :func:`run_broadcast` calls with the
:func:`repro._util.spawn_seeds` children of that master — batched and
looped experiments are directly comparable.

Reception semantics are pluggable (:mod:`repro.radio.channel`): the
default :class:`ClassicCollision` is the paper's model, and
:class:`CollisionDetection`, :class:`ErasureChannel`, and
:class:`AdversarialJamming` open feedback-, loss-, and fault-model
workloads on the same engine::

    run_broadcast_batch(g, DecayProtocol(), trials=256, seed=0,
                        channel=ErasureChannel(0.2))
"""

from repro.radio.aloha import AlohaProtocol
from repro.radio.broadcast import (
    BatchBroadcastResult,
    BroadcastResult,
    MemoryBudget,
    merge_batches,
    run_broadcast,
    run_broadcast_batch,
)
from repro.radio.channel import (
    CHANNELS,
    AdversarialJamming,
    ChannelModel,
    ChannelSpec,
    ClassicCollision,
    CollisionDetection,
    ErasureChannel,
    FaultSchedule,
    make_channel,
    parse_fault_spec,
)
from repro.radio.hop_analysis import HopTimeStudy, hop_time_study
from repro.radio.lower_bound import (
    BatchChainMeasurement,
    ChainMeasurement,
    measure_chain_broadcast,
    measure_chain_broadcast_batch,
    portal_times,
    rooted_core_graph,
)
from repro.radio.network import RadioNetwork
from repro.radio.protocols import (
    BroadcastProtocol,
    CollisionBackoffProtocol,
    CounterCoinProtocol,
    DecayProtocol,
    FloodingProtocol,
    RoundRobinProtocol,
)
from repro.radio.schedule import (
    BroadcastSchedule,
    StaticScheduleProtocol,
    synthesize_broadcast_schedule,
    synthesize_layer_schedule,
)
from repro.radio.spokesman_broadcast import SpokesmanBroadcastProtocol

__all__ = [
    "AlohaProtocol",
    "AdversarialJamming",
    "BatchBroadcastResult",
    "BatchChainMeasurement",
    "BroadcastProtocol",
    "BroadcastSchedule",
    "BroadcastResult",
    "CHANNELS",
    "ChainMeasurement",
    "ChannelModel",
    "ChannelSpec",
    "ClassicCollision",
    "CollisionBackoffProtocol",
    "CollisionDetection",
    "CounterCoinProtocol",
    "DecayProtocol",
    "ErasureChannel",
    "FaultSchedule",
    "FloodingProtocol",
    "MemoryBudget",
    "merge_batches",
    "RadioNetwork",
    "RoundRobinProtocol",
    "make_channel",
    "parse_fault_spec",
    "SpokesmanBroadcastProtocol",
    "StaticScheduleProtocol",
    "measure_chain_broadcast",
    "measure_chain_broadcast_batch",
    "portal_times",
    "rooted_core_graph",
    "run_broadcast",
    "run_broadcast_batch",
    "synthesize_broadcast_schedule",
    "synthesize_layer_schedule",
    "HopTimeStudy",
    "hop_time_study",
]
