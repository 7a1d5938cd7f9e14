"""Per-hop timing statistics for the Section 5 concentration argument.

The proof of the ``Ω(D·log(n/D))`` bound treats the portal-to-portal times
``R_1, …, R_{D/2}`` as i.i.d. random variables, each ``Ω(log(n/D))`` with
constant probability, and applies a Chernoff bound to get the
high-probability statement.  This module measures the empirical ``R_i``
distribution over repeated runs so the experiments can check both
ingredients: the per-hop location (mean ≈ ``Θ(log 2s)``) and the
concentration of the sum (relative spread shrinking with the number of
hops, as independence predicts).

Repetitions run through the batched broadcast engine: with the default
``trials_per_chain=1`` every repetition owns an independent chain (fresh
portal choices — the proof's full probability space); raising
``trials_per_chain`` amortizes the simulation across protocol trials that
share a chain, trading a little portal diversity for an
order-of-magnitude throughput win on large studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, spawn_seeds
from repro.radio.lower_bound import measure_chain_broadcast_batch

__all__ = ["HopTimeStudy", "hop_time_study"]


@dataclass(frozen=True)
class HopTimeStudy:
    """Empirical hop-time distribution over repeated chain broadcasts.

    Attributes
    ----------
    s, num_layers:
        Chain parameters.
    hop_times:
        ``(repetitions, num_layers)`` array of per-hop round counts
        ``R_i`` (time between consecutive portal arrivals).
    totals:
        Per-repetition total rounds to the last portal (``Σ_i R_i``).
    """

    s: int
    num_layers: int
    hop_times: np.ndarray
    totals: np.ndarray

    @property
    def hop_mean(self) -> float:
        """Mean hop cost — the proof's ``Ω(log(n/D))`` location."""
        return float(self.hop_times.mean())

    @property
    def hop_std(self) -> float:
        """Across-hops-and-runs standard deviation."""
        return float(self.hop_times.std(ddof=1))

    @property
    def total_relative_spread(self) -> float:
        """``std/mean`` of the total — shrinks as hops accumulate if the
        ``R_i`` concentrate (the Chernoff mechanism)."""
        return float(self.totals.std(ddof=1) / self.totals.mean())

    def hop_autocorrelation(self) -> float:
        """Lag-1 correlation between consecutive hops within a run.

        Near zero if the ``R_i`` behave independently, as the proof
        assumes (portals are fresh uniform choices per layer).
        """
        a = self.hop_times[:, :-1].ravel()
        b = self.hop_times[:, 1:].ravel()
        if a.size < 2 or a.std() == 0 or b.std() == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])


def _measure_chain(
    s: int,
    num_layers: int,
    protocol_factory,
    trials: int,
    seed: int,
    chain_seed: int,
    channel,
    max_rounds: int | None = None,
):
    """One chain's batched measurement — module-level (and hence picklable)
    so the runtime executor can schedule chains across worker processes."""
    return measure_chain_broadcast_batch(
        s,
        num_layers,
        protocol_factory(),
        trials=trials,
        seed=seed,
        chain_seed=chain_seed,
        channel=channel() if channel is not None else None,
        max_rounds=max_rounds,
    )


def hop_time_study(
    s: int | None = None,
    num_layers: int | None = None,
    protocol_factory=None,
    repetitions: int = 10,
    seed=None,
    trials_per_chain: int | None = None,
    channel=None,
    executor=None,
    scenario=None,
    max_rounds: int | None = None,
) -> HopTimeStudy:
    """Run ``repetitions`` chain broadcasts and collect hop times.

    The spec-first form takes a ``scenario`` whose graph is the ``chain``
    family — its ``s``/``layers`` arguments, protocol, channel, seed, and
    ``max_rounds`` configure the study, and its ``trials`` field sets the
    default ``trials_per_chain`` (a workload segment, even a pinned
    ``broadcast(source=N)``, is rejected: the study always broadcasts
    from the chain root)::

        hop_time_study(
            scenario=Scenario.from_string("chain(8, 6) | decay | erasure(0.1)"),
            repetitions=40,
        )

    The positional form (``s``, ``num_layers``, ``protocol_factory`` — a
    fresh-protocol callable, since protocols hold per-run state) remains
    for direct engine users.  Repetitions are grouped into
    ``repetitions / trials_per_chain`` chains; each chain gets fresh portal
    choices and each of its trials an independent protocol stream, all
    advanced together by the batched engine.  The default
    ``trials_per_chain=1`` matches the proof's probability space exactly
    (every repetition an independent chain).  ``channel`` (a
    :class:`~repro.radio.ChannelSpec` or other zero-argument factory)
    selects the reception model per chain.

    ``executor`` (a :class:`repro.runtime.Executor` or int job count)
    schedules chains across worker processes; every chain owns derived
    seeds, so the assembled study is bit-for-bit identical to the serial
    run.  Parallel execution needs picklable factories — a protocol class
    and e.g. :class:`repro.radio.ChannelSpec` rather than closures.
    """
    if scenario is not None:
        if s is not None or num_layers is not None or protocol_factory is not None:
            raise TypeError(
                "hop_time_study() takes either a scenario or the positional "
                "(s, num_layers, protocol_factory) form, not both"
            )
        if scenario.graph.family != "chain" or len(scenario.graph.args) < 2:
            raise ValueError(
                "hop_time_study needs a chain-family scenario, e.g. "
                "'chain(8, 6) | decay | classic'; got "
                f"{scenario.graph.describe()!r}"
            )
        if scenario.workload.to_dict() != {"name": "broadcast"}:
            raise ValueError(
                "hop_time_study always broadcasts from the chain root; "
                "drop the scenario's workload segment (a pinned "
                "broadcast(source=N) included)"
            )
        s, num_layers = (int(a) for a in scenario.graph.args[:2])
        protocol_factory = scenario.protocol.build
        if channel is None:
            channel = scenario.channel
        if seed is None:
            seed = scenario.seed
        if trials_per_chain is None:
            trials_per_chain = scenario.trials
        if max_rounds is None:
            max_rounds = scenario.max_rounds
    if s is None or num_layers is None or protocol_factory is None:
        raise TypeError(
            "hop_time_study() needs s, num_layers, and protocol_factory "
            "(or a chain-family scenario)"
        )
    if trials_per_chain is None:
        trials_per_chain = 1
    if repetitions < 2:
        raise ValueError("need at least 2 repetitions for spread statistics")
    if trials_per_chain < 1:
        raise ValueError("trials_per_chain must be >= 1")
    if repetitions % trials_per_chain:
        raise ValueError(
            f"repetitions ({repetitions}) must be a multiple of "
            f"trials_per_chain ({trials_per_chain})"
        )
    chains = repetitions // trials_per_chain
    seeds = spawn_seeds(as_rng(seed), 2 * chains)
    calls = [
        dict(
            s=s,
            num_layers=num_layers,
            protocol_factory=protocol_factory,
            trials=trials_per_chain,
            seed=seeds[2 * c],
            chain_seed=seeds[2 * c + 1],
            channel=channel,
            max_rounds=max_rounds,
        )
        for c in range(chains)
    ]
    hops = np.zeros((repetitions, num_layers), dtype=np.int64)
    totals = np.zeros(repetitions, dtype=np.int64)
    if executor is None:
        measured = ((c, _measure_chain(**kw)) for c, kw in enumerate(calls))
    else:
        from repro.runtime import as_executor

        measured = as_executor(executor).imap(_measure_chain, calls)
    for c, m in measured:
        if not m.completed.all():
            raise RuntimeError(
                f"broadcast did not complete (chain {c}); raise max_rounds"
            )
        lo = c * trials_per_chain
        hi = lo + trials_per_chain
        hops[lo:hi] = m.per_hop_rounds.T
        totals[lo:hi] = m.portal_rounds[-1]
    return HopTimeStudy(
        s=s, num_layers=num_layers, hop_times=hops, totals=totals
    )
