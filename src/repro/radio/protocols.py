"""Broadcast protocol interface and the classic baselines.

A protocol decides, per round, which *informed* processors transmit.  Two
knowledge models appear in the experiments:

* **distributed** protocols (:class:`FloodingProtocol`,
  :class:`RoundRobinProtocol`, :class:`DecayProtocol`) use only a node's own
  informed state, its id, the round number and global constants (``n``) —
  the model under which the Section 5 lower bound holds;
* **centralized** protocols (:class:`~repro.radio.spokesman_broadcast.SpokesmanBroadcastProtocol`)
  are scheduling genies with full topology knowledge — they *upper-bound*
  what any distributed protocol could do, which is exactly the role the
  wireless-expansion positive results play.

Batched execution
-----------------
Every protocol speaks one trial-vectorized interface: :meth:`reset_batch`
prepares ``T`` independent per-trial streams,
:meth:`~BroadcastProtocol.transmitters_batch` maps an ``(n, T)`` informed
matrix to an ``(n, T)`` transmit matrix, :meth:`select_trials` drops the
state of trials the dense engine compacts away, and
:meth:`channel_feedback_batch` receives the channel's ``(n, T)`` feedback.
Only ``transmitters_batch`` is required; the rest default to no-ops.
Column ``t`` must behave like a standalone run driven by trial ``t``'s
generator alone — the batch ≡ ``T`` standalone runs contract.  The
built-in baselines meet it with counter-based randomness; those that set
:attr:`~BroadcastProtocol.words_native` also run on the packed-bitset
engine, and every other protocol runs dense.  A class still defining a
retired single-run hook (``reset``, ``transmitters``,
``channel_feedback``) is rejected with ``TypeError`` rather than
silently ignored (:func:`legacy_hooks_specialized`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro._util import (
    ceil_log2,
    counter_coins,
    counter_uniforms,
    derive_keys,
)
from repro.radio.network import RadioNetwork

__all__ = [
    "BroadcastProtocol",
    "CollisionBackoffProtocol",
    "CounterCoinProtocol",
    "DecayProtocol",
    "FloodingProtocol",
    "RoundRobinProtocol",
]

_RETIRED_HOOKS = ("reset", "transmitters", "channel_feedback")


def legacy_hooks_specialized(protocol: "BroadcastProtocol") -> bool:
    """True when ``protocol``'s class defines a retired single-run hook
    (``reset``, ``transmitters`` or ``channel_feedback``).

    The engine drives only the batch hooks, so such a definition would be
    silently bypassed; :func:`~repro.radio.broadcast.run_broadcast_batch`
    rejects the protocol with a ``TypeError`` instead.
    """
    return any(
        name in cls.__dict__
        for cls in type(protocol).__mro__
        for name in _RETIRED_HOOKS
    )


class BroadcastProtocol(ABC):
    """Transmission-scheduling policy for single-message broadcast."""

    #: Human-readable protocol name (used in experiment tables).
    name: str = "abstract"

    #: Whether :meth:`transmitters_words` natively implements this protocol
    #: on packed uint64 trial words.  Protocols without it run on the dense
    #: engine.
    words_native: bool = False

    def reset_batch(self, network: RadioNetwork, source: int, rngs) -> None:
        """Prepare per-run state for ``len(rngs)`` independent trials
        (default: none).  Trial ``t`` draws only from ``rngs[t]``."""

    @abstractmethod
    def transmitters_batch(
        self, round_index: int, informed: np.ndarray, network: RadioNetwork
    ) -> np.ndarray:
        """``(n, T)`` bool transmit matrix for ``T`` trials in this round.

        Column ``t`` must equal what trial ``t``'s standalone run would
        transmit given ``informed[:, t]``.  The runner intersects the
        result with ``informed`` — a protocol can never transmit a message
        a node does not hold.
        """

    def transmitters_words(
        self,
        round_index: int,
        informed_words: np.ndarray,
        network: RadioNetwork,
        rows: np.ndarray | None = None,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(n, W)`` packed transmit words for the bitset engine.

        Bit ``t % 64`` of word column ``t // 64`` must equal column ``t``
        of :meth:`transmitters_batch` on the unpacked informed matrix —
        except where the engine masks anyway: ``rows`` (int node ids) and
        ``active`` (bool ``(T,)`` trial mask) are the engine's guarantee
        that bits outside ``rows × active`` will be ANDed away (only
        informed nodes transmit; completed trials are frozen), so a
        protocol may leave them zero and skip the work.  Only called when
        :attr:`words_native` is set.
        """
        raise NotImplementedError(
            f"protocol {self.name!r} has no native packed-word face"
        )

    def select_trials(self, keep: np.ndarray) -> None:
        """Drop per-trial state for trials not in ``keep`` (default: none).

        The dense engine compacts completed trials out of the working set;
        ``keep`` is a bool mask over the *current* trial columns.
        """

    def channel_feedback_batch(
        self, round_index: int, feedback: np.ndarray, network: RadioNetwork
    ) -> None:
        """Per-round channel feedback (default: ignored).

        Under a feedback-providing channel (e.g.
        :class:`~repro.radio.channel.CollisionDetection`) the runner calls
        this after every round with the channel's ``(n, T)`` feedback mask
        — the extra bit the classic model withholds.  Feedback-blind
        protocols inherit this no-op and behave identically under classic
        and collision-detection channels.
        """


class FloodingProtocol(BroadcastProtocol):
    """Everyone who knows the message shouts every round.

    On the ``C⁺`` example this deadlocks after round one (all collisions) —
    the paper's opening observation.
    """

    name = "flooding"
    words_native = True

    def transmitters_batch(
        self, round_index: int, informed: np.ndarray, network: RadioNetwork
    ) -> np.ndarray:
        return informed.copy()

    def transmitters_words(
        self,
        round_index: int,
        informed_words: np.ndarray,
        network: RadioNetwork,
        rows: np.ndarray | None = None,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        return informed_words.copy()


class RoundRobinProtocol(BroadcastProtocol):
    """Processor ``v`` transmits iff ``v ≡ round (mod n)``.

    Collision-free and deterministic, hence it always completes, but needs
    ``Θ(n)`` rounds per hop — the slow-but-safe baseline.
    """

    name = "round-robin"
    words_native = True

    def transmitters_batch(
        self, round_index: int, informed: np.ndarray, network: RadioNetwork
    ) -> np.ndarray:
        mask = np.zeros_like(informed)
        mask[round_index % network.n, :] = True
        return mask & informed

    def transmitters_words(
        self,
        round_index: int,
        informed_words: np.ndarray,
        network: RadioNetwork,
        rows: np.ndarray | None = None,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        mask = np.zeros_like(informed_words)
        v = round_index % network.n
        mask[v, :] = informed_words[v, :]
        return mask


class CounterCoinProtocol(BroadcastProtocol):
    """Base for protocols whose transmitters are independent Bernoulli
    coins with some per-round probability.

    Randomness is counter-based: :meth:`reset_batch` derives one 64-bit
    key per trial generator and each round's coin flips are
    ``counter_coins(key, round, node, p)`` — a pure function, so all
    trials' flips come from one ``(n, T)`` array op while agreeing bit
    for bit with per-trial standalone runs.  Subclasses implement
    :meth:`transmission_probability`.
    """

    words_native = True

    def reset_batch(self, network: RadioNetwork, source: int, rngs) -> None:
        self._keys = derive_keys(rngs)

    def select_trials(self, keep: np.ndarray) -> None:
        self._keys = self._keys[keep]

    @abstractmethod
    def transmission_probability(self, round_index: int) -> float:
        """Probability with which each informed node transmits this round."""

    def transmitters_batch(
        self, round_index: int, informed: np.ndarray, network: RadioNetwork
    ) -> np.ndarray:
        coins = counter_coins(
            self._keys,
            round_index,
            informed.shape[0],
            self.transmission_probability(round_index),
        )
        return coins & informed

    def transmitters_words(
        self,
        round_index: int,
        informed_words: np.ndarray,
        network: RadioNetwork,
        rows: np.ndarray | None = None,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        from repro.radio.bitset import packed_counter_coins

        if rows is None:
            # Only informed nodes can transmit — skip the hash elsewhere.
            rows = np.flatnonzero(informed_words.any(axis=1))
        coins = packed_counter_coins(
            self._keys,
            round_index,
            informed_words.shape[0],
            self.transmission_probability(round_index),
            rows=rows,
            active=active,
        )
        coins &= informed_words
        return coins


class DecayProtocol(CounterCoinProtocol):
    """The Bar-Yehuda–Goldreich–Itai Decay protocol [5].

    Time is divided into phases of ``k = ⌈log₂ n⌉ + 1`` rounds; in round
    ``i`` of each phase (``i = 0..k−1``) every informed processor transmits
    independently with probability ``2^{-i}``.  Whatever the local collision
    picture, a node with an informed neighbour receives within ``O(log n)``
    phases w.h.p. — the classical mechanism the paper's Lemma 4.2 sampling
    argument mirrors.
    """

    name = "decay"

    def __init__(self, phase_length: int | None = None) -> None:
        self.phase_length = phase_length

    def _resolve_phase_length(self, network: RadioNetwork) -> int:
        return (
            self.phase_length
            if self.phase_length is not None
            else ceil_log2(max(2, network.n)) + 1
        )

    def reset_batch(self, network: RadioNetwork, source: int, rngs) -> None:
        super().reset_batch(network, source, rngs)
        self._k = self._resolve_phase_length(network)

    def transmission_probability(self, round_index: int) -> float:
        return 2.0 ** (-(round_index % self._k))


class CollisionBackoffProtocol(BroadcastProtocol):
    """Congestion-sensing backoff that exploits collision-detection feedback.

    Decay probes every scale blindly because the classic channel gives no
    feedback.  Under :class:`~repro.radio.channel.CollisionDetection` each
    processor learns, per round it stays silent, whether it stood in a
    collision — a local congestion estimate.  Every processor keeps a
    backoff level ``ℓ_v`` (transmit probability ``2^{-ℓ_v}`` while
    informed) updated AIMD-style each round:

    * it transmitted → raise the level (self-throttle; a transmitter gets
      no feedback, so it pessimistically assumes contention),
    * silent and heard a collision → raise the level (congested
      neighbourhood),
    * silent and heard no collision → lower the level (quiet channel,
      speed back up).

    In quiet neighbourhoods levels fall to zero (every free round is
    used); in congested ones they climb until the contention resolves —
    the adaptive rate Decay sweeps blindly.  Under a feedback-less channel
    the hooks never fire, levels stay at zero, and the protocol
    degenerates to flooding — the feedback bit *is* the mechanism.

    Transmission coins follow the counter-based discipline: one uniform
    per ``(trial key, round, node)`` compared against the per-node
    probability, so batched and standalone runs agree bit for bit (levels
    evolve identically because feedback is a pure function of the
    transmit history).
    """

    name = "collision-backoff"

    def __init__(self, max_level: int | None = None) -> None:
        self.max_level = max_level

    def _resolve_max_level(self, network: RadioNetwork) -> int:
        return (
            self.max_level
            if self.max_level is not None
            else ceil_log2(max(2, network.n)) + 1
        )

    def reset_batch(self, network: RadioNetwork, source: int, rngs) -> None:
        self._keys = derive_keys(rngs)
        self._levels = np.zeros((network.n, len(rngs)), dtype=np.int16)
        self._last_mask = np.zeros((network.n, len(rngs)), dtype=bool)
        self._cap = self._resolve_max_level(network)

    def select_trials(self, keep: np.ndarray) -> None:
        self._keys = self._keys[keep]
        self._levels = self._levels[:, keep]
        self._last_mask = self._last_mask[:, keep]

    def transmitters_batch(
        self, round_index: int, informed: np.ndarray, network: RadioNetwork
    ) -> np.ndarray:
        uniforms = counter_uniforms(self._keys, round_index, informed.shape[0])
        coins = uniforms < np.ldexp(1.0, -self._levels)
        self._last_mask = coins & informed
        return self._last_mask

    def channel_feedback_batch(
        self, round_index: int, feedback: np.ndarray, network: RadioNetwork
    ) -> None:
        raised = np.minimum(self._levels + 1, self._cap)
        eased = np.maximum(self._levels - 1, 0)
        self._levels = np.where(
            feedback | self._last_mask, raised, eased
        ).astype(np.int16)
