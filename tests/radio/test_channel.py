"""Channel layer: classic equivalence proofs, erasure RNG discipline,
collision-detection feedback, and fault-schedule semantics.

The two anchor invariants the satellite tests pin down:

* ``ClassicCollision`` reproduces the legacy ``RadioNetwork.step`` outputs
  exactly — single-trial ``(n,)`` and batched ``(n, T)`` alike;
* ``ErasureChannel(p=0)`` is bit-for-bit identical to the classic channel
  across whole seeded broadcast runs.
"""

import numpy as np
import pytest

from repro._util import as_rng, counter_coins, derive_keys, spawn_seeds
from repro.graphs import Graph, hypercube, path_graph, random_regular
from repro.radio import (
    AdversarialJamming,
    ClassicCollision,
    CollisionBackoffProtocol,
    CollisionDetection,
    DecayProtocol,
    ErasureChannel,
    FaultSchedule,
    FloodingProtocol,
    RadioNetwork,
    SpokesmanBroadcastProtocol,
    StaticScheduleProtocol,
    make_channel,
    parse_fault_spec,
    run_broadcast,
    run_broadcast_batch,
    synthesize_broadcast_schedule,
)

from reference_sim import step_naive  # tests/ is on sys.path (conftest.py)

MASTER = 424242


def _random_masks(n, trials, seed):
    gen = np.random.default_rng(seed)
    return gen.random((n, trials)) < 0.4


class TestClassicEquivalence:
    """ClassicCollision must be bit-for-bit the pre-channel engine."""

    def test_single_trial_matches_legacy_formula(self):
        g = hypercube(5)
        net = RadioNetwork(g)
        legacy = RadioNetwork(g, channel=ClassicCollision())
        for seed in range(5):
            mask = _random_masks(g.n, 1, seed)[:, 0]
            counts = g.adjacency @ mask.astype(np.int32)
            expected = (counts == 1) & ~mask
            assert (net.step(mask) == expected).all()
            assert (legacy.step(mask, round_index=seed) == expected).all()
            assert (net.step(mask) == step_naive(net, mask)).all()

    def test_batch_matches_legacy_formula(self):
        g = random_regular(64, 6, rng=0)
        net = RadioNetwork(g, channel=ClassicCollision())
        mat = _random_masks(g.n, 9, 3)
        out = net.step(mat, round_index=7)
        counts = g.adjacency @ mat.astype(np.int32)
        assert (out == ((counts == 1) & ~mat)).all()
        for t in range(mat.shape[1]):
            assert (out[:, t] == net.step(mat[:, t])).all()

    def test_seeded_run_matches_default_channel(self):
        g = hypercube(5)
        base = run_broadcast_batch(g, DecayProtocol(), trials=8, seed=MASTER)
        classic = run_broadcast_batch(
            g, DecayProtocol(), trials=8, seed=MASTER, channel=ClassicCollision()
        )
        assert (base.rounds == classic.rounds).all()
        assert (base.transmissions == classic.transmissions).all()
        assert (base.first_informed_round == classic.first_informed_round).all()
        assert (base.informed_per_round == classic.informed_per_round).all()


class TestErasureChannel:
    def test_p_zero_is_classic_bit_for_bit(self):
        g = hypercube(5)
        base = run_broadcast_batch(g, DecayProtocol(), trials=8, seed=MASTER)
        erased = run_broadcast_batch(
            g, DecayProtocol(), trials=8, seed=MASTER, channel=ErasureChannel(0.0)
        )
        assert (base.rounds == erased.rounds).all()
        assert (base.transmissions == erased.transmissions).all()
        assert (base.first_informed_round == erased.first_informed_round).all()
        single = run_broadcast(
            g,
            DecayProtocol(),
            seed=spawn_seeds(as_rng(MASTER), 8)[0],
            channel=ErasureChannel(0.0),
        )
        assert single.rounds == int(base.rounds[0])

    @pytest.mark.parametrize(
        "factory",
        [
            lambda g: DecayProtocol(),
            # The genies draw no randomness: erasures are what make their
            # trial columns differ.
            lambda g: SpokesmanBroadcastProtocol(),
            lambda g: StaticScheduleProtocol(synthesize_broadcast_schedule(g)),
        ],
        ids=["decay", "spokesman", "static-schedule"],
    )
    def test_batch_matches_seeded_loop(self, factory):
        g = hypercube(5)
        batch = run_broadcast_batch(
            g, factory(g), trials=6, seed=MASTER, channel=ErasureChannel(0.25),
            max_rounds=400,
        )
        assert len({tuple(c) for c in batch.first_informed_round.T}) > 1
        for t, seed in enumerate(spawn_seeds(as_rng(MASTER), 6)):
            single = run_broadcast(
                g, factory(g), seed=seed, channel=ErasureChannel(0.25),
                max_rounds=400,
            )
            assert single.rounds == int(batch.rounds[t])
            assert single.transmissions == int(batch.transmissions[t])
            assert (
                single.first_informed_round == batch.first_informed_round[:, t]
            ).all()

    def test_erasure_slows_broadcast(self):
        g = random_regular(128, 8, rng=0)
        clean = run_broadcast_batch(g, DecayProtocol(), trials=16, seed=1)
        lossy = run_broadcast_batch(
            g, DecayProtocol(), trials=16, seed=1, channel=ErasureChannel(0.4)
        )
        assert lossy.mean_rounds > clean.mean_rounds

    def test_p_one_delivers_nothing(self):
        g = path_graph(4)
        res = run_broadcast_batch(
            g,
            FloodingProtocol(),
            trials=2,
            seed=0,
            max_rounds=30,
            channel=ErasureChannel(1.0),
        )
        assert not res.completed.any()
        assert (res.first_informed_round[1:, :] == -1).all()

    def test_deliver_matches_the_full_coin_lattice(self):
        # Coins are hashed only at received cells; the bits must be those
        # of the full (n, T) lattice there.
        g = random_regular(64, 6, rng=0)
        for trials in (1, 7):
            channel = ErasureChannel(0.3)
            net = RadioNetwork(g, channel=channel)
            rngs = [as_rng(s) for s in spawn_seeds(MASTER, trials)]
            channel.reset(net, rngs)
            keys = derive_keys([as_rng(s) for s in spawn_seeds(MASTER, trials)])
            mat = _random_masks(g.n, trials, trials)
            mask = mat if trials > 1 else mat[:, 0]
            for round_index in (0, 5):
                received = ClassicCollision().deliver(round_index, mask, net)
                dropped = counter_coins(keys, round_index, g.n, 0.3)
                expected = received & ~(dropped if trials > 1 else dropped[:, 0])
                out = channel.deliver(round_index, mask, net)
                assert out.shape == mask.shape
                assert np.array_equal(out, expected)
                assert (received & ~out).any()

    def test_requires_reset_before_direct_step(self):
        net = RadioNetwork(path_graph(3), channel=ErasureChannel(0.5))
        with pytest.raises(RuntimeError, match="reset"):
            net.step(np.zeros(3, dtype=bool))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            ErasureChannel(-0.1)
        with pytest.raises(ValueError):
            ErasureChannel(1.5)


class TestCollisionDetection:
    def test_reception_identical_for_blind_protocols(self):
        g = hypercube(5)
        base = run_broadcast_batch(g, DecayProtocol(), trials=8, seed=MASTER)
        cd = run_broadcast_batch(
            g, DecayProtocol(), trials=8, seed=MASTER, channel=CollisionDetection()
        )
        assert (base.rounds == cd.rounds).all()
        assert (base.first_informed_round == cd.first_informed_round).all()

    def test_feedback_marks_silent_collision_victims(self):
        # Star: both leaves transmit -> the centre is a collision victim.
        g = path_graph(3)  # 0 - 1 - 2; vertex 1 is the centre
        net = RadioNetwork(g, channel=CollisionDetection())
        mask = np.array([True, False, True])
        received = net.step(mask)
        assert not received.any()
        assert (net.channel.feedback == np.array([False, True, False])).all()

    def test_backoff_protocol_completes_and_matches_loop(self):
        g = hypercube(5)
        batch = run_broadcast_batch(
            g,
            CollisionBackoffProtocol(),
            trials=6,
            seed=MASTER,
            channel=CollisionDetection(),
            max_rounds=5000,
        )
        assert batch.completed.all()
        for t, seed in enumerate(spawn_seeds(as_rng(MASTER), 6)):
            single = run_broadcast(
                g,
                CollisionBackoffProtocol(),
                seed=seed,
                channel=CollisionDetection(),
                max_rounds=5000,
            )
            assert single.rounds == int(batch.rounds[t])
            assert (
                single.first_informed_round == batch.first_informed_round[:, t]
            ).all()


class TestFaultSchedule:
    def test_parse_round_windows_and_targets(self):
        sched = parse_fault_spec("jam@0-9:0,1,2;crash@5:7;down@3:0-1,2-3;up@8:0-1")
        assert sched.jam_windows == ((0, 9, (0, 1, 2)),)
        assert sched.crashes == ((5, (7,)),)
        assert sched.edge_events == (
            (3, False, ((0, 1), (2, 3))),
            (8, True, ((0, 1),)),
        )

    def test_parse_single_round_jam(self):
        sched = parse_fault_spec("jam@4:3")
        assert sched.jam_windows == ((4, 4, (3,)),)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fault_spec("jam:broken")
        with pytest.raises(ValueError):
            parse_fault_spec("melt@3:1")
        with pytest.raises(ValueError):
            parse_fault_spec("jam@9-2:1")

    def test_masks(self):
        sched = parse_fault_spec("jam@2-3:1;crash@4:0")
        assert not sched.jammed_mask(1, 3).any()
        assert sched.jammed_mask(2, 3)[1]
        assert not sched.crashed_mask(3, 3).any()
        assert sched.crashed_mask(4, 3)[0]
        assert sched.ever_crashed_mask(3)[0]
        assert not FaultSchedule().jam_windows and FaultSchedule().is_empty


class TestAdversarialJamming:
    def test_jammed_vertices_hear_nothing_during_window(self):
        g = hypercube(5)
        neighbours = [1, 2, 4, 8, 16]
        channel = AdversarialJamming(
            FaultSchedule(jam_windows=((0, 5, tuple(neighbours)),))
        )
        res = run_broadcast_batch(
            g, DecayProtocol(), trials=4, seed=0, channel=channel, max_rounds=4000
        )
        assert res.completed.all()
        arrivals = res.first_informed_round[neighbours, :]
        assert arrivals.min() > 5

    def test_crashed_vertices_excluded_from_coverage_and_energy(self):
        g = hypercube(5)
        channel = AdversarialJamming(FaultSchedule(crashes=((0, (31,)),)))
        res = run_broadcast_batch(
            g, DecayProtocol(), trials=4, seed=0, channel=channel, max_rounds=4000
        )
        assert res.completed.all()
        assert (res.first_informed_round[31, :] == -1).all()
        # Crash the source itself in a flooding run: zero energy is spent.
        ch2 = AdversarialJamming(FaultSchedule(crashes=((0, (0,)),)))
        stuck = run_broadcast_batch(
            g, FloodingProtocol(), trials=2, seed=0, channel=ch2, max_rounds=20
        )
        assert (stuck.transmissions == 0).all()
        assert not stuck.completed.any()

    def test_edge_down_partitions_and_up_heals(self):
        g = path_graph(4)
        cut = run_broadcast_batch(
            g,
            FloodingProtocol(),
            trials=2,
            seed=0,
            channel=AdversarialJamming("down@0:2-3"),
            max_rounds=40,
        )
        assert not cut.completed.any()
        healed = run_broadcast_batch(
            g,
            FloodingProtocol(),
            trials=2,
            seed=0,
            channel=AdversarialJamming("down@0:2-3;up@10:2-3"),
            max_rounds=40,
        )
        assert healed.completed.all()
        assert (healed.first_informed_round[3, :] > 10).all()

    def test_empty_schedule_is_classic(self):
        g = hypercube(4)
        base = run_broadcast_batch(g, DecayProtocol(), trials=4, seed=MASTER)
        faulty = run_broadcast_batch(
            g,
            DecayProtocol(),
            trials=4,
            seed=MASTER,
            channel=AdversarialJamming(FaultSchedule()),
        )
        assert (base.rounds == faulty.rounds).all()
        assert (base.first_informed_round == faulty.first_informed_round).all()


class TestMakeChannel:
    def test_registry_names(self):
        assert isinstance(make_channel("classic"), ClassicCollision)
        assert isinstance(make_channel("collision-detection"), CollisionDetection)
        assert isinstance(make_channel("cd"), CollisionDetection)
        assert isinstance(make_channel("erasure", erasure_p=0.3), ErasureChannel)
        assert make_channel("erasure", erasure_p=0.3).p == 0.3
        jam = make_channel("jamming", faults="crash@1:0")
        assert isinstance(jam, AdversarialJamming)
        assert jam.schedule.crashes == ((1, (0,)),)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown channel"):
            make_channel("telepathy")


class TestFaultValidation:
    def test_out_of_range_vertices_rejected_at_reset(self):
        g = path_graph(4)
        for spec in ("jam@0-2:99", "crash@0:-1", "down@0:0-9"):
            with pytest.raises(ValueError, match="out of range"):
                run_broadcast_batch(
                    g,
                    FloodingProtocol(),
                    trials=2,
                    seed=0,
                    channel=AdversarialJamming(spec),
                    max_rounds=5,
                )

    def test_self_loop_edge_event_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            FaultSchedule(edge_events=((0, False, ((2, 2),)),)).validate(4)

    def test_up_events_past_dtype_bound_do_not_overflow(self):
        # Base star has hub degree 127 (int8 counts); up events raise it to
        # 257, where an int8 product would wrap 257 -> 1 and fabricate a
        # reception at the collided hub.
        hub_degree, total = 127, 257
        g = Graph(total + 1, [(0, v) for v in range(1, hub_degree + 1)])
        extra = ",".join(f"0-{v}" for v in range(hub_degree + 1, total + 1))
        channel = AdversarialJamming(parse_fault_spec(f"up@0:{extra}"))
        net = RadioNetwork(g, channel=channel)
        channel.reset(net, [0])
        transmitting = np.zeros(g.n, dtype=bool)
        transmitting[1:] = True
        received = net.step(transmitting, round_index=0)
        assert not received[0]


class TestDeliverAtRows:
    """``deliver(..., rows)`` is the ``rows`` restriction of the full
    delivery on every channel, for one trial and a batch, and leaves the
    per-round state (collision feedback) full."""

    CHANNELS = {
        "classic": ClassicCollision,
        "cd": CollisionDetection,
        "erasure": lambda: ErasureChannel(0.3),
        "jamming": lambda: AdversarialJamming(
            parse_fault_spec("jam@0-9:1,2;crash@2:5;down@1:0-1,3-7")
        ),
        # Edges come back and new ones appear: degrees pass the base graph's.
        "jamming-up": lambda: AdversarialJamming(
            parse_fault_spec("down@1:0-1,3-7;up@2:0-1,0-9,0-17,9-17")
        ),
    }

    @pytest.mark.parametrize("trials", [None, 1, 15, 17])
    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_restriction_of_full_delivery(self, name, trials):
        graph = random_regular(40, 4, rng=2)
        gen = np.random.default_rng(7)
        channel = self.CHANNELS[name]()
        net = RadioNetwork(graph, channel=channel)
        channel.reset(net, [as_rng(s) for s in spawn_seeds(as_rng(3), trials or 1)])
        shape = (graph.n,) if trials is None else (graph.n, trials)
        for round_index in range(4):
            mask = gen.random(shape) < 0.3
            full = net.step(mask, round_index)
            feedback = channel.feedback
            for rows in (
                np.arange(graph.n),
                np.flatnonzero(gen.random(graph.n) < 0.2),
                np.array([graph.n - 1, 0, 0]),
                np.zeros(0, dtype=np.int64),
            ):
                got = net.step(mask, round_index, rows)
                assert np.array_equal(got, full[rows]), (name, round_index)
                if feedback is not None:
                    assert np.array_equal(channel.feedback, feedback)

    def test_channel_without_rows_runs_in_full(self):
        """A channel whose ``deliver`` predates ``rows`` still runs: the
        network calls it without the argument, and the dense frontier
        folds every row for it instead of the live ones."""

        class Legacy(ClassicCollision):
            def deliver(self, round_index, transmitting, network):
                self.calls += 1
                return super().deliver(round_index, transmitting, network)

        graph = random_regular(64, 4, rng=1)
        legacy = Legacy()
        legacy.calls = 0
        kwargs = dict(trials=5, seed=3, engine="dense", workload="gossip(k=2)")
        got = run_broadcast_batch(graph, DecayProtocol(), channel=legacy, **kwargs)
        want = run_broadcast_batch(graph, DecayProtocol(), **kwargs)
        assert legacy.calls == int(got.rounds.max())
        for field in ("rounds", "first_informed_round", "transmissions"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
