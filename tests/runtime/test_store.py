"""Content-addressed result store: keys, round trips, corruption recovery."""

import json
import os

import numpy as np
import pytest

from repro.analysis import run_sweep
from repro.radio import ChannelSpec, DecayProtocol
from repro.radio.lower_bound import measure_chain_broadcast_batch
from repro.runtime import ResultStore, canonical_dumps, task_key


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache", salt="test-salt")


def named_task(x, seed):
    return x + seed


class TestTaskKey:
    def test_stable_across_dict_order(self):
        a = task_key("m.f", {"a": 1, "b": 2}, 3, "s")
        b = task_key("m.f", {"b": 2, "a": 1}, 3, "s")
        assert a == b

    def test_sensitive_to_every_component(self):
        base = task_key("m.f", {"a": 1}, 3, "s")
        assert task_key("m.g", {"a": 1}, 3, "s") != base
        assert task_key("m.f", {"a": 2}, 3, "s") != base
        assert task_key("m.f", {"a": 1}, 4, "s") != base
        assert task_key("m.f", {"a": 1}, 3, "other") != base

    def test_seed_lists_address_batches(self):
        assert task_key("m.f", {}, [1, 2], "s") != task_key("m.f", {}, [2, 1], "s")
        assert task_key("m.f", {}, [3], "s") != task_key("m.f", {}, 3, "s")

    def test_callable_resolved_to_qualname(self):
        assert task_key(named_task, {}, 0, "s") == task_key(
            f"{named_task.__module__}.named_task", {}, 0, "s"
        )

    def test_lambda_rejected(self):
        with pytest.raises(ValueError, match="stable import path"):
            task_key(lambda x: x, {}, 0, "s")

    def test_dataclass_and_array_params_are_addressable(self):
        spec = ChannelSpec("erasure", 0.2)
        arr = np.arange(4)
        key = task_key("m.f", {"channel": spec, "mask": arr}, 0, "s")
        assert key == task_key("m.f", {"channel": spec, "mask": arr.copy()}, 0, "s")
        assert key != task_key(
            "m.f", {"channel": ChannelSpec("erasure", 0.3), "mask": arr}, 0, "s"
        )

    def test_unaddressable_params_raise(self):
        with pytest.raises(TypeError, match="cannot persist"):
            canonical_dumps({"fn": object()})


class TestRoundTrip:
    def test_plain_payload(self, store):
        value = {"rounds": [1, 2, 3], "mean": 2.0, "tag": ("a", 1), "none": None}
        store.put("k" * 64, value)
        got = store.get("k" * 64)
        assert got == value
        assert isinstance(got["tag"], tuple)

    def test_numpy_and_dataclass_payload(self, store):
        m = measure_chain_broadcast_batch(
            4, 2, DecayProtocol(), trials=3, seed=0, chain_seed=1
        )
        key = store.key("repro.radio.lower_bound.measure_chain_broadcast_batch",
                        {"s": 4, "layers": 2}, 0)
        store.put(key, m)
        got = store.get(key)
        assert type(got) is type(m)
        assert got.s == m.s and got.trials == m.trials
        np.testing.assert_array_equal(got.rounds, m.rounds)
        assert got.rounds.dtype == m.rounds.dtype
        np.testing.assert_array_equal(got.portal_rounds, m.portal_rounds)

    def test_numpy_scalars_keep_dtype(self, store):
        store.put("s" * 64, {"x": np.int64(7), "y": np.float64(0.5)})
        got = store.get("s" * 64)
        assert got["x"] == 7 and got["x"].dtype == np.int64
        assert got["y"] == 0.5

    def test_miss_counts_and_raises(self, store):
        with pytest.raises(KeyError):
            store.get("0" * 64)
        assert (store.hits, store.misses) == (0, 1)
        store.put("0" * 64, 1)
        assert store.get("0" * 64) == 1
        assert (store.hits, store.misses) == (1, 1)


class TestCorruptionRecovery:
    def _entry_path(self, store, key):
        return os.path.join(store.objects_dir, key[:2], key + ".json")

    def test_truncated_json_is_a_miss_and_discarded(self, store):
        key = "a" * 64
        store.put(key, {"v": 1})
        with open(self._entry_path(store, key), "w") as fh:
            fh.write('{"key": "a')
        with pytest.raises(KeyError):
            store.get(key)
        assert not os.path.exists(self._entry_path(store, key))
        store.put(key, {"v": 2})  # recomputation re-populates cleanly
        assert store.get(key) == {"v": 2}

    def test_key_mismatch_is_a_miss(self, store):
        key, other = "b" * 64, "c" * 64
        store.put(key, {"v": 1})
        payload = open(self._entry_path(store, key)).read()
        os.makedirs(os.path.dirname(self._entry_path(store, other)), exist_ok=True)
        with open(self._entry_path(store, other), "w") as fh:
            fh.write(payload)  # entry stored under a foreign address
        with pytest.raises(KeyError):
            store.get(other)

    def test_missing_npz_sidecar_is_a_miss(self, store):
        key = "d" * 64
        store.put(key, {"arr": np.arange(5)})
        os.unlink(os.path.join(store.objects_dir, key[:2], key + ".npz"))
        with pytest.raises(KeyError):
            store.get(key)
        # The orphaned JSON document was discarded, not left to rot.
        assert not os.path.exists(self._entry_path(store, key))
        assert not store.contains(key)


class TestCrashMidWrite:
    """A writer killed at any point of ``put`` must never corrupt what a
    concurrent reader (or the next writer) sees — the multi-process
    safety contract the experiment service's workers rely on."""

    def _shard_dir(self, store, key):
        return os.path.join(store.objects_dir, key[:2])

    def test_orphaned_tmp_is_invisible_to_readers(self, store):
        key = "e" * 64
        store.put(key, {"arr": np.arange(4)})
        # A writer killed between mkstemp and os.replace leaves exactly
        # this: garbage under a .tmp name next to real entries.
        for name in ("deadbeef.tmp", "deadbeef.tmp.npz"):
            with open(os.path.join(self._shard_dir(store, key), name), "wb") as fh:
                fh.write(b'{"key": "partial')
        assert store.contains(key)
        np.testing.assert_array_equal(store.get(key)["arr"], np.arange(4))
        assert store.stats().entries == 1  # tmp junk is not an entry

    def test_sweep_removes_stale_tmp_but_not_fresh(self, store):
        key = "f" * 64
        store.put(key, 1)
        shard = self._shard_dir(store, key)
        stale = os.path.join(shard, "stale.tmp")
        fresh = os.path.join(shard, "fresh.tmp")
        for path in (stale, fresh):
            with open(path, "wb") as fh:
                fh.write(b"x")
        os.utime(stale, (0, 0))  # crashed long ago
        assert store.sweep_tmp() == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)  # could be a live writer's in-flight put
        assert store.sweep_tmp(max_age_seconds=0) == 1
        assert not os.path.exists(fresh)
        assert store.get(key) == 1  # real entries untouched throughout

    def test_crash_between_sidecar_and_document_is_a_miss(self, store):
        # put() lands the .npz sidecar before the .json document, so this
        # is the only observable intermediate state: sidecar present,
        # document absent.  It must read as a clean miss and heal on re-put.
        key = "9" * 64
        store.put(key, {"arr": np.arange(3)})
        os.unlink(os.path.join(self._shard_dir(store, key), key + ".json"))
        assert not store.contains(key)
        with pytest.raises(KeyError):
            store.get(key)
        store.put(key, {"arr": np.arange(3)})
        np.testing.assert_array_equal(store.get(key)["arr"], np.arange(3))

    def test_interrupted_put_cleans_its_tmp(self, store, monkeypatch):
        # A *graceful* failure mid-write (exception, not SIGKILL) must not
        # even leak the tmp file.
        calls = {"n": 0}
        real_replace = os.replace

        def failing_replace(src, dst):
            calls["n"] += 1
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            store.put("8" * 64, {"v": 1})
        monkeypatch.setattr(os, "replace", real_replace)
        assert calls["n"] == 1
        shard = self._shard_dir(store, "8" * 64)
        leftovers = [n for n in os.listdir(shard) if ".tmp" in n]
        assert leftovers == []
        assert not store.contains("8" * 64)


def _extremes_and_narrowable():
    cases = [np.array([True, False, True])]
    for dtype in (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64):
        info = np.iinfo(dtype)
        cases.append(np.array([info.min, 0, info.max], dtype=dtype))
        cases.append(np.array([0, 1, min(100, info.max)], dtype=dtype))
    cases += [
        np.array([-5, -1, 3], dtype=np.int64),
        np.array([-(2**40), 7], dtype=np.int64),
        np.array([1, -300, 2**20], dtype=">i8"),
        np.array([np.nan, -0.0, np.inf, 1.5], dtype=np.float32),
        np.array([np.nan, -0.0, -np.inf, 1e300], dtype=np.float64),
        np.array([1 + 2j, np.nan - 0.0j], dtype=np.complex128),
        np.array(np.int64(-3)),  # 0-d
        np.asfortranarray(np.arange(12, dtype=np.int32).reshape(3, 4)),
        np.zeros((0, 3), dtype=np.int64),  # last: ends exactly at the blob's end
    ]
    return cases


class TestArrayBlob:
    """Every entry's arrays live in one narrow ``uint8`` blob, the only
    member of the ``.npz`` sidecar; reads widen them back losslessly."""

    def _npz(self, store, key):
        return os.path.join(store.objects_dir, key[:2], key + ".npz")

    def _json(self, store, key):
        return os.path.join(store.objects_dir, key[:2], key + ".json")

    def test_round_trip_is_bit_and_dtype_identical(self, store):
        arrays = _extremes_and_narrowable()
        store.put("1" * 64, {"arrays": arrays})
        got = store.get("1" * 64)["arrays"]
        assert len(got) == len(arrays)
        for want, have in zip(arrays, got):
            assert have.dtype == want.dtype  # byte order included
            assert have.shape == want.shape
            assert np.ascontiguousarray(have).tobytes() == (
                np.ascontiguousarray(want).tobytes()
            )

    def test_empty_blob_round_trips(self, store):
        store.put("0" * 64, [np.zeros((0, 2), dtype=np.int64), np.zeros(0, bool)])
        got = store.get("0" * 64)
        assert [(a.dtype, a.shape) for a in got] == [
            (np.dtype(np.int64), (0, 2)), (np.dtype(bool), (0,))
        ]

    def test_returned_arrays_are_writeable_and_independent(self, store):
        arrays = _extremes_and_narrowable()
        store.put("2" * 64, arrays)
        got = store.get("2" * 64)
        for i, a in enumerate(got):
            assert a.flags.writeable and a.flags.owndata
            for b in got[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_sidecar_is_one_narrow_blob(self, store):
        key = "3" * 64
        store.put(key, {"rounds": np.arange(1000, dtype=np.int64)})
        with np.load(self._npz(store, key)) as znp:
            assert znp.files == ["blob"]
            blob = znp["blob"]
        assert blob.dtype == np.uint8 and blob.nbytes == 1000 * 2  # int16
        layout = json.loads(open(self._json(store, key)).read())["layout"]
        assert layout == [["<i8", "<i2", [1000]]]

    def test_service_result_keeps_int64(self, store):
        from repro.scenario import Scenario

        result = Scenario.from_string(
            "cycle(12) | decay | gossip(k=2) | trials=3 | seed=4"
        ).run()
        store.put("4" * 64, result)
        got = store.get("4" * 64)
        assert type(got) is type(result)
        for field in ("rounds", "first_informed_round"):
            want, have = getattr(result, field), getattr(got, field)
            assert have.dtype == want.dtype
            np.testing.assert_array_equal(have, want)

    def test_object_arrays_are_rejected_before_writing(self, store):
        key = "5" * 64
        with pytest.raises(TypeError, match="cannot persist"):
            store.put(key, {"x": np.array([1, "y"], dtype=object)})
        assert not os.path.exists(self._json(store, key))
        assert not os.path.exists(self._npz(store, key))
        with pytest.raises(KeyError):
            store.get(key)

    def _assert_miss_and_discarded(self, store, key, probe):
        if probe == "contains":
            assert not store.contains(key)
        else:
            with pytest.raises(KeyError):
                store.get(key)
        assert not os.path.exists(self._json(store, key))
        assert not os.path.exists(self._npz(store, key))
        assert not store.contains(key)

    def test_flipped_blob_byte_is_a_miss(self, store):
        key = "6" * 64
        store.put(key, {"arr": np.full(1000, 7, dtype=np.int64)})
        raw = bytearray(open(self._npz(store, key), "rb").read())
        at = raw.find(bytes([7]) * 1000) + 500
        raw[at] ^= 0x01
        with open(self._npz(store, key), "wb") as fh:
            fh.write(raw)
        self._assert_miss_and_discarded(store, key, "get")  # zip CRC-32

    def test_truncated_sidecar_is_a_miss(self, store):
        key = "7" * 64
        store.put(key, {"arr": np.arange(500)})
        raw = open(self._npz(store, key), "rb").read()
        with open(self._npz(store, key), "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        self._assert_miss_and_discarded(store, key, "get")

    @pytest.mark.parametrize("probe", ["get", "contains"])
    def test_pre_blob_entry_is_a_miss(self, store, probe):
        # An entry in the earlier format: one npz member per array and no
        # ``layout`` in the JSON document.  There is no reader for it.
        key = "a" * 64
        os.makedirs(os.path.dirname(self._json(store, key)), exist_ok=True)
        np.savez(self._npz(store, key), arr0=np.arange(3))
        document = {
            "key": key,
            "salt": store.salt,
            "arrays": 1,
            "value": {"arr": {"__kind__": "ndarray", "ref": 0}},
        }
        with open(self._json(store, key), "w") as fh:
            json.dump(document, fh)
        self._assert_miss_and_discarded(store, key, probe)


class TestStoreManagement:
    def test_stats_and_clear(self, store):
        for i in range(3):
            store.put(f"{i}" * 64, {"i": i, "arr": np.arange(4)})
        st = store.stats()
        assert st.entries == 3 and st.bytes > 0
        removed = store.clear()
        assert removed.entries == 3
        assert store.stats().entries == 0

    def test_drop_selected_keys(self, store):
        keys = [f"{i}" * 64 for i in range(4)]
        for k in keys:
            store.put(k, 0)
        assert store.drop(keys[:2]) == 2
        assert not store.contains(keys[0]) and store.contains(keys[3])

    def test_salt_partitions_the_address_space(self, tmp_path):
        a = ResultStore(tmp_path, salt="v1")
        b = ResultStore(tmp_path, salt="v2")
        assert a.key("m.f", {}, 0) != b.key("m.f", {}, 0)


class TestCachedSweep:
    def test_warm_run_replays_without_evaluating(self, store):
        calls = []

        def fn(a, seed):
            calls.append((a, seed))
            return a * 10

        kw = dict(seed=3, repetitions=2)
        reference = run_sweep({"a": [1, 2]}, fn, **kw)
        cold = run_sweep({"a": [1, 2]}, fn, **kw, cache=store)
        assert len(calls) == 2 * len(reference)
        warm = run_sweep({"a": [1, 2]}, fn, **kw, cache=store)
        assert len(calls) == 2 * len(reference)  # no new evaluations
        assert cold == warm == reference
        assert store.misses == 4 and store.hits == 4

    def test_corrupted_entry_recomputed_alone(self, store):
        calls = []

        def fn(a, seed):
            calls.append(a)
            return a

        kw = dict(seed=3, repetitions=1)
        run_sweep({"a": [1, 2, 3]}, fn, **kw, cache=store)
        # Corrupt one of the three entries on disk.
        victim = os.listdir(store.objects_dir)[0]
        shard = os.path.join(store.objects_dir, victim)
        with open(os.path.join(shard, os.listdir(shard)[0]), "w") as fh:
            fh.write("garbage")
        calls.clear()
        again = run_sweep({"a": [1, 2, 3]}, fn, **kw, cache=store)
        assert len(calls) == 1  # only the corrupted task re-ran
        assert [p.result for p in again] == [1, 2, 3]

    def test_cache_accepts_plain_path(self, tmp_path):
        def fn(a, seed):
            return a

        root = tmp_path / "bypath"
        run_sweep({"a": [5]}, fn, seed=0, cache=root)
        assert any(
            name.endswith(".json")
            for _, _, files in os.walk(root)
            for name in files
        )

    def test_unaddressable_static_params_error(self, store):
        with pytest.raises(TypeError, match="content-addressable"):
            run_sweep(
                {"a": [1]},
                named_task,
                seed=0,
                static_params={"factory": lambda: 1},
                cache=store,
            )

    def test_batch_results_cached_per_point(self, store):
        def batch(a, seeds):
            return [a + s for s in seeds]

        kw = dict(seed=1, repetitions=3)
        cold = run_sweep({"a": [1, 2]}, batch_fn=batch, **kw, cache=store)
        assert store.misses == 2  # one task (and entry) per grid point
        warm = run_sweep({"a": [1, 2]}, batch_fn=batch, **kw, cache=store)
        assert store.hits == 2
        assert cold == warm

    def test_sidecar_json_is_plain(self, tmp_path):
        from repro.runtime import write_json_payload

        path = tmp_path / "out.json"
        write_json_payload(
            path, {"arr": np.arange(3), "x": np.int64(2), "t": (1, 2)}
        )
        data = json.loads(path.read_text())
        assert data == {"arr": [0, 1, 2], "x": 2, "t": [1, 2]}
