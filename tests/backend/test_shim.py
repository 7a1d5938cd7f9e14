"""Unit tests for the :mod:`repro.backend` shim itself.

The host backend's identity contract, the resolution rules (``None`` /
name / instance / graceful ImportError fallback), the picklable ``spec``
string, and the scenario/engine selection plumbing — everything that
does not need an accelerator library installed.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    HOST,
    ArrayBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.graphs import hypercube


# ----------------------------------------------------------------------
# Host backend: literal identity over numpy
# ----------------------------------------------------------------------
class TestHostBackend:
    def test_xp_is_numpy_itself(self):
        assert HOST.xp is np

    def test_flags(self):
        assert HOST.name == "numpy"
        assert HOST.device == "cpu"
        assert HOST.is_host is True
        assert HOST.spec == "numpy"

    def test_asarray_is_identity_on_ndarray(self):
        arr = np.arange(5)
        assert HOST.asarray(arr) is arr

    def test_to_numpy_is_identity_on_ndarray(self):
        arr = np.arange(5)
        assert HOST.to_numpy(arr) is arr

    def test_astype_maps_dtype(self):
        out = HOST.astype(np.arange(4), np.int8)
        assert out.dtype == np.int8

    def test_kernel_ops_match_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, size=(4, 3))
        b = rng.integers(0, 5, size=(3, 2))
        assert np.array_equal(HOST.matmul(a, b), a @ b)
        assert HOST.count_nonzero(a) == np.count_nonzero(a)
        m = a > 2
        assert np.array_equal(HOST.where(m, a, 0), np.where(m, a, 0))
        assert np.array_equal(HOST.maximum(a, 3), np.maximum(a, 3))
        assert np.array_equal(HOST.ones_like(a), np.ones_like(a))

    def test_is_bool(self):
        assert HOST.is_bool(np.zeros(3, dtype=bool))
        assert not HOST.is_bool(np.zeros(3, dtype=np.int8))

    def test_adjacency_operator_is_pre_backend_expression(self):
        g = hypercube(3)
        op = HOST.adjacency_operator(g, np.int8)
        expected = g.adjacency.astype(np.int8, copy=False)
        assert op.dtype == np.int8
        assert (op != expected).nnz == 0

    def test_neighbor_counts_matches_direct_product(self):
        g = hypercube(3)
        op = HOST.adjacency_operator(g, np.int8)
        transmitting = np.zeros((g.n, 4), dtype=bool)
        transmitting[::2, :] = True
        got = HOST.neighbor_counts(op, transmitting)
        want = g.adjacency.astype(np.int8) @ transmitting.astype(np.int8)
        assert np.array_equal(got, want)

    def test_value_matmul_preserves_int64_upcast(self):
        g = hypercube(3)
        op = HOST.value_operator(g)
        values = np.arange(g.n, dtype=np.int64)[:, None] * (1 << 40)
        got = HOST.value_matmul(op, values)
        assert got.dtype == np.int64
        assert np.array_equal(got, g.adjacency.astype(np.int64) @ values)

    def test_synchronize_is_noop(self):
        HOST.synchronize()


# ----------------------------------------------------------------------
# Resolution rules
# ----------------------------------------------------------------------
class TestResolution:
    def test_none_is_host_singleton(self):
        assert resolve_backend(None) is HOST

    def test_numpy_name_is_host_singleton(self):
        assert resolve_backend("numpy") is HOST
        assert get_backend("numpy") is HOST
        assert get_backend("  NumPy ") is HOST

    def test_instance_passthrough(self):
        other = NumpyBackend()
        assert resolve_backend(other) is other

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cupy")

    def test_registry_names(self):
        assert set(BACKEND_NAMES) == {"numpy", "torch"}
        avail = available_backends()
        assert avail["numpy"] is True
        assert set(avail) == set(BACKEND_NAMES)

    def test_missing_library_falls_back_with_one_warning(self):
        if available_backends()["torch"]:
            pytest.skip("torch installed; fallback path not reachable")
        with pytest.warns(RuntimeWarning, match="falling back to numpy") as rec:
            backend = resolve_backend("torch")
        assert backend is HOST
        assert len(rec) == 1

    def test_spec_string_roundtrip(self):
        assert HOST.spec == "numpy"
        assert resolve_backend(HOST.spec) is HOST


# ----------------------------------------------------------------------
# A non-host stand-in: numpy semantics behind the accelerator code paths.
# ----------------------------------------------------------------------
class MirrorBackend(NumpyBackend):
    """Numpy with ``is_host=False`` — forces every device-transfer branch
    (the dense loop's ``to_numpy``/``asarray`` boundaries, the jamming
    channel's out-of-place deaf mask, the expansion pipeline's operator
    path) while staying bit-for-bit numpy, so the non-host plumbing is
    testable without an accelerator installed."""

    name = "numpy"
    is_host = False


MIRROR = MirrorBackend()


class TestEngineSelection:
    def test_auto_prefers_dense_off_host(self):
        from repro.radio.broadcast import run_broadcast_batch
        from repro.radio.protocols import DecayProtocol

        g = hypercube(6)
        host = run_broadcast_batch(g, DecayProtocol(), trials=80, seed=3)
        mirrored = run_broadcast_batch(
            g, DecayProtocol(), trials=80, seed=3, backend=MIRROR
        )
        assert np.array_equal(host.rounds, mirrored.rounds)
        assert np.array_equal(host.completed, mirrored.completed)
        assert np.array_equal(host.transmissions, mirrored.transmissions)

    def test_explicit_bitset_off_host_warns_and_runs_host_bitset(self):
        from repro.radio.broadcast import run_broadcast_batch
        from repro.radio.protocols import DecayProtocol

        g = hypercube(5)
        with pytest.warns(RuntimeWarning, match="bitset engine is numpy-only"):
            got = run_broadcast_batch(
                g, DecayProtocol(), trials=8, seed=1, engine="bitset",
                backend=MIRROR,
            )
        want = run_broadcast_batch(
            g, DecayProtocol(), trials=8, seed=1, engine="bitset"
        )
        assert np.array_equal(got.rounds, want.rounds)

    def test_result_arrays_are_host_numpy(self):
        from repro.radio.broadcast import run_broadcast_batch
        from repro.radio.protocols import DecayProtocol

        g = hypercube(4)
        batch = run_broadcast_batch(g, DecayProtocol(), trials=6, seed=0, backend=MIRROR)
        for arr in (
            batch.rounds,
            batch.completed,
            batch.transmissions,
            batch.informed_per_round,
            batch.first_informed_round,
        ):
            assert isinstance(arr, np.ndarray)


# ----------------------------------------------------------------------
# Scenario / CLI threading
# ----------------------------------------------------------------------
class TestScenarioThreading:
    def test_backend_segment_parses(self):
        from repro.scenario import Scenario

        s = Scenario.from_string("hypercube(4) | decay | backend=torch")
        assert s.backend == "torch"
        assert "backend=torch" in s.describe()

    def test_device_suffix_accepted(self):
        from repro.scenario import Scenario

        s = Scenario.from_string("hypercube(4) | decay | backend=torch:cuda")
        assert s.backend == "torch:cuda"

    def test_unknown_backend_rejected(self):
        from repro.scenario import Scenario

        with pytest.raises(ValueError, match="backend"):
            Scenario.from_string("hypercube(4) | decay | backend=jax")

    def test_default_backend_keeps_pre_backend_cache_keys(self):
        from repro.scenario import Scenario

        s = Scenario.from_string("hypercube(4) | decay | trials=4")
        assert s.backend == "numpy"
        assert "backend" not in s.to_dict()
        assert "backend" not in s.describe()

    def test_non_default_backend_changes_cache_identity(self):
        from repro.scenario import Scenario

        s = Scenario.from_string("hypercube(4) | decay | backend=torch")
        assert s.to_dict()["backend"] == "torch"

    def test_run_falls_back_with_single_warning_when_torch_missing(self):
        if available_backends()["torch"]:
            pytest.skip("torch installed; fallback path not reachable")
        from repro.scenario import Scenario

        s = Scenario.from_string(
            "hypercube(10) | decay | backend=torch | trials=2"
        )
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            batch = s.run()
        fallback = [
            w for w in rec if issubclass(w.category, RuntimeWarning)
            and "falling back to numpy" in str(w.message)
        ]
        assert len(fallback) == 1
        want = Scenario.from_string("hypercube(10) | decay | trials=2").run()
        assert np.array_equal(batch.rounds, want.rounds)

    def test_cli_backend_flag_is_sugar_for_override(self, capsys):
        from repro.cli import main

        rc = main([
            "broadcast", "--scenario", "hypercube(4) | decay | trials=2",
            "--reps", "1", "--backend", "numpy",
        ])
        assert rc == 0
        assert "scenario broadcast" in capsys.readouterr().out

    def test_cli_rejects_unknown_backend(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "broadcast", "--scenario", "hypercube(4) | decay | trials=2",
                "--reps", "1", "--backend", "jax",
            ])


class TestAbstractContract:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            ArrayBackend()  # type: ignore[abstract]

    def test_spec_includes_non_cpu_device(self):
        class Fake(NumpyBackend):
            device = "cuda"

        assert Fake().spec == "numpy:cuda"
