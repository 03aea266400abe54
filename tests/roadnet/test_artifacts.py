"""Unit tests for the persisted compiled-artifact cache."""

from __future__ import annotations

import pytest

from repro.roadnet import artifacts
from repro.roadnet.artifacts import ArtifactCache, network_fingerprint
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import CHEngine, CSREngine, make_engine

#: the .npz container needs NumPy; without it the cache is deliberately inert
needs_numpy = pytest.mark.skipif(
    artifacts._np is None, reason="the artifact cache serialises through NumPy"
)


class TestFingerprint:
    def test_stable_across_identical_rebuilds(self):
        a = grid_network(4, 5, weight_jitter=0.3, seed=7)
        b = grid_network(4, 5, weight_jitter=0.3, seed=7)
        assert network_fingerprint(a) == network_fingerprint(b)

    def test_changes_with_weights(self):
        a = grid_network(4, 4, weight_jitter=0.3, seed=7)
        b = grid_network(4, 4, weight_jitter=0.3, seed=8)
        assert network_fingerprint(a) != network_fingerprint(b)

    def test_changes_with_structure(self):
        a = grid_network(4, 4)
        b = grid_network(4, 4)
        b.remove_edge(1, 2)
        assert network_fingerprint(a) != network_fingerprint(b)
        c = grid_network(4, 4)
        c.add_vertex(99)
        assert network_fingerprint(a) != network_fingerprint(c)

    def test_mutation_changes_fingerprint(self):
        network = grid_network(3, 3)
        before = network_fingerprint(network)
        network.add_edge(1, 2, 0.5)  # overwrite an existing weight
        assert network_fingerprint(network) != before


class TestArtifactCache:
    @needs_numpy
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.available
        saved = cache.save("csr", "f" * 64, {"values": [1.5, 2.5], "ids": [1, 2, 3]})
        assert saved is not None and saved.exists()
        loaded = cache.load("csr", "f" * 64)
        assert loaded is not None
        assert loaded["values"].tolist() == [1.5, 2.5]
        assert loaded["ids"].tolist() == [1, 2, 3]

    def test_missing_is_a_miss(self, tmp_path):
        assert ArtifactCache(tmp_path).load("csr", "0" * 64) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.path_for("ch", "a" * 64).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("ch", "a" * 64).write_bytes(b"not a zip archive")
        assert cache.load("ch", "a" * 64) is None

    @needs_numpy
    def test_truncated_file_is_a_miss(self, tmp_path):
        """A valid zip magic with a cut-off body (interrupted copy, crash
        mid-write on a pre-atomic cache) raises BadZipFile, not ValueError --
        it must read as a miss, not crash engine construction."""
        cache = ArtifactCache(tmp_path)
        saved = cache.save("ch", "d" * 64, {"x": list(range(1000))})
        saved.write_bytes(saved.read_bytes()[: saved.stat().st_size // 2])
        assert cache.load("ch", "d" * 64) is None

    @needs_numpy
    def test_params_distinguish_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.save("alt", "b" * 64, {"x": [1]}, params="l4")
        assert cache.load("alt", "b" * 64, params="l8") is None
        assert cache.load("alt", "b" * 64, params="l4") is not None

    @needs_numpy
    def test_unwritable_directory_degrades_to_no_persistence(self, tmp_path):
        """An unwritable (or file-shadowed) cache dir must never crash an
        engine that just paid for its build -- save() reads as a no-op."""
        shadow = tmp_path / "shadow"
        shadow.write_text("a file where the cache directory should be")
        cache = ArtifactCache(shadow)
        assert cache.save("csr", "e" * 64, {"x": [1.0]}) is None
        engine = make_engine(
            grid_network(3, 3), "ch", cache_dir=str(shadow)
        )  # builds, persists nothing, still answers
        assert engine.distance(1, 9) > 0.0

    def test_unavailable_without_numpy(self, tmp_path, monkeypatch):
        from repro.roadnet import artifacts

        monkeypatch.setattr(artifacts, "_np", None)
        cache = ArtifactCache(tmp_path)
        assert not cache.available
        assert cache.save("csr", "c" * 64, {"x": [1]}) is None
        assert cache.load("csr", "c" * 64) is None

    @needs_numpy
    def test_flaky_rename_is_retried(self, tmp_path, monkeypatch):
        """Transient rename failures (concurrent cache warmers, EBUSY on
        network filesystems) are absorbed by the backoff loop."""
        monkeypatch.setattr(artifacts, "REPLACE_BACKOFF_SECONDS", 0.0)
        real_replace = artifacts.os.replace
        failures = {"left": 2, "seen": 0}

        def flaky_replace(src, dst):
            failures["seen"] += 1
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("simulated EBUSY")
            return real_replace(src, dst)

        monkeypatch.setattr(artifacts.os, "replace", flaky_replace)
        cache = ArtifactCache(tmp_path)
        saved = cache.save("csr", "a1" * 32, {"x": [1.0, 2.0]})
        assert saved is not None and saved.exists()
        assert failures["seen"] == 3  # two failures + the success
        assert cache.load("csr", "a1" * 32)["x"].tolist() == [1.0, 2.0]

    @needs_numpy
    def test_persistent_rename_failure_degrades_to_no_persistence(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(artifacts, "REPLACE_BACKOFF_SECONDS", 0.0)
        calls = {"seen": 0}

        def always_fails(src, dst):
            calls["seen"] += 1
            raise OSError("simulated EBUSY")

        monkeypatch.setattr(artifacts.os, "replace", always_fails)
        cache = ArtifactCache(tmp_path)
        assert cache.save("csr", "b2" * 32, {"x": [1.0]}) is None
        assert calls["seen"] == artifacts.REPLACE_ATTEMPTS
        # the temp file does not linger after the final failure
        assert not list(tmp_path.glob("*.tmp"))


@needs_numpy
class TestEngineCaching:
    def test_csr_engine_round_trip(self, tmp_path):
        network = grid_network(5, 5, weight_jitter=0.3, seed=3)
        built = make_engine(network, "csr", cache_dir=str(tmp_path))
        assert built.stats.build_seconds > 0.0
        assert built.stats.load_seconds == 0.0
        loaded = make_engine(network, "csr", cache_dir=str(tmp_path))
        assert loaded.stats.load_seconds > 0.0
        assert loaded.stats.build_seconds == 0.0
        assert loaded.graph.vertex_ids == built.graph.vertex_ids
        assert loaded.graph.indptr == built.graph.indptr
        assert loaded.graph.indices == built.graph.indices
        assert loaded.graph.weights == built.graph.weights
        for u, v in [(1, 25), (7, 19)]:
            assert loaded.distance(u, v) == built.distance(u, v)

    def test_alt_landmarks_round_trip(self, tmp_path):
        network = grid_network(5, 5, weight_jitter=0.3, seed=5)
        built = make_engine(network, "csr+alt", cache_dir=str(tmp_path))
        loaded = make_engine(network, "csr+alt", cache_dir=str(tmp_path))
        assert loaded.stats.build_seconds == 0.0
        assert loaded.alt.landmark_indices == built.alt.landmark_indices
        vertices = network.vertices()
        for u in vertices[::3]:
            for v in vertices[::4]:
                assert loaded.distance_lower_bound(u, v) == built.distance_lower_bound(
                    u, v
                )

    def test_ch_round_trip(self, tmp_path):
        network = grid_network(6, 6, weight_jitter=0.3, seed=9)
        built = make_engine(network, "ch", cache_dir=str(tmp_path))
        assert built.stats.build_seconds > 0.0
        loaded = make_engine(network, "ch", cache_dir=str(tmp_path))
        assert loaded.stats.build_seconds == 0.0
        assert loaded.stats.load_seconds > 0.0
        assert loaded.hierarchy.rank == built.hierarchy.rank
        assert loaded.hierarchy.up_weights == built.hierarchy.up_weights
        vertices = network.vertices()
        for u in vertices[::3]:
            for v in vertices[::2]:
                assert loaded.distance(u, v) == built.distance(u, v)

    def test_a_ch_artifact_holding_sweep_arrays_still_loads(self, tmp_path):
        """Older builds persisted a downward sweep order beside the upward
        graph; such a payload loads, and the extra arrays are ignored."""
        network = grid_network(5, 5, weight_jitter=0.3, seed=9)
        cache = ArtifactCache(tmp_path)
        built = CHEngine(network, cache=cache)
        fingerprint = network_fingerprint(network)
        arrays = cache.load("ch", fingerprint)
        arrays.update(
            down_heads=[0], down_indptr=[0, 1], down_tails=[1],
            down_weights=[1.0], down_level_ptr=[0, 1],
        )
        cache.save("ch", fingerprint, arrays)
        loaded = CHEngine(network, cache=cache)
        assert loaded.stats.build_seconds == 0.0
        assert loaded.stats.load_seconds > 0.0
        assert set(loaded.hierarchy.to_arrays()) == {
            "rank", "up_indptr", "up_indices", "up_weights", "up_mids", "shortcut_count",
        }
        vertices = network.vertices()
        for u in vertices[::3]:
            for v in vertices[::2]:
                assert loaded.distance(u, v) == built.distance(u, v)

    def test_mutated_network_never_served_stale_arrays(self, tmp_path):
        network = grid_network(1, 3)  # a path 1 - 2 - 3
        engine = CHEngine(network, cache=ArtifactCache(tmp_path))
        assert engine.distance(1, 3) == pytest.approx(2.0)
        network.add_vertex(4, x=0.5, y=1.0)
        network.add_edge(1, 4, 0.1)
        network.add_edge(4, 3, 0.1)
        engine.invalidate()
        assert engine.distance(1, 3) == pytest.approx(0.2)
        # A fresh engine over the mutated network keys to the new fingerprint.
        fresh = CHEngine(network, cache=ArtifactCache(tmp_path))
        assert fresh.distance(1, 3) == pytest.approx(0.2)

    def test_loadable_but_invalid_payload_is_a_miss(self, tmp_path):
        """A well-formed .npz whose *content* is corrupt (out-of-range or
        negative rank values) must demote to a rebuild, never crash engine
        construction or load a silently mis-ordered hierarchy."""
        network = grid_network(4, 4, weight_jitter=0.2, seed=5)
        cache = ArtifactCache(tmp_path)
        reference = CHEngine(network, cache=cache)  # builds and persists
        fingerprint = network_fingerprint(network)
        for bad_rank in (10**6, -1):
            arrays = cache.load("ch", fingerprint)
            arrays["rank"] = [int(r) for r in arrays["rank"]]
            arrays["rank"][0] = bad_rank
            cache.save("ch", fingerprint, arrays)
            rebuilt = CHEngine(network, cache=cache)
            assert rebuilt.stats.build_seconds > 0.0  # miss -> rebuilt
            assert rebuilt.distance(1, 16) == reference.distance(1, 16)

    def test_engines_work_from_a_corrupt_cache(self, tmp_path):
        network = grid_network(4, 4, weight_jitter=0.25, seed=3)
        cache = ArtifactCache(tmp_path)
        fingerprint = network_fingerprint(network)
        for kind in ("csr", "ch"):
            path = cache.path_for(kind, fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"garbage")
        reference = CSREngine(network)
        for engine in (
            CSREngine(network, cache=cache),
            CHEngine(network, cache=cache),
        ):
            assert engine.stats.build_seconds > 0.0  # rebuilt, not crashed
            assert engine.distance(1, 16) == reference.distance(1, 16)
