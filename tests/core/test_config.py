"""Unit tests for the global system configuration."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.config import BUILD, FIXED, RUNTIME, Check, SystemConfig, knob_names
from repro.core.pricing import LinearPriceModel
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults(self):
        config = SystemConfig()
        assert config.vehicle_capacity == 4
        assert config.matcher_name == "single_side"
        assert config.max_pickup_distance is None
        assert isinstance(config.price_model, LinearPriceModel)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(vehicle_capacity=0)

    def test_invalid_waiting(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(max_waiting=-1.0)

    def test_invalid_service_constraint(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(service_constraint=-0.5)

    def test_invalid_speed(self):
        with pytest.raises(ConfigurationError, match="speed"):
            SystemConfig(speed=0.0)

    def test_invalid_max_pickup(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(max_pickup_distance=0.0)

    def test_invalid_matcher_name(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(matcher_name="warp_drive")

    def test_invalid_routing_backend(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(routing_backend="teleport")

    @pytest.mark.parametrize("durability", ["journal", "journal+snapshot"])
    def test_durability_needs_a_journal_path(self, durability):
        with pytest.raises(ConfigurationError, match="requires journal_path"):
            SystemConfig(durability=durability)
        assert SystemConfig(durability=durability, journal_path="j").journal_path == "j"

    def test_adaptive_window_bounds_must_be_ordered(self):
        with pytest.raises(ConfigurationError, match="must not exceed"):
            SystemConfig(batch_window_min=2.0, batch_window_max=1.0)
        config = SystemConfig(batch_window_min=1.0, batch_window_max=1.0)
        assert config.batch_window_min == config.batch_window_max == 1.0

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"batch_window": 0.0}, "batch_window"),
            ({"max_batch_size": 0}, "max_batch_size"),
            ({"queue_capacity": 0}, "queue_capacity"),
            ({"queue_policy": "drop-newest"}, "queue_policy"),
            ({"latency_budget": 0.0}, "latency_budget"),
            ({"batch_window_mode": "elastic"}, "batch_window_mode"),
        ],
    )
    def test_invalid_serving_values(self, knobs, message):
        with pytest.raises(ConfigurationError, match=message):
            SystemConfig(**knobs)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"batch_window_min": 0.0}, "batch_window_min"),
            ({"batch_window_min": 2.0, "batch_window_max": 1.0}, "batch_window_max"),
            (
                {"batch_window_min": 2.0, "batch_window_max": 4.0, "latency_budget": 1.0},
                "latency_budget",
            ),
            # the effective bounds: an explicit minimum over the default
            # maximum, and a default minimum over the budget
            ({"batch_window_min": 100.0}, "batch_window_max"),
            ({"batch_window": 32.0, "latency_budget": 1.0}, "latency_budget"),
        ],
    )
    def test_invalid_adaptive_window_bounds(self, knobs, message):
        with pytest.raises(ConfigurationError, match=message):
            SystemConfig(batch_window_mode="adaptive", **knobs)

    def test_the_effective_bounds_bind_only_the_adaptive_window(self):
        config = SystemConfig(batch_window=32.0, latency_budget=1.0, batch_window_min=100.0)
        assert config.window_bounds() == (100.0, 512.0)

    def test_window_bounds_default_around_the_window(self):
        assert SystemConfig(batch_window=2.0).window_bounds() == (0.125, 32.0)
        config = SystemConfig(batch_window=2.0, batch_window_min=1.0, batch_window_max=4.0)
        assert config.window_bounds() == (1.0, 4.0)

    def test_routing_backend_accepts_known_names(self):
        assert SystemConfig().routing_backend == "csr"
        for backend in ("csr", "csr+alt"):
            assert SystemConfig(routing_backend=backend).routing_backend == backend
        for retired in ("dict", "table", "ch"):
            with pytest.raises(ConfigurationError):
                SystemConfig(routing_backend=retired)

    def test_dispatch_workers_accepts_only_one(self):
        assert SystemConfig(dispatch_workers=1).dispatch_workers == 1
        for workers in (0, 2, 4):
            with pytest.raises(ConfigurationError, match="dispatch_workers"):
                SystemConfig(dispatch_workers=workers)

    @pytest.mark.parametrize(
        "name",
        [
            "worker_timeout",
            "max_dispatch_retries",
            "table_max_vertices",
            "tree_provider",
            "routing_cache_dir",
            "match_shards",
        ],
    )
    def test_retired_knobs_are_gone(self, name):
        with pytest.raises(TypeError):
            SystemConfig(**{name: 1})


class TestKnobTable:
    def test_every_field_declares_its_knob(self):
        for spec in fields(SystemConfig):
            meta = spec.metadata
            assert isinstance(meta.get("check"), Check), spec.name
            assert meta.get("scope") in (RUNTIME, BUILD, FIXED), spec.name
            assert isinstance(meta.get("zero_none"), bool), spec.name
            if meta["zero_none"]:
                assert spec.default is None, spec.name
            if meta.get("flag") is not None:
                assert meta["flag"].startswith("--") and meta["help"], spec.name
                assert meta["commands"] and meta["scope"] != FIXED, spec.name
            else:
                assert not meta["commands"], spec.name

    def test_snapshot_mode_accepts_only_incremental(self):
        config = SystemConfig(snapshot_mode="incremental", dispatch_workers=1)
        assert config.snapshot_mode == SystemConfig().snapshot_mode == "incremental"
        with pytest.raises(ConfigurationError, match="snapshot_mode"):
            SystemConfig(snapshot_mode="full")

    def test_with_knobs_skips_none_and_maps_zero_by_the_rule(self):
        config = SystemConfig(queue_capacity=8, latency_budget=2.0)
        updated = config.with_knobs(
            {"queue_capacity": 0, "latency_budget": None, "max_waiting": 7.0}, running=True
        )
        assert updated.queue_capacity is None
        assert updated.latency_budget == 2.0
        assert updated.max_waiting == 7.0
        assert config.with_knobs({}, running=True) is config

    def test_with_knobs_refuses_a_zero_without_the_rule(self):
        with pytest.raises(ConfigurationError, match="snapshot_interval"):
            SystemConfig().with_knobs({"snapshot_interval": 0}, running=False)

    def test_with_knobs_keeps_each_knob_to_its_scope(self):
        assert "durability" in knob_names(BUILD)
        assert "speed" in knob_names(FIXED)
        with pytest.raises(TypeError, match="durability"):
            SystemConfig().with_knobs({"durability": "off"}, running=True)
        assert SystemConfig().with_knobs({"durability": "off"}, running=False).durability == "off"
        for name in knob_names(FIXED) + ("warp_factor",):
            with pytest.raises(TypeError, match=name):
                SystemConfig().with_knobs({name: 1}, running=False)


class TestBehaviour:
    def test_with_updates_returns_new_config(self):
        config = SystemConfig()
        updated = config.with_updates(max_waiting=9.0, matcher_name="dual_side")
        assert updated.max_waiting == 9.0
        assert updated.matcher_name == "dual_side"
        assert config.max_waiting == 5.0  # original untouched

    def test_with_updates_validates(self):
        with pytest.raises(ConfigurationError):
            SystemConfig().with_updates(vehicle_capacity=-1)

    def test_frozen(self):
        config = SystemConfig()
        with pytest.raises(AttributeError):
            config.speed = 3.0  # type: ignore[misc]
