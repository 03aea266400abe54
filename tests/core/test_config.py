"""Unit tests for the global system configuration."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
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
        with pytest.raises(ConfigurationError):
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

    def test_distance_time_conversions(self):
        config = SystemConfig(speed=2.0)
        assert config.distance_to_time(10.0) == pytest.approx(5.0)
        assert config.time_to_distance(5.0) == pytest.approx(10.0)

    def test_frozen(self):
        config = SystemConfig()
        with pytest.raises(AttributeError):
            config.speed = 3.0  # type: ignore[misc]
