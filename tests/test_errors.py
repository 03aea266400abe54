"""Unit tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    def test_every_library_error_derives_from_the_base(self):
        for name in errors.__dict__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.PTRiderError:
                if obj.__module__ == "repro.errors":
                    assert issubclass(obj, errors.PTRiderError), name

    def test_lookup_errors_are_also_key_errors(self):
        assert issubclass(errors.VertexNotFoundError, KeyError)
        assert issubclass(errors.EdgeNotFoundError, KeyError)
        assert issubclass(errors.UnknownVehicleError, KeyError)
        assert issubclass(errors.UnknownOptionError, KeyError)

    def test_validation_errors_are_also_value_errors(self):
        assert issubclass(errors.RequestError, ValueError)
        assert issubclass(errors.ConfigurationError, ValueError)
        assert issubclass(errors.InvalidScheduleError, ValueError)
        assert issubclass(errors.CapacityExceededError, ValueError)


class TestMessages:
    def test_vertex_not_found_carries_vertex(self):
        error = errors.VertexNotFoundError(42)
        assert error.vertex == 42
        assert "42" in str(error)

    def test_edge_not_found_carries_endpoints(self):
        error = errors.EdgeNotFoundError(1, 2)
        assert (error.u, error.v) == (1, 2)

    def test_disconnected_carries_endpoints(self):
        error = errors.DisconnectedError(3, 9)
        assert (error.source, error.target) == (3, 9)
        assert "3" in str(error) and "9" in str(error)

    def test_unknown_vehicle_carries_id(self):
        error = errors.UnknownVehicleError("c9")
        assert error.vehicle_id == "c9"

    def test_catching_the_base_class_catches_everything(self):
        with pytest.raises(errors.PTRiderError):
            raise errors.CapacityExceededError("full")
        with pytest.raises(errors.PTRiderError):
            raise errors.SimulationError("boom")
