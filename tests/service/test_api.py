"""Unit tests for the in-memory PTRider service (smartphone + website flows)."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import dispatcher as dispatcher_module
from repro.core.config import MATCHER_NAMES, SystemConfig
from repro.errors import ConfigurationError, ServiceError, UnknownOptionError
from repro.model.request import Request
from repro.roadnet.generators import figure1_network
from repro.service.api import MATCHER_REGISTRY, PTRiderService, build_system
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSREngine

from tests.conftest import assign_request


@pytest.fixture
def paper_service() -> PTRiderService:
    """A service running the Fig. 1 scenario (c1 busy with R1, c2 empty at v13)."""
    network = figure1_network()
    grid = GridIndex(network, rows=4, columns=4)
    fleet = Fleet(grid, CSREngine(network))
    fleet.add_vehicle(Vehicle("c1", location=1, capacity=4))
    fleet.add_vehicle(Vehicle("c2", location=13, capacity=4))
    r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1")
    assign_request(fleet, "c1", r1, planned_pickup_distance=8.0)
    config = SystemConfig(max_waiting=5.0, service_constraint=0.2)
    return PTRiderService(fleet, config=config, seed=1)


def _serve_a_window(service: PTRiderService) -> None:
    """Serve two trips through one ingest window, filling the batch panel."""
    assert service.ingest(12, 17) and service.ingest(3, 16)
    assert len(service.pump(now=service.config.batch_window)) == 2
    assert any(key.startswith("batch_") for key in service.statistics())


class TestSmartphoneFlow:
    def test_book_returns_paper_options(self, paper_service):
        booking = paper_service.book(start=12, destination=17, riders=2)
        assert booking.option_count == 2
        points = sorted((round(o.pickup_distance, 3), round(o.price, 3)) for o in booking.options)
        assert points == [(8.0, 8.8), (14.0, 4.0)]
        assert booking.is_open
        assert booking.response_seconds >= 0.0

    def test_choose_commits_to_vehicle(self, paper_service):
        booking = paper_service.book(start=12, destination=17, riders=2)
        cheapest_index = min(range(len(booking.options)), key=lambda i: booking.options[i].price)
        option = paper_service.choose(booking.booking_id, cheapest_index)
        assert option.vehicle_id == "c1"
        assert not paper_service.booking(booking.booking_id).is_open
        vehicle = paper_service.fleet.get("c1")
        assert vehicle.has_request(booking.request.request_id)

    def test_choose_invalid_index(self, paper_service):
        booking = paper_service.book(start=12, destination=17, riders=2)
        with pytest.raises(UnknownOptionError):
            paper_service.choose(booking.booking_id, 99)

    def test_choose_twice_rejected(self, paper_service):
        booking = paper_service.book(start=12, destination=17, riders=2)
        paper_service.choose(booking.booking_id, 0)
        with pytest.raises(UnknownOptionError):
            paper_service.choose(booking.booking_id, 1)

    def test_cancel_open_booking(self, paper_service):
        booking = paper_service.book(start=12, destination=17, riders=2)
        paper_service.cancel(booking.booking_id)
        with pytest.raises(ServiceError):
            paper_service.booking(booking.booking_id)
        assert paper_service.statistics()["unmatched"] == 1.0

    def test_cancel_confirmed_booking_rejected(self, paper_service):
        booking = paper_service.book(start=12, destination=17, riders=2)
        paper_service.choose(booking.booking_id, 0)
        with pytest.raises(ServiceError):
            paper_service.cancel(booking.booking_id)

    def test_unknown_booking(self, paper_service):
        with pytest.raises(ServiceError):
            paper_service.options("nope")

    def test_book_request_books_the_request_as_given(self, paper_service):
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2)
        booking = paper_service.book_request(request)
        assert booking.request is request
        assert booking.options  # the global constraints (w=5, eps=0.2) still allow both vehicles


class TestCarriedVerification:
    """``choose`` installs what the booking's match verified; ``cancel`` needs
    no distance at all.  Neither asks the routing engine anything."""

    @pytest.fixture
    def service(self) -> PTRiderService:
        return build_system(vehicles=12, seed=3, routing_backend="csr")

    @staticmethod
    def _asked(service):
        stats = service.fleet.routing_engine.stats
        return (stats.dijkstra_runs, stats.queries)

    def test_choose_on_an_unchanged_vehicle_asks_the_engine_nothing(self, service):
        booking = service.book(start=17, destination=140)
        assert booking.options and booking.context is not None
        asked = self._asked(service)
        option = service.choose(booking.booking_id, 0)
        assert self._asked(service) == asked
        assert booking.context is None  # dropped with the choice
        state = service.fleet.get(option.vehicle_id).request_states()[booking.request.request_id]
        assert state.direct_distance == service.fleet.routing_engine.distances_from(17)[140]

    def test_cancel_asks_the_engine_nothing(self, service):
        booking = service.book(start=17, destination=140)
        asked = self._asked(service)
        service.cancel(booking.booking_id)
        assert self._asked(service) == asked
        assert booking.context is None
        assert service.statistics()["unmatched"] == 1.0

    def test_choose_after_the_day_moved_on_enumerates_again(self, service):
        booking = service.book(start=17, destination=140)
        service.advance(1.0)  # every taxi wanders or drives: no stamp survives
        with mock.patch.object(
            dispatcher_module, "insertion_candidates", wraps=dispatcher_module.insertion_candidates
        ) as enumerate_again:
            try:
                option = service.choose(booking.booking_id, 0)
            except UnknownOptionError:
                option = None  # the taxi drove out of reach; refused as it always was
        assert enumerate_again.call_count == 1
        if option is not None:
            vehicle = service.fleet.get(option.vehicle_id)
            assert vehicle.has_request(booking.request.request_id)

    def test_reconfiguration_drops_open_bookings_contexts(self, service):
        booking = service.book(start=17, destination=140)
        service.set_parameters(routing_backend="csr+alt")
        assert booking.context is None  # it held the outgoing engine's tree
        option = service.choose(booking.booking_id, 0)
        assert service.fleet.get(option.vehicle_id).has_request(booking.request.request_id)

    def test_failed_choice_leaves_the_booking_open_without_its_context(self, service):
        booking = service.book(start=17, destination=140)
        vehicle = service.fleet.get(booking.options[0].vehicle_id)
        far = max(service.fleet.grid.network.vertices())
        vehicle.set_location(far)
        service.fleet.refresh_vehicle(vehicle.vehicle_id)
        with pytest.raises(UnknownOptionError):
            service.choose(booking.booking_id, 0)
        assert booking.is_open and booking.context is None


class TestTimeAndDelivery:
    def test_advance_delivers_the_rider(self, paper_service):
        booking = paper_service.book(start=12, destination=17, riders=2)
        fastest_index = min(
            range(len(booking.options)), key=lambda i: booking.options[i].pickup_distance
        )
        option = paper_service.choose(booking.booking_id, fastest_index)
        assert option.vehicle_id == "c2"
        paper_service.advance(40.0)
        stats = paper_service.statistics()
        assert stats["pickups"] >= 1.0
        assert stats["dropoffs"] >= 1.0
        assert paper_service.current_time == pytest.approx(40.0)

    def test_advance_rejects_negative(self, paper_service):
        with pytest.raises(ServiceError):
            paper_service.advance(-1.0)


class TestWebsiteInterface:
    def test_vehicle_schedules_lists_branches(self, paper_service):
        schedules = paper_service.vehicle_schedules("c1")
        assert schedules == [[(2, "pickup", "R1"), (16, "dropoff", "R1")]]
        assert paper_service.vehicle_schedules("c2") == []

    def test_vehicle_ids(self, paper_service):
        assert set(paper_service.vehicle_ids()) == {"c1", "c2"}

    def test_statistics_panel_keys(self, paper_service):
        stats = paper_service.statistics()
        for key in ("current_time", "average_response_time", "sharing_rate",
                    "matcher_vehicles_evaluated", "fleet_vehicles"):
            assert key in stats

    def test_set_parameters_updates_config(self, paper_service):
        config = paper_service.set_parameters(max_waiting=9.0, service_constraint=0.5,
                                              vehicle_capacity=6, max_pickup_distance=20.0)
        assert config.max_waiting == 9.0
        assert config.service_constraint == 0.5
        assert config.vehicle_capacity == 6
        assert paper_service.config.max_pickup_distance == 20.0

    def test_set_parameters_switches_matcher(self, paper_service):
        paper_service.set_parameters(matcher_name="dual_side")
        assert paper_service.matcher.name == "dual_side"
        paper_service.set_parameters(matcher_name="naive")
        assert paper_service.matcher.name == "naive"
        booking = paper_service.book(start=12, destination=17, riders=2)
        assert booking.option_count == 2

    def test_set_parameters_allows_baseline_matchers(self, paper_service):
        paper_service.set_parameters(matcher_name="nearest")
        assert paper_service.matcher.name == "nearest"
        booking = paper_service.book(start=12, destination=17, riders=2)
        assert booking.option_count == 1

    def test_set_parameters_rejects_unknown_matcher(self, paper_service):
        with pytest.raises(ConfigurationError):
            paper_service.set_parameters(matcher_name="teleporter")

    def test_set_parameters_switches_routing_backend(self, paper_service):
        before = paper_service.book(start=12, destination=17, riders=2)
        config = paper_service.set_parameters(routing_backend="csr")
        assert config.routing_backend == "csr"
        assert paper_service.fleet.routing_engine.backend == "csr"
        after = paper_service.book(start=12, destination=17, riders=2)
        assert [
            (o.vehicle_id, round(o.pickup_distance, 6), round(o.price, 6)) for o in before.options
        ] == [
            (o.vehicle_id, round(o.pickup_distance, 6), round(o.price, 6)) for o in after.options
        ]

    def test_set_parameters_rejects_unknown_routing_backend(self, paper_service):
        for backend in ("teleport", "ch"):
            with pytest.raises(ConfigurationError):
                paper_service.set_parameters(routing_backend=backend)

    def test_set_parameters_switches_to_csr_alt_backend(self, paper_service):
        before = paper_service.book(start=12, destination=17, riders=2)
        config = paper_service.set_parameters(routing_backend="csr+alt")
        assert config.routing_backend == "csr+alt"
        assert paper_service.fleet.routing_engine.backend == "csr+alt"
        after = paper_service.book(start=12, destination=17, riders=2)
        assert [
            (o.vehicle_id, round(o.pickup_distance, 6), round(o.price, 6)) for o in before.options
        ] == [
            (o.vehicle_id, round(o.pickup_distance, 6), round(o.price, 6)) for o in after.options
        ]

    def test_routing_statistics_panel(self, paper_service):
        paper_service.book(start=12, destination=17, riders=2)
        panel = paper_service.routing_statistics()
        assert panel["backend"] == "csr"
        assert panel["queries"] >= 1.0
        for key in ("cache_hits", "dijkstra_runs", "build_seconds"):
            assert isinstance(panel[key], float)
        assert panel["build_seconds"] > 0.0
        for retired in ("artifact_cache_dir", "bidirectional_runs", "load_seconds"):
            assert retired not in panel
        # float-valued fields surface in the main panel under routing_
        stats = paper_service.statistics()
        assert stats["routing_queries"] == panel["queries"]
        assert "routing_backend" not in stats  # strings stay admin-only

    def test_routing_statistics_reports_how_warm_the_grid_index_is(self, paper_service):
        panel = paper_service.routing_statistics()
        summary = paper_service.fleet.grid.summary()
        assert panel["grid_cells"] == summary["cells"]
        assert panel["grid_build_seconds"] == summary["build_seconds"] > 0.0
        before = panel["grid_lower_bound_rows"]
        paper_service.book(start=12, destination=17, riders=2)
        after = paper_service.routing_statistics()["grid_lower_bound_rows"]
        assert before <= after <= panel["grid_cells"]
        assert after == paper_service.fleet.grid.summary()["lower_bound_rows"]
        assert paper_service.statistics()["routing_grid_lower_bound_rows"] == after

    def test_panels_carry_no_worker_pool_keys(self, paper_service):
        _serve_a_window(paper_service)
        panel = paper_service.routing_statistics()
        assert not [key for key in panel if key.startswith("dispatch_")]
        assert "parallel_workers" not in panel and "ipc_seconds" not in panel
        statistics = paper_service.statistics()
        assert not [key for key in statistics if "dispatch_" in key]
        assert not [key for key in statistics if "parallel_workers" in key]
        assert not [key for key in statistics if "ipc_seconds" in key]

    def test_statistics_panel_has_no_shard_count(self, paper_service):
        _serve_a_window(paper_service)
        assert "match_shards" not in paper_service.statistics()
        assert not [key for key in paper_service.routing_statistics() if "shard" in key]

    @pytest.mark.parametrize(
        "knob", [("dispatch_workers", 2), ("worker_timeout", 5.0),
                 ("max_dispatch_retries", 2), ("table_max_vertices", 8),
                 ("tree_provider", "plane"), ("routing_cache", "/tmp/artifacts"),
                 ("match_shards", 2)],
    )
    def test_retired_knobs_are_rejected(self, paper_service, knob):
        name, value = knob
        with pytest.raises(TypeError):
            paper_service.set_parameters(**{name: value})
        with pytest.raises(TypeError):
            build_system(vehicles=2, seed=1, **{name: value})

    def test_a_refused_backend_leaves_config_and_engine_unchanged(self, paper_service):
        # the table backend is gone, so the admin's attempt to switch to it
        # is refused ...
        before_backend = paper_service.fleet.routing_engine.backend
        with pytest.raises(ConfigurationError):
            paper_service.set_parameters(routing_backend="table")
        # ... and the refusal leaves the service exactly as it was: neither
        # the config nor the fleet's engine claims the backend it never got
        assert paper_service.config.routing_backend == before_backend
        assert paper_service.fleet.routing_engine.backend == before_backend


class TestBuildSystem:
    def test_build_system_defaults(self):
        system = build_system(network_rows=6, network_columns=6, vehicles=8, seed=4)
        assert len(system.fleet.vehicles()) == 8
        assert system.matcher.name == "single_side"
        booking = system.book(1, 30, riders=1)
        assert booking.option_count >= 1

    def test_build_system_respects_capacity_and_config(self):
        config = SystemConfig(vehicle_capacity=2, matcher_name="dual_side")
        system = build_system(network_rows=5, network_columns=5, vehicles=3, config=config, seed=4)
        assert all(vehicle.capacity == 2 for vehicle in system.fleet.vehicles())
        assert system.matcher.name == "dual_side"

    def test_build_system_deterministic_placement(self):
        a = build_system(network_rows=5, network_columns=5, vehicles=5, seed=9)
        b = build_system(network_rows=5, network_columns=5, vehicles=5, seed=9)
        assert [v.location for v in a.fleet.vehicles()] == [v.location for v in b.fleet.vehicles()]

    def test_build_system_with_csr_routing(self):
        dict_system = build_system(network_rows=6, network_columns=6, vehicles=8, seed=4)
        csr_system = build_system(
            network_rows=6, network_columns=6, vehicles=8, seed=4, routing_backend="csr"
        )
        assert csr_system.fleet.routing_engine.backend == "csr"
        assert csr_system.config.routing_backend == "csr"
        a = dict_system.book(1, 30, riders=1)
        b = csr_system.book(1, 30, riders=1)
        assert [
            (o.vehicle_id, round(o.pickup_distance, 6), round(o.price, 6)) for o in a.options
        ] == [
            (o.vehicle_id, round(o.pickup_distance, 6), round(o.price, 6)) for o in b.options
        ]

    def test_registry_covers_all_matchers(self):
        assert set(MATCHER_REGISTRY) == {"single_side", "dual_side", "naive", "nearest", "sharek", "tshare"}

    def test_registry_is_keyed_by_the_config_list_of_names(self):
        assert tuple(MATCHER_REGISTRY) == MATCHER_NAMES
        for name, matcher_class in MATCHER_REGISTRY.items():
            assert matcher_class.name == name
            assert SystemConfig(matcher_name=name).matcher_name == name
