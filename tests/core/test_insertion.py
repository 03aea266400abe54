"""Unit tests for request insertion into kinetic trees."""

from __future__ import annotations

import pytest

from repro.core.insertion import InsertionStatistics, insertion_candidates
from repro.core.naive import NaiveKineticTreeMatcher
from repro.errors import DisconnectedError
from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.shortest_path import DistanceOracle
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.commit_reference import feasible_schedules_for_commit
from tests.conftest import assign_request
from tests.insertion_reference import reference_insertion_candidates


@pytest.fixture
def network():
    return figure1_network()


@pytest.fixture
def oracle(network):
    return DistanceOracle(network)


@pytest.fixture
def grid(network):
    return GridIndex(network, rows=4, columns=4)


@pytest.fixture
def line_fleet():
    """A busy vehicle on a line of unit edges with one vertex per grid cell:
    the grid lower bound *is* the distance, so the two-scan reference rejects
    by bound exactly what the kernel finds infeasible."""
    network = grid_network(1, 12)  # vertices 1..12 in a row
    fleet = Fleet(GridIndex(network, rows=1, columns=12), DistanceOracle(network))
    fleet.add_vehicle(Vehicle("c1", location=1))
    # one branch [pick up at 3, drop off at 5]; R1 tolerates its pick-up at
    # distance <= 3 and a ride of <= 3
    r1 = Request(start=3, destination=5, max_waiting=1.0, service_constraint=0.5, request_id="R1")
    assign_request(fleet, "c1", r1, planned_pickup_distance=2.0)
    return fleet


@pytest.fixture
def far():
    """A request far down the line from ``line_fleet``'s vehicle and its R1."""
    return Request(start=10, destination=11, max_waiting=5.0, service_constraint=0.0, request_id="R2")


class TestEmptyVehicle:
    def test_single_candidate(self, oracle):
        vehicle = Vehicle("c2", location=13)
        request = Request(start=12, destination=17, riders=2, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle)
        assert len(candidates) == 1
        candidate = candidates[0]
        assert candidate.pickup_distance == pytest.approx(8.0)
        assert candidate.added_distance == pytest.approx(15.0)
        assert candidate.total_distance == pytest.approx(15.0)
        assert candidate.base_schedule == ()
        assert [stop.vertex for stop in candidate.schedule] == [12, 17]

    def test_offset_added_to_pickup_distance(self, oracle):
        vehicle = Vehicle("c2", location=13, offset=2.0)
        request = Request(start=12, destination=17, riders=2, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle)
        assert candidates[0].pickup_distance == pytest.approx(10.0)

    def test_vehicle_id_recorded(self, oracle):
        vehicle = Vehicle("taxi-9", location=13)
        request = Request(start=12, destination=17, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle)
        assert all(candidate.vehicle_id == "taxi-9" for candidate in candidates)


class TestNonEmptyVehicle:
    def build_busy_vehicle(self, network, oracle, grid):
        fleet = Fleet(grid, oracle)
        fleet.add_vehicle(Vehicle("c1", location=1))
        r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1")
        assign_request(fleet, "c1", r1, planned_pickup_distance=8.0)
        return fleet.get("c1")

    def test_paper_schedule_is_among_the_candidates(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle)
        # Two orders are feasible: the paper's shared ride (R2 interleaved with
        # R1) and the trivial "serve R1 first, then R2" append; every other
        # interleaving violates R1's waiting-time or service constraint.
        by_order = {tuple(stop.vertex for stop in c.schedule): c for c in candidates}
        assert set(by_order) == {(2, 12, 16, 17), (2, 16, 12, 17)}
        paper = by_order[(2, 12, 16, 17)]
        assert paper.added_distance == pytest.approx(3.0)
        assert paper.pickup_distance == pytest.approx(14.0)
        appended = by_order[(2, 16, 12, 17)]
        # The appended order is dominated later (higher price and later pick-up).
        assert appended.added_distance > paper.added_distance
        assert appended.pickup_distance > paper.pickup_distance

    def test_relaxed_constraints_allow_more_candidates(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        relaxed = Request(
            start=12, destination=17, riders=2, max_waiting=50.0, service_constraint=5.0, request_id="R2"
        )
        # Relaxing only the new request does not relax R1's constraints, so the
        # schedules detouring R1 through v17 stay infeasible -- but inserting
        # after R1's drop-off becomes possible.
        candidates = insertion_candidates(vehicle, relaxed, oracle)
        assert len(candidates) >= 1
        orders = {tuple(stop.vertex for stop in candidate.schedule) for candidate in candidates}
        assert (2, 16, 12, 17) in orders

    def test_capacity_blocks_joint_carriage(self, network, oracle, grid):
        fleet = Fleet(grid, oracle)
        fleet.add_vehicle(Vehicle("c1", location=1, capacity=2))
        r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1")
        assign_request(fleet, "c1", r1, planned_pickup_distance=8.0)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        candidates = insertion_candidates(fleet.get("c1"), request, oracle)
        # With capacity 2 the groups can never ride together: every surviving
        # candidate must drop R1 off before picking R2 up.
        assert candidates
        for candidate in candidates:
            vertices = [stop.vertex for stop in candidate.schedule]
            assert vertices.index(16) < vertices.index(12)

    def test_statistics_accumulate(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        stats = InsertionStatistics()
        candidates = insertion_candidates(vehicle, request, oracle, statistics=stats)
        assert stats.candidates_enumerated > 0
        assert stats.candidates_feasible == len(candidates)

    def test_one_scan_returns_what_the_two_scan_design_returned(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle)
        assert candidates == reference_insertion_candidates(vehicle, request, oracle, grid)
        assert candidates == reference_insertion_candidates(vehicle, request, oracle, None)

    def test_infeasible_slots_are_counted_not_returned(self, line_fleet, far):
        vehicle = line_fleet.get("c1")
        stats = InsertionStatistics()
        candidates = insertion_candidates(vehicle, far, line_fleet.oracle, statistics=stats)
        # Six slot pairs (i, j) over the two-stop branch.  Going to vertex 10
        # before R1's pick-up breaks R1's waiting limit, and going there
        # between R1's stops breaks its service limit: only the append (2,3)
        # is feasible.  Nothing is "rejected by bounds" -- there is no bound
        # scan -- where the two-scan reference rejected all five that way.
        branches = vehicle.kinetic_tree.schedules()
        assert [len(branch) for branch in branches] == [2]
        assert stats == InsertionStatistics(
            candidates_enumerated=6, candidates_feasible=1, candidates_rejected_by_bounds=0
        )
        assert [stop.vertex for stop in candidates[0].schedule] == [3, 5, 10, 11]

        reference_stats = InsertionStatistics()
        assert candidates == reference_insertion_candidates(
            vehicle, far, line_fleet.oracle, line_fleet.grid, statistics=reference_stats
        )
        assert reference_stats == InsertionStatistics(6, 1, candidates_rejected_by_bounds=5)


class TestTheOneScan:
    def test_slots_behind_a_violation_are_not_walked(self, line_fleet, far):
        vehicle = line_fleet.get("c1")
        asked = []

        def exact(u, v):
            asked.append((u, v))
            return line_fleet.oracle.distance(u, v)

        insertion_candidates(vehicle, far, line_fleet.oracle, distance=exact)
        assert asked == [
            (10, 11),  # direct distance
            (1, 3), (3, 5),  # the branch's own legs, once
            # pick-up in slot 0: (0,0) fails in its tail at R1's pick-up; for
            # (0,1) R1's pick-up fails in front of the drop-off slot, where it
            # stays for (0,2), which asks nothing
            (1, 10), (10, 11), (11, 3), (10, 3),
            # pick-up in slot 1: (1,1) fails in its tail, (1,2) at R1's drop-off
            (3, 10), (10, 11), (11, 5), (10, 5),
            (5, 10), (10, 11),  # the append
        ]

    def test_no_grid_bound_is_asked(self, line_fleet, far, monkeypatch):
        """The naive matcher screens nothing, so any bound asked while it
        answers would be asked by the verification itself."""
        asked = []
        monkeypatch.setattr(
            GridIndex, "distance_lower_bound", lambda self, u, v: asked.append((u, v)) or 0.0
        )
        matcher = NaiveKineticTreeMatcher(line_fleet)
        assert [option.vehicle_id for option in matcher.match(far)] == ["c1"]
        assert matcher.statistics.insertion == InsertionStatistics(
            candidates_enumerated=6, candidates_feasible=1
        )
        assert asked == []

    def test_disconnected_leg_propagates_unchanged(self, line_fleet, far):
        vehicle = line_fleet.get("c1")
        error = DisconnectedError(5, 10)

        def broken(u, v):
            # the leg from R1's drop-off to the new pick-up, which the append
            # has to cross
            if (u, v) == (5, 10):
                raise error
            return line_fleet.oracle.distance(u, v)

        with pytest.raises(DisconnectedError) as raised:
            insertion_candidates(vehicle, far, line_fleet.oracle, distance=broken)
        assert raised.value is error


class TestIllFormedBranches:
    """Branches the normal commit path cannot produce: the point-order
    condition fails for the whole branch, whatever the slots."""

    @pytest.mark.parametrize(
        "kinds",
        [
            "dp",  # dropped off before being picked up
            "p",  # never dropped off
            "d",  # waiting, never picked up
            "ppd",  # picked up twice
            "pdd",  # dropped off twice
            "pdXY",  # stops of a request the vehicle does not serve
        ],
    )
    def test_offer_nothing_and_count_like_the_reference(self, line_fleet, far, kinds):
        vehicle = line_fleet.get("c1")
        stops = {
            "p": Stop(3, "R1", StopKind.PICKUP),
            "d": Stop(5, "R1", StopKind.DROPOFF),
            "X": Stop(7, "ghost", StopKind.PICKUP),
            "Y": Stop(8, "ghost", StopKind.DROPOFF),
        }
        vehicle.kinetic_tree.set_schedules([[stops[kind] for kind in kinds]])
        stats, reference_stats = InsertionStatistics(), InsertionStatistics()
        assert insertion_candidates(vehicle, far, line_fleet.oracle, statistics=stats) == []
        assert reference_insertion_candidates(
            vehicle, far, line_fleet.oracle, None, statistics=reference_stats
        ) == []
        assert stats == reference_stats
        assert reference_insertion_candidates(vehicle, far, line_fleet.oracle, line_fleet.grid) == []


class TestCommitHelper:
    def test_feasible_schedules_for_commit(self, oracle):
        vehicle = Vehicle("c2", location=13)
        request = Request(start=12, destination=17, riders=2, request_id="R2")
        schedules = feasible_schedules_for_commit(vehicle, request, oracle)
        assert len(schedules) == 1
        assert [stop.vertex for stop in schedules[0]] == [12, 17]

    def test_commit_helper_empty_when_infeasible(self, oracle):
        vehicle = Vehicle("c1", location=1, capacity=1)
        request = Request(start=2, destination=16, riders=3, request_id="RBig")
        assert feasible_schedules_for_commit(vehicle, request, oracle) == []
