"""Unit tests for request insertion into kinetic trees."""

from __future__ import annotations

import pytest

from repro.core.insertion import InsertionStatistics, insertion_candidates
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
    the grid lower bound *is* the distance, so which candidates the bounds
    reject is known in advance."""
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
    def test_single_candidate(self, oracle, grid):
        vehicle = Vehicle("c2", location=13)
        request = Request(start=12, destination=17, riders=2, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle, grid)
        assert len(candidates) == 1
        candidate = candidates[0]
        assert candidate.pickup_distance == pytest.approx(8.0)
        assert candidate.added_distance == pytest.approx(15.0)
        assert candidate.total_distance == pytest.approx(15.0)
        assert candidate.base_schedule == ()
        assert [stop.vertex for stop in candidate.schedule] == [12, 17]

    def test_offset_added_to_pickup_distance(self, oracle, grid):
        vehicle = Vehicle("c2", location=13, offset=2.0)
        request = Request(start=12, destination=17, riders=2, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle, grid)
        assert candidates[0].pickup_distance == pytest.approx(10.0)

    def test_vehicle_id_recorded(self, oracle, grid):
        vehicle = Vehicle("taxi-9", location=13)
        request = Request(start=12, destination=17, request_id="R2")
        candidates = insertion_candidates(vehicle, request, oracle, grid)
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
        candidates = insertion_candidates(vehicle, request, oracle, grid)
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
        candidates = insertion_candidates(vehicle, relaxed, oracle, grid)
        assert len(candidates) >= 1
        orders = {tuple(stop.vertex for stop in candidate.schedule) for candidate in candidates}
        assert (2, 16, 12, 17) in orders

    def test_capacity_blocks_joint_carriage(self, network, oracle, grid):
        fleet = Fleet(grid, oracle)
        fleet.add_vehicle(Vehicle("c1", location=1, capacity=2))
        r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1")
        assign_request(fleet, "c1", r1, planned_pickup_distance=8.0)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        candidates = insertion_candidates(fleet.get("c1"), request, oracle, grid)
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
        candidates = insertion_candidates(vehicle, request, oracle, grid, statistics=stats)
        assert stats.candidates_enumerated > 0
        assert stats.candidates_feasible == len(candidates)

    def test_grid_bounds_do_not_change_results(self, network, oracle, grid):
        vehicle = self.build_busy_vehicle(network, oracle, grid)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2")
        with_grid = insertion_candidates(vehicle, request, oracle, grid)
        without_grid = insertion_candidates(vehicle, request, oracle, None)

        def key(candidate):
            return (
                tuple(str(stop) for stop in candidate.schedule),
                round(candidate.pickup_distance, 9),
                round(candidate.added_distance, 9),
            )

        assert sorted(map(key, with_grid)) == sorted(map(key, without_grid))

    def test_grid_bounds_can_reject_candidates_early(self, line_fleet, far):
        vehicle = line_fleet.get("c1")
        stats = InsertionStatistics()
        candidates = insertion_candidates(
            vehicle, far, line_fleet.oracle, line_fleet.grid, statistics=stats
        )
        # Six slot pairs (i, j) over the two-stop branch.  Going to vertex 10
        # before R1's pick-up breaks R1's waiting limit: (0,1) fails in its
        # tail, and with the pick-up in slot 0 R1's pick-up stop lies in front
        # of the drop-off slot for j = 2 and 3 alike -- one violation, two
        # candidates pruned, each counted.  With the pick-up in slot 1, (1,2)
        # fails in its tail and R1's drop-off stop prunes (1,3).  Only the
        # append (2,3) survives.
        branches = vehicle.kinetic_tree.schedules()
        assert [len(branch) for branch in branches] == [2]
        assert stats.candidates_enumerated == sum(
            (len(branch) + 1) * (len(branch) + 2) // 2 for branch in branches
        ) == 6
        assert stats.candidates_rejected_by_bounds == 5
        assert stats.candidates_feasible == len(candidates) == 1
        assert [stop.vertex for stop in candidates[0].schedule] == [3, 5, 10, 11]

        reference_stats = InsertionStatistics()
        assert candidates == reference_insertion_candidates(
            vehicle, far, line_fleet.oracle, line_fleet.grid, statistics=reference_stats
        )
        assert stats == reference_stats


class TestBoundPruning:
    def test_pruned_candidates_are_not_walked(self, line_fleet, far):
        vehicle = line_fleet.get("c1")
        asked = []

        def exact(u, v):
            asked.append((u, v))
            return line_fleet.oracle.distance(u, v)

        insertion_candidates(vehicle, far, line_fleet.oracle, line_fleet.grid, distance=exact)
        # direct distance, then only what the surviving append needs: the
        # branch's own legs and the two legs around the new stops
        assert asked == [(10, 11), (1, 3), (3, 5), (5, 10), (10, 11)]

    def test_without_a_grid_nothing_is_rejected_by_bounds(self, line_fleet, far):
        vehicle = line_fleet.get("c1")
        stats = InsertionStatistics()
        candidates = insertion_candidates(vehicle, far, line_fleet.oracle, None, statistics=stats)
        assert stats.candidates_enumerated == 6
        assert stats.candidates_rejected_by_bounds == 0
        assert candidates == insertion_candidates(vehicle, far, line_fleet.oracle, line_fleet.grid)

    def test_disconnected_leg_propagates_unchanged(self, line_fleet, far):
        vehicle = line_fleet.get("c1")
        error = DisconnectedError(5, 10)

        def broken(u, v):
            # the leg from R1's drop-off to the new pick-up, which the one
            # candidate the bounds let through has to cross
            if (u, v) == (5, 10):
                raise error
            return line_fleet.oracle.distance(u, v)

        with pytest.raises(DisconnectedError) as raised:
            insertion_candidates(vehicle, far, line_fleet.oracle, line_fleet.grid, distance=broken)
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
        for grid in (line_fleet.grid, None):
            stats, reference_stats = InsertionStatistics(), InsertionStatistics()
            assert insertion_candidates(vehicle, far, line_fleet.oracle, grid, statistics=stats) == []
            assert reference_insertion_candidates(
                vehicle, far, line_fleet.oracle, grid, statistics=reference_stats
            ) == []
            assert stats == reference_stats


class TestCommitHelper:
    def test_feasible_schedules_for_commit(self, network, oracle, grid):
        vehicle = Vehicle("c2", location=13)
        request = Request(start=12, destination=17, riders=2, request_id="R2")
        schedules = feasible_schedules_for_commit(vehicle, request, oracle, grid)
        assert len(schedules) == 1
        assert [stop.vertex for stop in schedules[0]] == [12, 17]

    def test_commit_helper_empty_when_infeasible(self, network, oracle, grid):
        vehicle = Vehicle("c1", location=1, capacity=1)
        request = Request(start=2, destination=16, riders=3, request_id="RBig")
        assert feasible_schedules_for_commit(vehicle, request, oracle, grid) == []
