"""Unit tests for the kinetic tree (Section 3.2.2, Fig. 3)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidScheduleError
from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.roadnet.generators import figure1_network
from repro.roadnet.shortest_path import DistanceOracle
from repro.vehicles.kinetic_tree import KineticTree
from repro.vehicles.schedule import RequestState


@pytest.fixture
def oracle() -> DistanceOracle:
    return DistanceOracle(figure1_network())


def stops_for(request: Request) -> tuple:
    return (
        Stop(request.start, request.request_id, StopKind.PICKUP, request.riders),
        Stop(request.destination, request.request_id, StopKind.DROPOFF, request.riders),
    )


@pytest.fixture
def r1() -> Request:
    return Request(start=2, destination=16, riders=2, request_id="R1")


@pytest.fixture
def r2() -> Request:
    return Request(start=12, destination=17, riders=2, request_id="R2")


class TestBasics:
    def test_empty_tree(self):
        tree = KineticTree(root_location=1)
        assert tree.is_empty
        assert tree.schedules() == []
        assert tree.schedule_count() == 0
        assert tree.stops() == []

    def test_set_schedules_deduplicates(self, r1):
        p1, d1 = stops_for(r1)
        tree = KineticTree(1, schedules=[(p1, d1), (p1, d1)])
        assert tree.schedule_count() == 1

    def test_set_schedules_requires_same_stop_set(self, r1, r2):
        p1, d1 = stops_for(r1)
        p2, d2 = stops_for(r2)
        with pytest.raises(InvalidScheduleError):
            KineticTree(1, schedules=[(p1, d1), (p2, d2)])

    def test_orderings_of_same_stops_accepted(self, r1, r2):
        p1, d1 = stops_for(r1)
        p2, d2 = stops_for(r2)
        tree = KineticTree(1, schedules=[(p1, d1, p2, d2), (p1, p2, d1, d2)])
        assert tree.schedule_count() == 2
        assert len(tree.stops()) == 4
        assert tree.stop_vertices() == [2, 12, 16, 17]

    def test_clear(self, r1):
        p1, d1 = stops_for(r1)
        tree = KineticTree(1, schedules=[(p1, d1)])
        tree.clear()
        assert tree.is_empty


class TestQueries:
    def test_best_schedule_minimises_distance(self, oracle, r1, r2):
        p1, d1 = stops_for(r1)
        p2, d2 = stops_for(r2)
        long_order = (p1, p2, d2, d1)
        short_order = (p1, p2, d1, d2)
        tree = KineticTree(1, schedules=[long_order, short_order])
        best = tree.best_schedule(oracle.distance)
        assert best in (long_order, short_order)
        from repro.vehicles.schedule import schedule_distance

        assert schedule_distance(1, best, oracle.distance) == min(
            schedule_distance(1, long_order, oracle.distance),
            schedule_distance(1, short_order, oracle.distance),
        )

    def test_best_schedule_empty_tree(self, oracle):
        assert KineticTree(1).best_schedule(oracle.distance) is None
        assert KineticTree(1).next_stop(oracle.distance) is None

    def test_sole_branch_is_returned_unmeasured(self, r1):
        """One branch leaves nothing to choose, so no distance is asked --
        each would root a tree at the vertex a moving taxi is passing."""

        def no_distance(source, target):
            raise AssertionError(f"measured {source} -> {target}")

        p1, d1 = stops_for(r1)
        tree = KineticTree(1, schedules=[(p1, d1)])
        assert tree.best_schedule(no_distance) == (p1, d1)
        assert tree.next_stop(no_distance, origin_offset=0.5) == p1

    def test_next_stop(self, oracle, r1):
        p1, d1 = stops_for(r1)
        tree = KineticTree(1, schedules=[(p1, d1)])
        assert tree.next_stop(oracle.distance) == p1

    def test_total_distance(self, oracle, r1):
        p1, d1 = stops_for(r1)
        tree = KineticTree(1, schedules=[(p1, d1)])
        assert tree.total_distance(oracle.distance) == pytest.approx(18.0)
        assert KineticTree(1).total_distance(oracle.distance) == 0.0


class TestAdvance:
    def test_advance_through_prunes_and_moves_root(self, oracle, r1, r2):
        p1, d1 = stops_for(r1)
        p2, d2 = stops_for(r2)
        tree = KineticTree(1, schedules=[(p1, d1, p2, d2), (p1, p2, d1, d2), (p1, p2, d2, d1)])
        tree.advance_through(p1)
        assert tree.root_location == p1.vertex
        assert tree.schedule_count() == 3
        assert all(schedule[0] != p1 for schedule in tree.schedules())

    def test_advance_through_wrong_stop_raises(self, r1, r2):
        p1, d1 = stops_for(r1)
        tree = KineticTree(1, schedules=[(p1, d1)])
        p2, _ = stops_for(r2)
        with pytest.raises(InvalidScheduleError):
            tree.advance_through(p2)

    def test_advance_to_empty(self, r1):
        p1, d1 = stops_for(r1)
        tree = KineticTree(1, schedules=[(p1, d1)])
        tree.advance_through(p1)
        tree.advance_through(d1)
        assert tree.is_empty
        assert tree.root_location == d1.vertex

    def test_every_mutator_bumps_the_revision(self, r1, r2):
        p1, d1 = stops_for(r1)
        p2, d2 = stops_for(r2)
        tree = KineticTree(1)
        seen = [tree.revision]
        for mutate in (
            lambda: tree.set_schedules([(p1, d1, p2, d2), (p1, p2, d1, d2)]),
            lambda: tree.set_root_location(3),
            lambda: tree.prune([(p1, p2, d1, d2)]),
            lambda: tree.replace([(p1, p2, d1, d2)]),  # same schedules: still a mutation
            lambda: tree.advance_through(p1),
            tree.clear,
        ):
            mutate()
            seen.append(tree.revision)
        assert seen == sorted(set(seen))  # strictly increasing

    def test_prune(self, r1, r2):
        p1, d1 = stops_for(r1)
        p2, d2 = stops_for(r2)
        keep = (p1, p2, d1, d2)
        tree = KineticTree(1, schedules=[keep, (p1, p2, d2, d1)])
        tree.prune([keep])
        assert tree.schedules() == [keep]


class TestMaterialisedTree:
    def test_prefix_sharing(self, oracle, r1, r2):
        p1, d1 = stops_for(r1)
        p2, d2 = stops_for(r2)
        tree = KineticTree(1, schedules=[(p1, p2, d1, d2), (p1, p2, d2, d1)])
        root = tree.build_tree(oracle.distance, capacity=4)
        # Both schedules share the p1 -> p2 prefix, then fork.
        assert len(root.children) == 1
        assert root.children[0].stop == p1
        assert root.branch_count() == 2
        assert root.node_count() == 1 + 2 + 2 * 2  # root + shared prefix + two forks of two stops

    def test_annotations(self, oracle, r1):
        p1, d1 = stops_for(r1)
        tree = KineticTree(1, schedules=[(p1, d1)])
        states = {
            "R1": RequestState(
                request=r1, onboard=False, direct_distance=oracle.distance(2, 16),
                planned_pickup_remaining=8.0,
            )
        }
        root = tree.build_tree(oracle.distance, capacity=4, request_states=states)
        pickup_node = root.children[0]
        assert pickup_node.occupancy == 2
        assert pickup_node.dist_from_root == pytest.approx(8.0)
        dropoff_node = pickup_node.children[0]
        assert dropoff_node.occupancy == 0
        assert dropoff_node.dist_from_root == pytest.approx(18.0)
        assert dropoff_node.detour_slack >= 0.0

    def test_iter_branches_matches_schedules(self, oracle, r1, r2):
        p1, d1 = stops_for(r1)
        p2, d2 = stops_for(r2)
        schedules = [(p1, p2, d1, d2), (p1, p2, d2, d1)]
        tree = KineticTree(1, schedules=schedules)
        root = tree.build_tree(oracle.distance, capacity=4)
        branches = set(root.iter_branches())
        assert branches == set(schedules)
