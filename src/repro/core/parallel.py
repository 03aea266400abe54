"""Parallel shard execution: a zero-copy shared-memory worker pool.

The batch pipeline of :meth:`~repro.core.dispatcher.Dispatcher.dispatch_batch`
is embarrassingly parallel across disjoint fleet shards -- every request's
per-shard collect/verify stage reads the same immutable routing structures
(the CSR arrays, the CH upward/downward arrays, the batch's prefetched tree
plane) and a per-shard slice of the fleet, while the merge + greedy-commit
stage is inherently sequential.  This module moves exactly the parallel part
across processes, and nothing else:

* **Publish once** -- at pool start the engine's flat NumPy buffers are
  copied into :mod:`multiprocessing.shared_memory` segments
  (:class:`SharedArrayPack`) and described by a tiny manifest of
  ``(name, segment, dtype, shape)`` tuples.  The per-batch ``(k, n)`` tree
  plane gets its own short-lived segment.
* **Attach zero-copy** -- each worker process re-wraps the segments as
  *read-only* ndarrays (:func:`attach_shared_arrays`) and rebuilds a routing
  engine around them (:func:`~repro.roadnet.routing.attach_shared_engine`);
  no matter how large the road network, a worker's per-process memory is the
  Python-object side only (network dict, grid index, mirror fleet).
* **Ship only what changes** -- the spawn payload carries the road network,
  the config and pickle-lean vehicle snapshots
  (:func:`~repro.vehicles.fleet.snapshot_vehicle`); each turn ships the
  committed vehicle's refreshed snapshot to the one worker whose shard it
  belongs to, and per-shard skylines come back as plain option lists.
* **Stay byte-identical** -- workers answer through the same engines, the
  same pooled trees (re-wrapped from the very same plane rows) and the same
  canonical query rooting as the parent, and the merge + commit stage never
  leaves the parent, so outcomes are bit-for-bit those of
  :meth:`~repro.core.dispatcher.Dispatcher.dispatch_sequential`
  (property-tested in ``tests/property/test_parallel_equivalence.py``).

Failure policy: anything going wrong -- ``shared_memory`` missing, the
``spawn`` start method unavailable, a backend without an export surface, a
worker crash mid-batch -- degrades to the in-process path.  The parent fleet
is always current (commits happen there), so a batch can switch from remote
to local collection between two requests without changing a single byte of
output.

The same policy covers *hangs*: every reply wait doubles as a per-shard
heartbeat check.  When :attr:`ParallelDispatchPool.worker_timeout` is set
and a worker sends nothing within it, the worker is declared wedged, killed
(``SIGKILL`` -- polite termination is exactly what a wedged process
ignores) and the batch continues on the in-process path, byte-identically.
``close()`` escalates join -> terminate -> kill for the same reason: a
worker that outlives the parent would leak its attached ``/dev/shm``
segments.  Fault injection for all of this lives in
:mod:`repro.service.faults` (imported lazily to keep the core free of
service-layer imports); the instrumented points here are ``pool.begin``
(parent side), ``worker.batch`` and ``worker.turn`` (worker side).
"""

from __future__ import annotations

import time
import traceback
import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.batch import (
    BatchContext,
    BatchMatchContext,
    BatchStatistics,
    batch_context_builder,
)
from repro.core.config import SystemConfig
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import (
    EngineStats,
    RoutingEngine,
    _TreeView,
    attach_shared_engine,
)
from repro.vehicles.fleet import (
    Fleet,
    ShardedFleetView,
    restore_vehicle,
    snapshot_vehicle,
)

try:  # pragma: no cover - exercised via parallel_available()
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

try:  # pragma: no cover
    import multiprocessing
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    multiprocessing = None
    _shm = None

__all__ = [
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_WORKER_TIMEOUT",
    "ParallelDispatchPool",
    "SharedArrayPack",
    "WorkerTimeoutError",
    "attach_shared_arrays",
    "parallel_available",
]

#: seconds of disuse after which the dispatcher tears a pool down
DEFAULT_IDLE_TIMEOUT = 300.0

#: default watchdog bound on a worker reply (seconds of silence on the pipe
#: before the worker is declared hung and killed)
DEFAULT_WORKER_TIMEOUT = 30.0

#: floor on the ready-wait at spawn time: cold-starting a worker (interpreter
#: boot, numpy import, segment attach) legitimately takes longer than a tight
#: ``worker_timeout``, which only measures in-batch reply silence
STARTUP_TIMEOUT = 120.0

#: how long ``close()`` waits for a polite exit before escalating
CLOSE_JOIN_TIMEOUT = 2.0

#: per-escalation-step join wait (after ``terminate()`` and after ``kill()``)
CLOSE_ESCALATION_TIMEOUT = 1.0


class WorkerTimeoutError(RuntimeError):
    """A pool worker sent no reply within ``worker_timeout`` seconds."""

#: matcher registry mirrored worker-side (the service layer keeps its own);
#: pools refuse to start for matchers outside it and fall back in-process
_MATCHERS = {
    SingleSideSearchMatcher.name: SingleSideSearchMatcher,
    DualSideSearchMatcher.name: DualSideSearchMatcher,
    NaiveKineticTreeMatcher.name: NaiveKineticTreeMatcher,
}


def parallel_available() -> bool:
    """``True`` when the zero-copy worker-pool machinery can run here.

    Requires NumPy, :mod:`multiprocessing.shared_memory` and the ``spawn``
    start method (fork would duplicate the parent's whole heap, defeating
    the zero-copy design and inheriting unsafe locks).
    """
    if _np is None or _shm is None or multiprocessing is None:
        return False
    try:
        multiprocessing.get_context("spawn")
    except ValueError:  # pragma: no cover - platform without spawn
        return False
    return True


def _release_segments(segments: List[object]) -> None:
    """Close and unlink shared-memory segments (idempotent, error-tolerant)."""
    for segment in segments:
        try:
            segment.close()
        except OSError:  # pragma: no cover - defensive
            pass
        try:
            segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - already gone
            pass
    segments.clear()


class SharedArrayPack:
    """Named ndarrays published as shared-memory segments, owned by the parent.

    ``publish`` copies each array into a fresh segment exactly once; workers
    re-wrap the segments via :func:`attach_shared_arrays` without copying.
    The pack owns the segments: :meth:`close` (or garbage collection of the
    pack, via a ``weakref.finalize`` guard) closes *and unlinks* them, so no
    ``/dev/shm`` entry can outlive the process even on an unclean exit.
    """

    def __init__(self, segments: List[object], manifest: List[Tuple[str, str, str, tuple]]) -> None:
        self._segments = segments
        #: ``(logical name, segment name, dtype string, shape)`` per array --
        #: everything a worker needs to re-wrap the segment as an ndarray
        self.manifest = manifest
        self._finalizer = weakref.finalize(self, _release_segments, segments)

    @classmethod
    def publish(cls, arrays: Mapping[str, object]) -> "SharedArrayPack":
        """Copy ``arrays`` into fresh shared-memory segments.

        Raises:
            RuntimeError: when NumPy or ``shared_memory`` is unavailable.
            OSError: when the platform refuses the allocation.
        """
        if _np is None or _shm is None:
            raise RuntimeError("shared-memory publishing requires NumPy and multiprocessing.shared_memory")
        segments: List[object] = []
        manifest: List[Tuple[str, str, str, tuple]] = []
        try:
            for name, array in arrays.items():
                array = _np.ascontiguousarray(array)
                # A zero-length segment is an error on some platforms; keep a
                # 1-byte floor (the manifest's shape governs the view anyway).
                segment = _shm.SharedMemory(create=True, size=max(int(array.nbytes), 1))
                if array.size:
                    view = _np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                    view[...] = array
                segments.append(segment)
                manifest.append((name, segment.name, array.dtype.str, tuple(array.shape)))
        except Exception:
            _release_segments(segments)
            raise
        return cls(segments, manifest)

    @property
    def closed(self) -> bool:
        """``True`` once the segments have been closed and unlinked."""
        return not self._segments

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        self._finalizer()


def attach_shared_arrays(manifest: Sequence[Tuple[str, str, str, tuple]]):
    """Re-wrap published segments as read-only ndarrays (worker side).

    Returns ``(arrays, handles)``: the name -> ndarray mapping plus the live
    ``SharedMemory`` handles the views borrow their buffers from -- the
    caller must keep the handles referenced for as long as the arrays are
    used, and ``close()`` (never ``unlink()``; the parent owns the segments)
    each handle when done.
    """
    arrays: Dict[str, object] = {}
    handles: List[object] = []
    try:
        for name, segment_name, dtype_str, shape in manifest:
            segment = _shm.SharedMemory(name=segment_name)
            view = _np.ndarray(tuple(shape), dtype=_np.dtype(dtype_str), buffer=segment.buf)
            view.flags.writeable = False
            arrays[name] = view
            handles.append(segment)
    except Exception:
        for handle in handles:
            try:
                handle.close()
            except OSError:  # pragma: no cover
                pass
        raise
    return arrays, handles


def _safe_send(connection, message) -> bool:
    """Send on a pipe that may already be gone; ``False`` when it was."""
    try:
        connection.send(message)
        return True
    except (OSError, BrokenPipeError, ValueError):
        return False


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_begin_batch(info: dict, engine: RoutingEngine, grid: GridIndex, fleet: Fleet) -> dict:
    """Install one batch's state in the worker: fleet mirror, views, contexts."""
    plane = None
    plane_handles: List[object] = []
    if info["plane_manifest"] is not None:
        plane_arrays, plane_handles = attach_shared_arrays(info["plane_manifest"])
        plane = plane_arrays["plane"]

    # Mirror the parent fleet for the shards this worker owns.  The shipped
    # per-shard lists follow the fleet's canonical sorted-by-id order, and
    # replace/remove clear grid registrations properly, so the mirror's grid
    # lists are exactly the parent's restricted to the owned vehicles.
    incoming: Dict[str, tuple] = {}
    for shard in sorted(info["shards"]):
        for snapshot in info["shards"][shard]:
            incoming[snapshot[0]] = snapshot
    for vehicle_id in fleet.vehicle_ids():
        if vehicle_id not in incoming:
            fleet.remove_vehicle(vehicle_id)
    for vehicle_id, snapshot in incoming.items():
        vehicle = restore_vehicle(snapshot)
        if vehicle_id in fleet:
            fleet.replace_vehicle(vehicle)
        else:
            fleet.add_vehicle(vehicle)
    shard_count = info["shard_count"]
    views = [
        (shard, ShardedFleetView(fleet, shard, shard_count))
        for shard in sorted(info["shards"])
    ]

    # Rebuild each request's pooled context.  When the parent shipped its
    # tree plane, the worker's start trees are views over the *same rows*
    # (zero-copy, bit-identical); otherwise trees are recomputed through the
    # attached engine, whose providers answer bit-identically by contract.
    # ``trees`` is also this worker's demand pool, exactly as in
    # ``BatchContext.create`` (its counters stay worker-side).
    graph = engine.graph if plane is not None else None
    trees: Dict[object, object] = {}
    build_context = batch_context_builder(engine, grid, trees, BatchStatistics())
    contexts: Dict[int, BatchMatchContext] = {}
    start_rows = info["start_rows"]
    for index, request in enumerate(info["requests"]):
        direct = info["directs"].get(index)
        if direct is None:  # endpoint error recorded parent-side; no turn comes
            continue
        start = request.start
        tree = trees.get(start)
        if tree is None:
            row = start_rows.get(start) if plane is not None else None
            if row is not None:
                tree = _TreeView(graph, plane[row])
            else:
                tree = engine.distances_from(start)
            trees[start] = tree
        contexts[index] = build_context(request=request, direct=direct, start_tree=tree)
    return {"contexts": contexts, "views": views, "plane_handles": plane_handles}


def _worker_release_batch(state: dict) -> dict:
    """Drop a finished batch's plane attachment and contexts."""
    for handle in state.get("plane_handles", ()):
        try:
            handle.close()
        except OSError:  # pragma: no cover
            pass
    return {"contexts": {}, "views": [], "plane_handles": []}


def _worker_main(connection, payload: dict, position: int = 0) -> None:
    """Worker-process entry point: attach, mirror, answer turn commands.

    Protocol (all replies tuple-tagged):
      ``("batch", info)``      -> ``("ok",)``
      ``("turn", i, dirty)``   -> ``("skylines", i, [(shard, options, s)], wall)``
      ``("finish",)``          -> ``("stats", matcher_delta, engine_delta)``
      ``("close",)``           -> process exits
    Any exception is reported as ``("error", traceback)`` instead of killing
    the protocol; the parent treats it as a pool failure and falls back.

    When the spawn payload carries ``fault_specs`` (the chaos harness was
    active in the parent), a :class:`repro.service.faults.FaultPlan` is
    rebuilt here and fired at ``worker.batch`` / ``worker.turn`` with this
    worker's position -- occurrence counters start at zero per spawn, so a
    schedule addresses "worker 1's third turn" deterministically.
    """
    fault_plan = None
    if payload.get("fault_specs"):
        from repro.service.faults import FaultPlan

        fault_plan = FaultPlan(payload["fault_specs"])
    handles: List[object] = []
    try:
        arrays, handles = attach_shared_arrays(payload["manifest"])
        network = payload["network"]
        engine = attach_shared_engine(
            payload["backend"],
            network,
            arrays,
            max_cached_sources=payload["max_cached_sources"],
            tree_provider=payload["tree_provider"],
        )
        grid = GridIndex(network, rows=payload["grid_rows"], columns=payload["grid_columns"])
        fleet = Fleet(grid, engine)
        matcher = _MATCHERS[payload["matcher_name"]](
            fleet, config=payload["config"], price_model=payload["price_model"]
        )
    except Exception:
        _safe_send(connection, ("error", traceback.format_exc()))
        return
    if not _safe_send(connection, ("ready",)):
        return

    engine_baseline = engine.stats.snapshot()
    matcher_baseline = matcher.statistics.as_dict()
    state = {"contexts": {}, "views": [], "plane_handles": []}
    while True:
        try:
            command = connection.recv()
        except (EOFError, OSError):
            break
        kind = command[0]
        try:
            if kind == "close":
                break
            if kind == "batch":
                if fault_plan is not None:
                    fault_plan.fire("worker.batch", position=position)
                state = _worker_release_batch(state)
                state = _worker_begin_batch(command[1], engine, grid, fleet)
                connection.send(("ok",))
            elif kind == "turn":
                if fault_plan is not None:
                    fault_plan.fire("worker.turn", position=position)
                index, dirty = command[1], command[2]
                started = time.perf_counter()
                for snapshot in dirty:
                    fleet.replace_vehicle(restore_vehicle(snapshot))
                context = state["contexts"][index]
                results = []
                for shard, view in state["views"]:
                    shard_started = time.perf_counter()
                    options = matcher.collect_shard(context, view)
                    results.append((shard, options, time.perf_counter() - shard_started))
                connection.send(("skylines", index, results, time.perf_counter() - started))
            elif kind == "finish":
                state = _worker_release_batch(state)
                engine_now = engine.stats.snapshot()
                matcher_now = matcher.statistics.as_dict()
                matcher_delta = {
                    key: matcher_now[key] - matcher_baseline.get(key, 0.0)
                    for key in matcher_now
                }
                connection.send(("stats", matcher_delta, engine_now.delta_since(engine_baseline)))
                engine_baseline, matcher_baseline = engine_now, matcher_now
            else:
                connection.send(("error", f"unknown command {kind!r}"))
        except Exception:
            if not _safe_send(connection, ("error", traceback.format_exc())):
                break
    _worker_release_batch(state)
    for handle in handles:
        try:
            handle.close()
        except OSError:  # pragma: no cover
            pass
    try:
        connection.close()
    except OSError:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# parent-side pool
# ----------------------------------------------------------------------
def _fold_matcher_delta(statistics, delta: Mapping[str, float]) -> None:
    """Fold a worker's matcher-counter delta into the parent's statistics.

    ``requests_answered`` / ``options_returned`` are excluded by design: the
    pipeline bills each rider request once, parent-side, after merging --
    worker ``collect_shard`` calls never bump them anyway.
    """
    statistics.vehicles_considered += int(delta.get("vehicles_considered", 0))
    statistics.vehicles_evaluated += int(delta.get("vehicles_evaluated", 0))
    statistics.vehicles_pruned += int(delta.get("vehicles_pruned", 0))
    statistics.vehicles_beyond_cap += int(delta.get("vehicles_beyond_cap", 0))
    statistics.cells_visited += int(delta.get("cells_visited", 0))
    insertion = statistics.insertion
    insertion.candidates_enumerated += int(delta.get("insertions_enumerated", 0))
    insertion.candidates_feasible += int(delta.get("insertions_feasible", 0))


class ParallelDispatchPool:
    """A persistent pool of worker processes running the collect/verify stage.

    One pool serves one (engine, matcher, worker-count) combination; the
    dispatcher recreates it when any of those change, when it breaks, or
    when it has sat idle past :attr:`idle_timeout`.  Lifecycle::

        pool.ensure_started()                  # lazy spawn + publish
        pool.begin_batch(requests, batch, ...) # ship fleet + plane + directs
        pool.collect(index)                    # one request's shard skylines
        pool.mark_dirty(fleet, vehicle)        # after each parent-side commit
        pool.finish_batch(mstats, estats)      # fold worker counters back
        pool.close()                           # join workers, unlink segments

    Every method degrades instead of raising: a failure marks the pool
    :attr:`broken` and returns a falsy value, and the dispatcher continues
    the very same batch in-process (the parent fleet is always current, so
    the fallback is byte-identical).
    """

    def __init__(
        self,
        engine: RoutingEngine,
        grid: GridIndex,
        config: SystemConfig,
        matcher_name: str,
        price_model: object,
        workers: int,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        worker_timeout: Optional[float] = DEFAULT_WORKER_TIMEOUT,
    ) -> None:
        self._engine = engine
        self._grid = grid
        self._config = config
        self._matcher_name = matcher_name
        self._price_model = price_model
        self.workers = int(workers)
        self.idle_timeout = idle_timeout
        #: watchdog bound on each reply wait (``None`` waits forever)
        self.worker_timeout = worker_timeout
        #: hung-worker reply waits that expired (each one kills the worker)
        self.worker_timeouts = 0
        #: workers forcibly killed (watchdog expiries and close escalations)
        self.worker_kills = 0
        #: identity of the engine the published segments were exported from
        self.engine_token = id(engine)
        #: set on any failure; the pool never recovers, the dispatcher replaces it
        self.broken = False
        self.last_used = time.monotonic()
        #: lifetime wall seconds lost to cross-process shipping (payload
        #: pickling + turn round-trips minus the slowest worker's compute)
        self.ipc_seconds = 0.0
        self.batches_executed = 0
        self._pack: Optional[SharedArrayPack] = None
        self._plane_pack: Optional[SharedArrayPack] = None
        self._processes: List[tuple] = []
        self._started = False
        #: worker position -> {shard: snapshots} for the in-flight batch
        self._batch_active: Dict[int, Dict[int, list]] = {}
        self._batch_shard_count = 1
        #: worker position -> committed-vehicle snapshots awaiting shipment
        self._dirty: Dict[int, list] = {}

    # -- lifecycle -----------------------------------------------------
    def ensure_started(self) -> bool:
        """Spawn workers and publish the engine arrays (idempotent, lazy).

        Returns ``False`` -- and marks the pool broken so the dispatcher
        stops retrying -- whenever any precondition fails: no shared
        memory / spawn support, an engine without an export surface (the
        dict backend), an unknown matcher, or a worker failing to start.
        """
        if self.broken:
            return False
        if self._started:
            return True
        if self.workers < 2 or not parallel_available() or self._matcher_name not in _MATCHERS:
            self.broken = True
            return False
        arrays = self._engine.export_shared()
        if arrays is None:
            self.broken = True
            return False
        try:
            self._pack = SharedArrayPack.publish(arrays)
        except (RuntimeError, OSError, ValueError):
            self.broken = True
            return False
        from repro.service.faults import active_specs  # lazy: avoids an import cycle

        payload = {
            "manifest": self._pack.manifest,
            "backend": self._engine.backend,
            "tree_provider": getattr(self._engine, "_tree_provider_request", "auto"),
            "network": self._grid.network,
            "grid_rows": self._grid.rows,
            "grid_columns": self._grid.columns,
            "config": self._config,
            "price_model": self._price_model,
            "matcher_name": self._matcher_name,
            "max_cached_sources": getattr(self._engine, "_max_cached_sources", 1024),
            "fault_specs": active_specs(),
        }
        context = multiprocessing.get_context("spawn")
        try:
            for position in range(self.workers):
                parent_end, child_end = context.Pipe(duplex=True)
                process = context.Process(
                    target=_worker_main, args=(child_end, payload, position), daemon=True
                )
                process.start()
                child_end.close()
                self._processes.append((process, parent_end))
            startup_bound = None
            if self.worker_timeout is not None:
                startup_bound = max(self.worker_timeout, STARTUP_TIMEOUT)
            for position in range(len(self._processes)):
                # blocks until the worker finished attaching; bounded by the
                # startup floor, not the (possibly much tighter) batch watchdog
                reply = self._recv(position, timeout=startup_bound)
                if reply[0] != "ready":
                    raise RuntimeError(reply[1] if len(reply) > 1 else "worker failed to start")
        except Exception:
            self.close()
            self.broken = True
            return False
        self._started = True
        self.last_used = time.monotonic()
        return True

    # -- watchdog ------------------------------------------------------
    _UNSET = object()

    def _recv(self, position: int, timeout: object = _UNSET):
        """Receive one reply from a worker, bounded by :attr:`worker_timeout`.

        Every reply wait is a heartbeat check: a worker that sends nothing
        within the timeout is wedged (a crash would close the pipe and
        surface immediately as ``EOFError``), so it is killed on the spot --
        ``SIGKILL``, because a wedged process is exactly the one ignoring
        polite signals -- and :class:`WorkerTimeoutError` is raised for the
        caller's failure path to mark the pool broken and fall back.
        ``timeout`` overrides the per-pool bound for waits with different
        latency expectations (the spawn-time ready-wait); ``None`` disables
        the bound for that wait.
        """
        bound = self.worker_timeout if timeout is self._UNSET else timeout
        _, conn = self._processes[position]
        if bound is not None and not conn.poll(bound):
            self.worker_timeouts += 1
            self._kill_worker(position)
            raise WorkerTimeoutError(
                f"worker {position} sent no heartbeat for {bound:.1f}s"
            )
        return conn.recv()

    def _kill_worker(self, position: int) -> None:
        """SIGKILL one worker and reap it (counted in :attr:`worker_kills`)."""
        process, _ = self._processes[position]
        try:
            process.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        process.join(timeout=CLOSE_ESCALATION_TIMEOUT)
        self.worker_kills += 1

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent).

        Escalates per worker: polite close message + join, then
        ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL) -- a wedged
        worker that ignores SIGTERM still cannot outlive the parent or keep
        the published ``/dev/shm`` segments referenced.
        """
        for _, conn in self._processes:
            _safe_send(conn, ("close",))
        for process, conn in self._processes:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            process.join(timeout=CLOSE_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=CLOSE_ESCALATION_TIMEOUT)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.kill()
                process.join(timeout=CLOSE_ESCALATION_TIMEOUT)
                self.worker_kills += 1
        self._processes = []
        self._started = False
        if self._plane_pack is not None:
            self._plane_pack.close()
            self._plane_pack = None
        if self._pack is not None:
            self._pack.close()
            self._pack = None

    # -- batch protocol ------------------------------------------------
    def begin_batch(self, request_list: Sequence[Request], batch: BatchContext, shard_count: int, fleet: Fleet) -> bool:
        """Ship one batch's fleet snapshots, tree plane and direct distances.

        Returns ``False`` (pool broken, no segments leaked) when anything
        fails; the caller then runs the whole batch in-process.
        """
        if not self.ensure_started():
            return False
        try:
            from repro.service.faults import fire as _fire_fault

            _fire_fault("pool.begin")  # chaos-harness hook: may raise FaultInjected
        except Exception:
            self.broken = True
            return False
        started = time.perf_counter()
        plane_manifest = None
        start_rows: Dict[object, int] = {}
        exported = batch.export_tree_plane()
        if exported is not None:
            plane, rows = exported
            try:
                self._plane_pack = SharedArrayPack.publish({"plane": plane})
                plane_manifest = self._plane_pack.manifest
                start_rows = rows
            except (RuntimeError, OSError, ValueError):
                self._plane_pack = None  # workers recompute trees instead
        directs = {
            index: batch.context_for(index).direct
            for index in range(len(request_list))
            if batch.error_for(index) is None
        }
        snapshots = fleet.shard_snapshots(shard_count)
        active: Dict[int, Dict[int, list]] = {}
        for shard in range(shard_count):
            position = shard % len(self._processes)
            active.setdefault(position, {})[shard] = snapshots[shard]
        self._batch_active = active
        self._batch_shard_count = shard_count
        self._dirty = {position: [] for position in active}
        try:
            for position, shards in active.items():
                self._processes[position][1].send(
                    (
                        "batch",
                        {
                            "plane_manifest": plane_manifest,
                            "start_rows": start_rows,
                            "requests": list(request_list),
                            "directs": directs,
                            "shard_count": shard_count,
                            "shards": shards,
                        },
                    )
                )
            for position in active:
                reply = self._recv(position)
                if reply[0] != "ok":
                    raise RuntimeError(reply[1] if len(reply) > 1 else "batch setup failed")
        except Exception:
            self.broken = True
            return False
        self.ipc_seconds += time.perf_counter() - started
        self.batches_executed += 1
        self.last_used = time.monotonic()
        return True

    def collect(self, index: int) -> Optional[Dict[int, Tuple[list, float]]]:
        """Run request ``index``'s collect/verify turn on the workers.

        Returns ``{shard: (options, shard_seconds)}`` covering every shard,
        or ``None`` on failure (pool broken; compute the turn locally).
        Queued dirty-vehicle snapshots ride along with each worker's turn
        command, so its mirror sees exactly the parent's pre-turn state.
        """
        if self.broken:
            return None
        started = time.perf_counter()
        try:
            for position in self._batch_active:
                self._processes[position][1].send(("turn", index, self._dirty.get(position, [])))
                self._dirty[position] = []
            results: Dict[int, Tuple[list, float]] = {}
            compute = 0.0
            for position in self._batch_active:
                reply = self._recv(position)
                if reply[0] != "skylines" or reply[1] != index:
                    raise RuntimeError(reply[1] if reply[0] == "error" else f"protocol desync at turn {index}")
                for shard, options, seconds in reply[2]:
                    results[shard] = (options, seconds)
                compute = max(compute, reply[3])
        except Exception:
            self.broken = True
            return None
        # The turn's IPC share: round-trip wall minus the slowest worker's
        # compute time (workers run concurrently, so that is the part the
        # parent actually waited on top of the work itself).
        self.ipc_seconds += max(0.0, (time.perf_counter() - started) - compute)
        self.last_used = time.monotonic()
        return results

    def mark_dirty(self, fleet: Fleet, vehicle) -> None:
        """Queue a committed vehicle's snapshot for its owning worker.

        Commits never move a vehicle, so its shard -- and therefore its
        worker -- is stable for the whole batch; only that one worker needs
        the refreshed state, with the next turn command.
        """
        if self.broken:
            return
        shard = fleet.shard_of_vehicle(vehicle, self._batch_shard_count)
        position = shard % len(self._processes)
        if position in self._dirty:
            self._dirty[position].append(snapshot_vehicle(vehicle))

    def finish_batch(self, matcher_statistics, engine_stats: EngineStats) -> None:
        """End the batch: fold worker counters back, drop the plane segment.

        Worker-side matcher and engine counters are accumulated into the
        parent's -- the aggregation across processes that keeps the E3/E10
        counter panels truthful under parallel dispatch.  A broken pool
        skips the fold (its workers' partial counters are lost with it).
        """
        if not self.broken:
            try:
                for position in self._batch_active:
                    self._processes[position][1].send(("finish",))
                for position in self._batch_active:
                    reply = self._recv(position)
                    if reply[0] != "stats":
                        raise RuntimeError(reply[1] if len(reply) > 1 else "finish failed")
                    _fold_matcher_delta(matcher_statistics, reply[1])
                    engine_stats.accumulate(reply[2])
            except Exception:
                self.broken = True
        if self._plane_pack is not None:
            self._plane_pack.close()
            self._plane_pack = None
        self._batch_active = {}
        self._dirty = {}
        self.last_used = time.monotonic()
