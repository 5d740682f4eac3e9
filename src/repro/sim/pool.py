"""Persistent zero-copy worker pool for sharded ensemble solves.

The ``shard`` backend pays two per-solve overheads the paper's
large-scale mismatch/noise sweeps cannot amortize: a fresh
``multiprocessing.Pool`` is spawned (and torn down) for every batched
group, and every shard's trajectory tensor returns through pickle.
This module removes both:

* **Persistent workers** — :class:`WorkerPool` spawns its processes
  once and reuses them across solves (and across sweeps inside one
  session). Workers keep a per-process cache of unpickled shared
  payloads, and the batch-codegen kernel cache
  (:mod:`repro.sim.batch_codegen`) means a structural group's RHS
  source is compiled at most once per worker no matter how many shards
  or reruns it serves.
* **Shared-memory results** — every task carries a tiny
  :class:`~repro.sim.shm.ShmBlock` header; the worker integrates its
  shard and stores the rows straight into the shared tensor. Only a
  small metadata dict (nfev, freeze mask) rides back on the result
  queue, so ``(n_instances, n_points, n_states)``-scale arrays never
  pass through pickle.

The parent-side unit of work is a :class:`PoolHandle`: one batched
group, split into per-worker shard tasks, all writing disjoint row
slices of one shared block. Handles complete asynchronously —
:func:`wait_any` is what lets the plan layer's streaming executor yield
finished groups while the stiffest group is still integrating.

Failure contract: an exception inside a task travels back pickled and
re-raises in the parent (so the plan layer's demote-to-serial handling
keeps working); a *dying* worker (hard crash, ``os._exit``) breaks the
whole pool — it is torn down, evicted from the registry, and
:class:`PoolBrokenError` raised; the next :func:`get_pool` call spawns
a fresh one. Every path discards the group's shared block, so no
``/dev/shm`` segment outlives its sweep.
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
import queue as queue_module
import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import SimulationError

from repro.sim import shm as shm_module
from repro.sim.batch_codegen import compile_batch
from repro.sim.batch_solver import BatchTrajectory, solve_batch
from repro.sim.sde_solver import solve_sde


class PoolBrokenError(SimulationError):
    """A pool worker died without reporting a result. The pool has been
    torn down; the next :func:`get_pool` call starts a fresh one."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


@dataclass
class ShardTask:
    """One shard of a batched group, as shipped to a worker.

    ``common`` is the pickle of the group-wide ``(factory, t_span,
    options, fuse)`` tuple — serialized once per group and cached
    per-worker, so the factory's (possibly large) attribute payload is
    not re-pickled for every shard. ``rows`` is the shard's work list:
    mismatch seeds for ODE shards, ``(chip_key, chip_seed, token)``
    triples for SDE shards. ``header``/``row_offset`` name the shared
    block and the shard's slice of it.
    """

    task_id: int
    kind: str
    common: bytes
    rows: list
    header: tuple
    row_offset: int
    #: Telemetry flag: when True the worker measures queue wait, busy
    #: time, and payload-cache behavior and ships them back inside the
    #: result meta. Deliberately *not* part of ``common`` (that blob is
    #: the payload-cache key) and never read by the solve itself, so
    #: collection cannot perturb results.
    collect: bool = False
    #: ``time.monotonic()`` at submit (when ``collect``) — monotonic is
    #: comparable across processes on Linux, unlike ``perf_counter``,
    #: so the worker can compute its queue wait from it.
    submitted_at: float = 0.0


#: Per-worker cache of unpickled ``common`` payloads, keyed by content
#: hash: the shards of one group (and of every rerun of the same sweep)
#: deserialize the factory exactly once per worker.
_COMMON_CACHE: dict[bytes, tuple] = {}
_COMMON_CACHE_MAX = 32


def _load_common(blob: bytes) -> tuple[tuple, bool]:
    """The unpickled common payload plus whether it was a cache hit."""
    key = hashlib.sha1(blob).digest()
    hit = _COMMON_CACHE.get(key)
    if hit is not None:
        return hit, True
    hit = pickle.loads(blob)
    if len(_COMMON_CACHE) >= _COMMON_CACHE_MAX:
        _COMMON_CACHE.clear()
    _COMMON_CACHE[key] = hit
    return hit, False


def _run_shard(task: ShardTask) -> dict:
    """Integrate one shard and store its rows into the shared block.
    The arithmetic is exactly the ``shard`` backend's — the rebuild
    helpers are literally shared with :mod:`repro.sim.plan` (same row
    split, same whole-group fuse decision) — so pool results are
    bit-identical to ``shard`` (and, for fixed-step methods, to
    ``batch``)."""
    # Lazy import: plan.py is the registry module and imports this one
    # inside functions only, so importing it here (in the worker) is
    # cycle-free.
    from repro.sim.plan import (_compile_counts, _compile_sde_rows,
                                _compile_targets)

    started = time.monotonic() if task.collect else 0.0
    factory_common, payload_hit = _load_common(task.common)
    factory, t_span, options, fuse = factory_common
    array_backend = options.get("array_backend")
    if task.kind == "ode":
        systems = _compile_targets([factory(seed) for seed in task.rows])
        batch = compile_batch(systems, fuse=fuse,
                              array_backend=array_backend)
        trajectory = solve_batch(batch, t_span, **options)
    else:
        systems, tokens = _compile_sde_rows(factory, task.rows)
        batch = compile_batch(systems, fuse=fuse,
                              array_backend=array_backend)
        trajectory = solve_sde(batch, t_span, noise_seeds=tokens,
                               **options)
    block = shm_module.ShmBlock.attach(task.header)
    try:
        block.write_rows(task.row_offset, trajectory.y)
    finally:
        block.close()
    meta = {
        "n_rows": trajectory.y.shape[0],
        "nfev": trajectory.nfev,
        "frozen": None if trajectory.frozen is None
        else np.asarray(trajectory.frozen, dtype=bool),
    }
    if task.collect:
        # Workers have no ContextVar collector (they outlive any single
        # collection window), so counters are computed directly and
        # ride home in the meta dict; the parent folds them in via
        # telemetry.merge_worker when the handle resolves.
        import multiprocessing

        busy = time.monotonic() - started
        structures, bound = _compile_counts(systems)
        meta["telemetry"] = {
            "worker": multiprocessing.current_process().name,
            "shards": 1,
            "rows": trajectory.y.shape[0],
            "nfev": trajectory.nfev or 0,
            "queue_wait_seconds": max(0.0,
                                      started - task.submitted_at),
            "busy_seconds": busy,
            "payload_cache_hits": int(payload_hit),
            "payload_cache_misses": int(not payload_hit),
            "compile_structures": structures,
            "compile_bound": bound,
            # Timestamped span for the trace timeline: ``t0`` is the
            # worker's monotonic clock at shard start, which the parent
            # rebases onto the collection window (monotonic is the one
            # clock comparable across processes on Linux).
            "events": [{"name": f"shard.solve:{task.kind}",
                        "t0": started, "seconds": busy,
                        "rows": trajectory.y.shape[0]}],
        }
    return meta


def _encode_error(exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc)
    except Exception:
        return pickle.dumps(SimulationError(
            f"pool worker failed with unpicklable "
            f"{type(exc).__name__}: {exc}"))


def _decode_error(blob: bytes) -> BaseException:
    try:
        return pickle.loads(blob)
    except Exception:  # pragma: no cover - defensive
        return SimulationError("pool worker failed (undecodable error)")


def _worker_main(tasks, results):  # pragma: no cover - subprocess body
    """Worker loop: runs until the ``None`` sentinel. Exceptions —
    including solver ``SimulationError``s — are reported, never fatal,
    so one stiff shard cannot take the pool down."""
    while True:
        task = tasks.get()
        if task is None:
            break
        try:
            meta = _run_shard(task)
        except BaseException as exc:  # noqa: BLE001 - must stay alive
            results.put((task.task_id, False, _encode_error(exc)))
        else:
            results.put((task.task_id, True, meta))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class PoolHandle:
    """Parent-side state of one in-flight batched group.

    Tracks the group's pending shard task ids, accumulates the small
    per-shard metadata, and owns the group's shared block until
    :meth:`result` (success) or :meth:`discard` (any failure path)
    releases it.
    """

    pool: "WorkerPool"
    block: shm_module.ShmBlock
    grid: np.ndarray
    systems: list
    storable: bool
    masked: bool
    pending: set = field(default_factory=set)
    offsets: list = field(default_factory=list)
    metas: dict = field(default_factory=dict)
    error: BaseException | None = None
    #: Optional observer called from :meth:`result` with one dict per
    #: shard (``offset``/``rows``/``seconds``/``worker``) — the
    #: scheduler's cost-model feedback channel (see
    #: :mod:`repro.sim.sched`). Only populated when shards were
    #: submitted with ``timing=True``.
    on_shards: object = None

    @property
    def done(self) -> bool:
        return not self.pending

    def _complete(self, task_id: int, ok: bool, payload) -> None:
        self.pending.discard(task_id)
        if ok:
            self.metas[task_id] = payload
        elif self.error is None:
            self.error = _decode_error(payload)

    def wait(self) -> None:
        """Block until every shard reported (or the pool broke)."""
        while self.pending:
            self.pool.drain_one()

    def result(self):
        """The group's ``(BatchTrajectory, storable)`` — call when
        :attr:`done`. Raises the first shard error (after releasing the
        block) so callers treat pool groups like any other solve."""
        if self.pending:
            raise SimulationError("pool group is still running")
        if self.error is not None:
            self.discard()
            raise self.error
        y = self.block.read_copy()
        self.discard()
        nfev = sum(meta["nfev"] or 0 for meta in self.metas.values())
        if telemetry.enabled():
            telemetry.add("pool.shards", len(self.metas))
            telemetry.add("pool.shm_bytes_transferred", y.nbytes)
            telemetry.add("pool.pickle_bytes_avoided", y.nbytes)
            telemetry.add("solver.nfev", nfev)
            for meta in self.metas.values():
                info = meta.get("telemetry")
                if info is not None:
                    telemetry.merge_worker(info)
        frozen = None
        if self.masked:
            frozen = np.zeros(y.shape[0], dtype=bool)
            for task_id, offset in self.offsets:
                part = self.metas[task_id]["frozen"]
                if part is not None:
                    frozen[offset:offset + len(part)] = part
            telemetry.add("solver.frozen_rows", int(frozen.sum()))
        if self.on_shards is not None:
            stats = []
            for task_id, offset in self.offsets:
                meta = self.metas.get(task_id) or {}
                info = meta.get("telemetry") or {}
                stats.append({"offset": offset,
                              "rows": meta.get("n_rows", 0),
                              "seconds": info.get("busy_seconds"),
                              "worker": info.get("worker")})
            self.on_shards(stats)
        return BatchTrajectory(t=self.grid, y=y,
                               systems=list(self.systems),
                               frozen=frozen, nfev=nfev), self.storable

    def discard(self) -> None:
        """Release the shared block and forget pending tasks
        (idempotent) — the single cleanup path for success, shard
        errors, pool breakage, and ``KeyboardInterrupt`` alike."""
        for task_id in self.pending:
            self.pool._handles.pop(task_id, None)
        self.pending.clear()
        self.block.discard()


class WorkerPool:
    """A fixed set of persistent worker processes plus task/result
    queues. Spawned once (see :func:`get_pool`) and reused across
    solves; submitting is cheap, results route back to their
    :class:`PoolHandle` by task id."""

    def __init__(self, processes: int, pin: bool = False):
        import multiprocessing

        context = multiprocessing.get_context()
        self.processes = int(processes)
        self.pin = bool(pin)
        self.pinned = 0
        self._tasks = context.Queue()
        self._results = context.Queue()
        self._handles: dict[int, PoolHandle] = {}
        self._next_task_id = 0
        self.broken = False
        self._workers = [
            context.Process(target=_worker_main,
                            args=(self._tasks, self._results),
                            daemon=True, name=f"ark-pool-{index}")
            for index in range(self.processes)]
        for worker in self._workers:
            worker.start()
        if self.pin:
            from repro.sim.sched import pin_worker_processes

            self.pinned = pin_worker_processes(
                [worker.pid for worker in self._workers])

    def submit(self, handle: PoolHandle, kind: str, common: bytes,
               rows: list, row_offset: int,
               timing: bool = False) -> int:
        """Queue one shard. ``timing=True`` forces the worker-side wall
        clock measurement even without an active telemetry window — the
        scheduler's cost model consumes it via ``PoolHandle.on_shards``
        (collection never perturbs the solve either way)."""
        if self.broken:
            raise PoolBrokenError(
                "worker pool is broken; acquire a fresh one with "
                "get_pool()")
        task_id = self._next_task_id
        self._next_task_id += 1
        handle.pending.add(task_id)
        handle.offsets.append((task_id, row_offset))
        self._handles[task_id] = handle
        collect = telemetry.enabled() or timing
        self._tasks.put(ShardTask(task_id=task_id, kind=kind,
                                  common=common, rows=rows,
                                  header=handle.block.header,
                                  row_offset=row_offset,
                                  collect=collect,
                                  submitted_at=time.monotonic()
                                  if collect else 0.0))
        return task_id

    def drain_one(self, poll: float | None = None) -> PoolHandle:
        """Route the next result to its handle and return that handle.

        Event-driven: waits on the result queue's pipe *and* every
        worker's death sentinel in one ``multiprocessing.connection.
        wait`` call, so the parent wakes the moment a result (or a
        crash) lands instead of paying the historical up-to-100 ms
        timeout poll per chunk. A worker that vanished with tasks
        outstanding breaks the pool (every in-flight group is
        unrecoverable — its shard may have died mid-write). ``poll``
        optionally bounds one wait (compatibility knob; ``None`` blocks
        until an event)."""
        while True:
            try:
                task_id, ok, payload = self._results.get_nowait()
            except queue_module.Empty:
                if not self._wait_for_result(poll):
                    self._break()
                    raise PoolBrokenError(
                        "a pool worker died without reporting a "
                        "result; the pool was torn down") from None
                continue
            handle = self._handles.pop(task_id, None)
            if handle is None:
                continue  # result of a discarded (cancelled) group
            handle._complete(task_id, ok, payload)
            return handle

    def _wait_for_result(self, poll: float | None = None) -> bool:
        """Block until the result queue (probably) has data. ``False``
        means a worker died with nothing left to drain — the caller
        breaks the pool."""
        from multiprocessing import connection

        reader = getattr(self._results, "_reader", None)
        if reader is None:  # pragma: no cover - exotic queue impl
            # No pipe to select on: fall back to the historical
            # bounded sleep + liveness check.
            time.sleep(poll if poll is not None else 0.05)
            return all(worker.is_alive() for worker in self._workers)
        sentinels = [worker.sentinel for worker in self._workers]
        ready = connection.wait([reader, *sentinels], timeout=poll)
        if reader in ready:
            return True
        if ready:
            # Only death sentinels fired. The dead worker's queue
            # feeder may still be flushing a final result it managed to
            # put before exiting — give the pipe one bounded chance.
            if reader.poll(0.1):
                return True
            return all(worker.is_alive() for worker in self._workers)
        return True  # bounded wait timed out with everyone alive

    def _break(self) -> None:
        self.broken = True
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for key, pool in list(_POOLS.items()):
            if pool is self:
                del _POOLS[key]

    def close(self) -> None:
        """Orderly shutdown: sentinel every worker, then join."""
        if self.broken:
            return
        self.broken = True
        for _ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=2.0)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
        for key, pool in list(_POOLS.items()):
            if pool is self:
                del _POOLS[key]


def wait_any(handles: list[PoolHandle]) -> PoolHandle:
    """Block until at least one of ``handles`` is complete and return
    it — the streaming executor's yield-as-workers-finish primitive."""
    while True:
        for handle in handles:
            if handle.done:
                return handle
        handles[0].pool.drain_one()


# ----------------------------------------------------------------------
# Pool registry (spawn once, reuse across solves)
# ----------------------------------------------------------------------

_POOLS: dict[int, WorkerPool] = {}


def active_tasks() -> int:
    """Shard tasks currently in flight across every registered pool —
    the live-progress dashboard's "workers busy" signal (an in-flight
    task is either executing on a worker or queued at one)."""
    return sum(len(pool._handles) for pool in _POOLS.values())


def get_pool(processes: int, pin_workers: bool = False) -> WorkerPool:
    """The process-wide persistent pool of the given width, spawning it
    on first use (or after breakage). Reuse across solves is the point:
    repeated sweeps skip both worker spawn and — through the per-worker
    caches — payload deserialization and RHS source compilation.

    Pools of *other* widths are retired when they are idle, so a
    session that sweeps with varying ``processes`` values does not
    accumulate resident workers; an idle-width pool that is still
    wanted simply respawns on its next use (paying one cold start).
    ``pin_workers`` is a spawn-time property: an idle same-width pool
    with the wrong pinning respawns, an in-flight one is reused as-is
    (pinning is best-effort, never worth breaking a running sweep).
    :func:`shutdown_pools` releases everything explicitly."""
    processes = int(processes)
    for width, other in list(_POOLS.items()):
        # A pool with registered handles has groups in flight (e.g. an
        # interleaved stream of a different width) — leave it alone.
        if width != processes and not other._handles:
            other.close()
    pool = _POOLS.get(processes)
    if pool is not None and not pool.broken \
            and pool.pin != bool(pin_workers) and not pool._handles:
        pool.close()
        pool = None
    if pool is None or pool.broken:
        pool = WorkerPool(processes, pin=pin_workers)
        _POOLS[processes] = pool
    return pool


def shutdown_pools() -> None:
    """Close every registered pool (atexit hook; also used by tests).

    After the workers are gone, any surviving parent-owned shared-
    memory segment is by definition leaked — each group's block should
    have been released when its handle resolved or was discarded — so
    the shutdown doubles as the leak check: a ``ResourceWarning`` names
    and sizes every survivor."""
    had_pools = bool(_POOLS)
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()
    if had_pools:
        shm_module.warn_leaked_blocks("pool shutdown")


atexit.register(shutdown_pools)
