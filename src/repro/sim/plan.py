"""Unified execution-plan layer: one driver for every ensemble sweep.

The paper's evaluation workflow is one story — sweep fabrication
mismatch (§4.3) and transient noise over a compiled dynamical system —
and this module tells it through one architecture. An
:class:`ExecutionPlan` captures *what* to integrate (a ``factory(seed)``
per fabricated chip, the seed list, the time span), *how* (grid, solver
options, optional :class:`NoiseSpec` for SDE trials, per-instance
freeze masks) and *where* (an execution backend plus cache/shard
policy). Every public driver — :func:`repro.sim.run_ensemble`,
:func:`repro.sim.run_noisy_ensemble`, and
:func:`repro.simulate_ensemble` — compiles its arguments into a plan
and funnels through :func:`execute_plan`, so features land once and
cover both the deterministic and the stochastic path.

Backends are pluggable through a registry (:data:`BACKENDS`,
:func:`register_backend`):

* ``serial`` — one solve per instance: scipy ``solve_ivp`` per seed on
  the deterministic path, a batch-of-one SDE solve per (chip, trial)
  row on the noisy path (the reference the batched engines are
  benchmarked against);
* ``batch``  — one single-process vectorized solve per structurally
  compatible group (:func:`~repro.sim.batch_solver.solve_batch` /
  :func:`~repro.sim.sde_solver.solve_sde`);
* ``shard``  — the batched solve split into per-core sub-batches across
  a throwaway ``multiprocessing`` pool. Fixed-step methods (``rk4`` and
  the fixed-step SDE trio ``em``/``heun``/``milstein``) are
  bit-identical to the unsharded solve because every instance's
  arithmetic is row-local and Wiener streams are keyed by ``(noise
  seed, element, path)`` — never by batch layout; the adaptive SDE
  pair keeps a path-invariant Wiener *realization* under sharding but
  runs per-shard step control, so it is pinned to the canonical even
  split and kept out of the cache, like rkf45;
* ``pool``   — the same row split run on the **persistent zero-copy
  pool** (:mod:`repro.sim.pool`): workers are spawned once and reused
  across solves, and shard results come back through shared memory
  (:mod:`repro.sim.shm`) instead of pickle. Bit-identical to ``shard``
  (identical splits, identical arithmetic) at a fraction of the
  per-solve overhead;
* ``auto``   — per-group policy: the persistent ``pool`` when a pool
  is requested (``processes > 1``) and the group is large enough, else
  ``batch``.

The executor itself is a *streaming* generator: :func:`stream_plan`
yields one chunk per structurally compatible group as it finishes —
under the ``pool`` backend all groups are submitted up front and chunks
arrive in completion order, so spread/BER analysis can start on the
first group while the stiffest one is still integrating.
:func:`execute_plan` is the barriered form: it drains the stream and
reassembles the chunks (:func:`assemble_chunks`) into the classic
result objects, bit-identical to the pre-streaming driver.

Trajectory caching (:mod:`repro.sim.cache`) is applied uniformly in the
executor — the noisy path is keyed and replayed exactly like the
deterministic one, including sharded SDE results (bit-identical, hence
storable); shard-split *adaptive* ODE solves remain uncachable because
per-shard step control may differ from the whole-group run.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import telemetry
from repro.core.compiler import compile_graphs
from repro.core.graph import DynamicalGraph
from repro.core.odesystem import OdeSystem
from repro.core.simulator import Trajectory, simulate
from repro.errors import SimulationError

from repro.sim import batch_codegen
from repro.sim import sched as sched_module
from repro.sim.array_api import (array_backend_names, canonical_spec,
                                 parse_backend_spec,
                                 resolve_array_backend)
from repro.sim.batch_codegen import (compile_batch, group_by_signature,
                                     surviving_diffusion)
from repro.sim.batch_solver import (BatchTrajectory, _output_grid,
                                    solve_batch)
from repro.sim.cache import (cache_lookup, cache_store,
                             cached_batch_solve, resolve_cache)
from repro.sim.sde_solver import (ADAPTIVE_SDE_METHODS, SDE_METHODS,
                                  solve_sde)

#: Methods handled natively by the batched ODE solver.
BATCH_METHODS = ("auto", "rkf45", "rk45", "rk4")

#: Smallest batched group the auto policy will split across a pool.
DEFAULT_SHARD_MIN = 64


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """The stochastic half of a plan: how many transient-noise trials
    to realize per fabricated chip, and with which SDE solver.

    ``noise_seed`` is the first trial index; every (chip, trial) pair
    draws the deterministic Wiener realization keyed by the token
    ``"<chip_seed>:<noise_seed + trial>"``, so shifting ``noise_seed``
    selects a fresh, non-overlapping set of realizations for the same
    chips while a rerun replays the identical ones.
    """

    trials: int = 8
    method: str = "heun"
    noise_seed: int = 0
    block: int = 256
    reference: bool = True

    def tokens(self, chip_seed) -> list[str]:
        """The chip's per-trial Wiener seed tokens, trial-minor order."""
        return [f"{chip_seed}:{self.noise_seed + trial}"
                for trial in range(self.trials)]


@dataclass
class ExecutionPlan:
    """Everything that determines one ensemble execution.

    :param factory: ``factory(seed) -> DynamicalGraph | OdeSystem``,
        a fresh graph per call (all seeds are built before compiling).
    :param seeds: mismatch seeds, one fabricated instance each.
    :param t_span: integration span ``(t0, t1)``.
    :param backend: execution backend name (see :data:`BACKENDS`);
        ``auto`` picks ``pool`` or ``batch`` per group.
    :param noise: ``None`` for a deterministic (ODE) sweep, a
        :class:`NoiseSpec` for a (chip x trial) SDE sweep.
    :param method: ODE method — ``auto``/``rkf45``/``rk4`` run batched,
        any scipy name forces the serial path (ignored when ``noise``
        is set; the SDE method lives in the spec).
    :param freeze_tol: per-instance step mask tolerance — converged (or,
        on the SDE path, diverged) instances freeze at their current
        state instead of forcing the worst-case step on the whole
        batch; ``None`` disables masking (see
        :func:`~repro.sim.batch_solver.solve_batch`).
    :param serial_backend: RHS backend of the serial scipy path
        (``codegen``/``interpreter``).
    :param min_batch: smallest structural group worth a batched compile.
    :param processes: process-pool width for the ``pool``/``shard``
        backends and the serial fan-out.
    :param shard_min: smallest batched group the ``auto`` policy sends
        to the pool.
    :param cache: trajectory-cache spec (``True``, a directory path, or
        a :class:`~repro.sim.cache.TrajectoryCache`).
    :param array_backend: array namespace of the batched solvers (see
        :mod:`repro.sim.array_api`): ``None``/``"numpy"`` (default), a
        spec string like ``"jax"`` or ``"numpy:float32"``, or an
        :class:`~repro.sim.array_api.ArrayBackend`. The ``pool`` and
        ``shard`` backends refuse non-numpy array backends (their
        workers communicate by pickling, which would silently haul
        device arrays through the host); ``auto`` simply keeps such
        groups single-process. The serial scipy ODE path always runs
        numpy.
    :param schedule: row-split policy of the ``shard``/``pool``
        backends — ``even`` (default: the historical near-equal row
        counts) or ``cost`` (shards cut at predicted-cost quantiles
        using the persisted cost profile, and groups submitted
        longest-predicted-first). Bit-identical to ``even`` for every
        method: fixed-step rows are partition-independent, and
        adaptive groups (rkf45 and the adaptive SDE pair) are pinned
        to the canonical even split (see :mod:`repro.sim.sched`).
    :param overshard: shards per process for fixed-step groups —
        ``overshard * processes`` shards drain from the pool's pull
        queue so fast workers steal the tail of a skewed group
        (default 1, the historical one-shard-per-process).
    :param pin_workers: round-robin pool workers across CPUs via
        ``os.sched_setaffinity`` (Linux; no-op elsewhere).
    :param cost_profile: explicit path for the persisted JSON cost
        profile; default is ``cost_profile.json`` next to the disk
        trajectory cache (no persistence without one).
    """

    factory: object
    seeds: list
    t_span: tuple
    backend: str = "auto"
    noise: NoiseSpec | None = None
    n_points: int = 500
    t_eval: object = None
    method: str = "auto"
    rtol: float = 1e-7
    atol: float = 1e-9
    max_step: float | None = None
    dense: bool = True
    freeze_tol: float | None = None
    serial_backend: str = "codegen"
    min_batch: int = 2
    processes: int | None = None
    shard_min: int = DEFAULT_SHARD_MIN
    cache: object = None
    array_backend: object = None
    schedule: str = "even"
    overshard: int = 1
    pin_workers: bool = False
    cost_profile: object = None

    def array_spec(self) -> str:
        """The plan's canonical array-backend spec string
        (``"name:dtype"``) — what travels through solver options,
        worker payloads, and cache keys."""
        return canonical_spec(self.array_backend)

    def validate(self) -> None:
        """Reject malformed plans up front (unknown backend or SDE
        method, unknown/unshippable array backend, non-positive trial
        counts) instead of silently running a different sweep than the
        one asked for."""
        if self.backend not in BACKENDS:
            raise SimulationError(
                f"unknown execution backend {self.backend!r}; "
                f"registered execution backends: "
                f"{', '.join(backend_names())}; registered array "
                f"backends (array_backend=/--array-backend): "
                f"{', '.join(array_backend_names())}")
        # Array-backend checks are name-based on purpose: rejecting
        # 'jax' under a pickling backend must not require jax to be
        # importable.
        array_name, _ = parse_backend_spec(self.array_spec())
        if array_name not in array_backend_names():
            raise SimulationError(
                f"unknown array backend {array_name!r}; registered "
                f"array backends: {', '.join(array_backend_names())}; "
                f"registered execution backends: "
                f"{', '.join(backend_names())}")
        if array_name != "numpy" and self.backend in ("pool", "shard"):
            raise SimulationError(
                f"execution backend {self.backend!r} cannot run on "
                f"array backend {array_name!r}: its workers exchange "
                "work by pickling, which would silently haul device "
                "arrays through the host. Use backend='batch' (one "
                "in-process device solve) or the numpy array backend.")
        if array_name != "numpy":
            # Resolve eagerly so a missing optional dependency fails
            # the plan up front; raised at solve time instead, the
            # auto-method fallback would demote the groups to the
            # serial numpy path and silently ignore the request.
            resolve_array_backend(self.array_backend)
        if self.noise is not None:
            if self.noise.trials < 1:
                raise SimulationError(
                    f"trials must be >= 1, got {self.noise.trials}")
            if self.noise.method not in SDE_METHODS:
                raise SimulationError(
                    f"unknown SDE method {self.noise.method!r}; "
                    f"expected one of {', '.join(SDE_METHODS)}")
        if self.freeze_tol is not None and self.freeze_tol <= 0.0:
            raise ValueError(
                f"freeze_tol must be > 0 (or None), got "
                f"{self.freeze_tol}")
        if self.schedule not in sched_module.SCHEDULES:
            raise SimulationError(
                f"unknown schedule {self.schedule!r}; expected one of "
                f"{', '.join(sched_module.SCHEDULES)}")
        if int(self.overshard) < 1:
            raise SimulationError(
                f"overshard must be >= 1, got {self.overshard}")

    def run(self, progress=None):
        """Execute the plan (see :func:`execute_plan`)."""
        return execute_plan(self, progress=progress)

    def stream(self, progress=None):
        """Stream the plan (see :func:`stream_plan`)."""
        return stream_plan(self, progress=progress)


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------


def _compile_targets(targets) -> list[OdeSystem]:
    """Compile factory outputs in order: graphs through
    :func:`~repro.core.compiler.compile_graphs` (one structure step per
    distinct structure, one bind step per graph), compiled systems as
    they are."""
    for target in targets:
        if not isinstance(target, (DynamicalGraph, OdeSystem)):
            raise SimulationError(
                f"ensemble factory must return a DynamicalGraph or "
                f"OdeSystem, got {type(target).__name__}")
    compiled = iter(compile_graphs(
        [t for t in targets if isinstance(t, DynamicalGraph)]))
    return [next(compiled) if isinstance(t, DynamicalGraph) else t
            for t in targets]


def _compile_counts(systems) -> tuple[int, int]:
    """``(structures, bound)``: how many distinct compiler structures
    lie behind ``systems`` (each one a full Algorithm-1 compile) and
    how many further instances were only bound to one. Duplicated
    entries (replicated SDE chips) count once."""
    unique = {id(s): s for s in systems if s.structure is not None}
    structures = len({id(s.structure) for s in unique.values()})
    return structures, len(unique) - structures


def _pickled_common(*payload) -> bytes | None:
    """Serialize the group-wide head of a pool payload — factory, span,
    solver options — exactly once, returning the bytes (or ``None``
    when unpicklable, e.g. a lambda factory: callers then fall back to
    in-process execution). The bytes double as the payload shipped to
    the workers, so a sweep never pays the factory's serialization
    twice (it used to be pickled once by the pre-flight probe and again
    by the pool, per task)."""
    try:
        return pickle.dumps(payload)
    except Exception:
        return None


def _pickles(payload) -> bool:
    """Cheap probe for the small per-task remainder (seed lists, noise
    tokens). Probing up front — instead of catching the pool's errors —
    keeps genuine worker exceptions propagating to the caller instead
    of being silently retried in-process."""
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


#: Group-wide payload installed into throwaway pool workers by
#: :func:`_pool_init` — deserialized once per worker instead of once
#: per task.
_POOL_COMMON: tuple | None = None


def _pool_init(blob: bytes) -> None:
    global _POOL_COMMON
    _POOL_COMMON = pickle.loads(blob)


def _serial_job(seed):
    """Pool worker for the serial fan-out: one scipy solve per seed.
    The factory/options arrive once per worker via the initializer.
    Failures only visible in the child (a ``spawn`` worker that cannot
    re-import the factory's module) propagate like any other worker
    error rather than silently degrading."""
    factory, t_span, options = _POOL_COMMON
    trajectory = simulate(factory(seed), t_span, **options)
    return trajectory.t, trajectory.y


def _run_serial(factory, seeds, indices, systems, t_span, options,
                processes):
    """Serial scipy path for structurally unique instances, optionally
    across a process pool. Returns {index: Trajectory}."""
    results: dict[int, Trajectory] = {}
    pending = list(indices)
    telemetry.add("serial.solves", len(pending))
    if processes and processes > 1 and len(pending) > 1:
        common = _pickled_common(factory, t_span, options)
        job_seeds = [seeds[i] for i in pending]
        if common is not None and _pickles(job_seeds):
            import multiprocessing

            with multiprocessing.Pool(processes,
                                      initializer=_pool_init,
                                      initargs=(common,)) as pool:
                rows = pool.map(_serial_job, job_seeds)
            for index, (t, y) in zip(pending, rows):
                results[index] = Trajectory(t=t, y=y,
                                            system=systems[index])
            return results
    for index in pending:
        results[index] = simulate(systems[index], t_span, **options)
    return results


def _whole_group_fuse(n_rows: int, lead: OdeSystem) -> bool:
    """The fuse decision the *unsharded* batch would make. Shard/pool
    workers must inherit it: the emitter's dense-tensor memory guard
    depends on batch size, so a shard deciding for itself could compile
    a fused RHS where the whole group would not, breaking
    shard-vs-whole bit-identity for fixed-step methods."""
    return (n_rows * lead.n_states * lead.n_states
            <= batch_codegen.FUSE_DENSE_LIMIT)


def _shard_parts(n_rows: int, processes: int) -> list[np.ndarray]:
    """The canonical row split: contiguous, near-equal sub-batches
    (now delegated to :func:`repro.sim.sched.even_parts`). ``shard``
    and ``pool`` share it, which is what makes the two backends
    bit-identical even for the adaptive rkf45 (whose step control
    depends on shard membership)."""
    if int(processes) < 2:
        return []
    return sched_module.even_parts(n_rows, processes)


def _batch_shard_job(shard_seeds):
    """Pool worker integrating one shard of a batched ODE group:
    rebuild the shard's instances from the seeds — systems themselves
    rarely pickle — and run the same batched solve the parent would.
    The measured wall time feeds the scheduler's cost profile."""
    factory, t_span, options, fuse = _POOL_COMMON
    started = time.perf_counter()
    systems = _compile_targets([factory(seed) for seed in shard_seeds])
    batch = compile_batch(systems, fuse=fuse,
                          array_backend=options.get("array_backend"))
    trajectory = solve_batch(batch, t_span, **options)
    return trajectory.y, trajectory.nfev, time.perf_counter() - started


def _observe_throwaway(scheduler, key, parts, stacked) -> None:
    """Feed a throwaway-pool group's per-shard wall times into the
    scheduler (the persistent pool routes the same data through
    ``PoolHandle`` instead). Worker identities do not exist here, so
    only the cost profile is refined — no imbalance counters."""
    if scheduler is None or key is None:
        return
    n_rows = sum(len(part) for part in parts)
    stats = [{"offset": int(part[0]), "rows": len(part),
              "seconds": seconds}
             for part, (_y, _nfev, seconds) in zip(parts, stacked)]
    scheduler.observe(key, n_rows, stats)


def _solve_batch_sharded(factory, seeds, indices, systems, t_span,
                         options, processes, scheduler=None,
                         key=None) -> BatchTrajectory | None:
    """Integrate one structural group as per-core sub-batches across a
    throwaway process pool. Returns ``None`` when the pool cannot be
    used (the caller then runs the single-process batched solve).

    Each shard is an independent batched solve over a contiguous slice
    of the group, so stacking the shard results reproduces the
    single-process row order exactly; with fixed-step methods the
    result is bit-identical (every instance's arithmetic is row-local)
    for *any* contiguous partition — which is what lets the scheduler
    cut shards at cost quantiles — while rkf45's shared step sequence
    may differ at tolerance level because error control no longer sees
    the whole group (the scheduler pins it to the canonical split).
    """
    if scheduler is not None:
        parts = scheduler.parts(len(indices), processes,
                                method=options.get("method"), key=key)
    else:
        parts = _shard_parts(len(indices), processes)
    if not parts:
        return None
    fuse = _whole_group_fuse(len(indices), systems[indices[0]])
    common = _pickled_common(factory, t_span, options, fuse)
    shard_seeds = [[seeds[indices[row]] for row in part]
                   for part in parts]
    if common is None or not _pickles(shard_seeds):
        return None
    import multiprocessing

    # Oversharded groups queue more parts than workers; chunksize=1
    # keeps the surplus pull-balanced instead of pre-dealt.
    with multiprocessing.Pool(min(int(processes), len(parts)),
                              initializer=_pool_init,
                              initargs=(common,)) as pool:
        stacked = pool.map(_batch_shard_job, shard_seeds, chunksize=1)
    if scheduler is not None and scheduler.wants_timing(
            options.get("method")):
        _observe_throwaway(scheduler, key, parts, stacked)
    y = np.concatenate([part for part, _nfev, _secs in stacked], axis=0)
    nfev = sum(part_nfev or 0 for _part, part_nfev, _secs in stacked)
    telemetry.add("solver.nfev", nfev)
    grid = _output_grid(t_span, options.get("n_points", 500),
                        options.get("t_eval"))
    return BatchTrajectory(t=grid, y=y,
                           systems=[systems[i] for i in indices],
                           nfev=nfev)


def _compile_sde_rows(factory, rows):
    """Worker-side rebuild of one SDE shard: every chip is rebuilt
    through the factory exactly once per shard and *replicated* for its
    trial rows; the Wiener realization of a row depends only on its
    token, never on the batch layout, so shard rows are bit-identical
    to the unsharded solve. ``rows`` is a list of ``(chip_key,
    chip_seed, noise_token)``; returns ``(replicated, tokens)``.
    Shared by the throwaway shard jobs and the persistent pool's
    workers — one copy keeps the two backends' arithmetic identical."""
    chips: dict = {}
    for chip_key, chip_seed, _token in rows:
        chips.setdefault(chip_key, chip_seed)
    compiled = dict(zip(chips, _compile_targets(
        [factory(chip_seed) for chip_seed in chips.values()])))
    replicated = [compiled[chip_key] for chip_key, _seed, _tok in rows]
    tokens = [token for _key, _seed, token in rows]
    return replicated, tokens


def _sde_shard_job(rows):
    """Pool worker integrating one shard of a replicated SDE batch
    (see :func:`_compile_sde_rows` for the replication contract)."""
    factory, t_span, options, fuse = _POOL_COMMON
    started = time.perf_counter()
    replicated, tokens = _compile_sde_rows(factory, rows)
    batch = compile_batch(replicated, fuse=fuse,
                          array_backend=options.get("array_backend"))
    trajectory = solve_sde(batch, t_span, noise_seeds=tokens, **options)
    return trajectory.y, trajectory.nfev, time.perf_counter() - started


def _sde_rows(chip_seeds, chip_keys, noise_seeds) -> list[tuple]:
    return [(chip_keys[r], chip_seeds[chip_keys[r]], noise_seeds[r])
            for r in range(len(noise_seeds))]


def sharded_solve_sde(factory, chip_seeds, chip_keys, noise_seeds,
                      replicated, t_span, options, processes,
                      scheduler=None, key=None) -> BatchTrajectory | None:
    """Integrate a replicated (chip x trial) SDE batch as per-core
    sub-batches. Row ``r`` belongs to chip ``chip_keys[r]`` (an index
    into ``chip_seeds``) and draws the Wiener realization of
    ``noise_seeds[r]``. Returns ``None`` when the pool cannot be used;
    otherwise the result is **bit-identical** to the unsharded
    :func:`~repro.sim.sde_solver.solve_sde` for the fixed-step methods
    — they keep every instance's arithmetic row-local and streams are
    keyed per token, so splitting rows across processes (under *any*
    contiguous partition, including the scheduler's cost-balanced one)
    cannot change them. Adaptive SDE shards share step control per
    shard, so they are pinned to the canonical even split (results are
    then deterministic for a given worker count) and the caller keeps
    them out of the trajectory cache.
    """
    n_rows = len(noise_seeds)
    if scheduler is not None:
        parts = scheduler.parts(n_rows, processes,
                                method=options.get("method"), key=key)
    else:
        parts = _shard_parts(n_rows, processes)
    if not parts:
        return None
    fuse = _whole_group_fuse(n_rows, replicated[0])
    common = _pickled_common(factory, t_span, options, fuse)
    rows = _sde_rows(chip_seeds, chip_keys, noise_seeds)
    shard_rows = [[rows[r] for r in part] for part in parts]
    if common is None or not _pickles(shard_rows):
        return None
    import multiprocessing

    with multiprocessing.Pool(min(int(processes), len(parts)),
                              initializer=_pool_init,
                              initargs=(common,)) as pool:
        stacked = pool.map(_sde_shard_job, shard_rows, chunksize=1)
    if scheduler is not None and scheduler.wants_timing(
            options.get("method")):
        _observe_throwaway(scheduler, key, parts, stacked)
    y = np.concatenate([part for part, _nfev, _secs in stacked], axis=0)
    nfev = sum(part_nfev or 0 for _part, part_nfev, _secs in stacked)
    telemetry.add("solver.nfev", nfev)
    grid = _output_grid(t_span, options.get("n_points", 500),
                        options.get("t_eval"))
    return BatchTrajectory(t=grid, y=y, systems=list(replicated),
                           nfev=nfev)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


@dataclass
class GroupTask:
    """One structurally compatible group, ready for a backend.

    For ODE groups ``group_systems`` holds one system per chip and
    ``noise_seeds`` is ``None``; for SDE groups ``group_systems`` holds
    the chip-major, trial-minor *replicated* batch, ``chip_keys[r]``
    names the chip (an index into ``chip_indices``) of each row, and
    ``noise_seeds[r]`` its Wiener token. ``options`` are the solver
    keyword arguments of :func:`~repro.sim.batch_solver.solve_batch` /
    :func:`~repro.sim.sde_solver.solve_sde` respectively.
    """

    plan: ExecutionPlan
    indices: list[int]
    group_systems: list[OdeSystem]
    options: dict
    noise_seeds: list[str] | None = None
    chip_keys: list[int] | None = None

    @property
    def chip_seeds(self) -> list:
        seeds = list(self.plan.seeds)
        return [seeds[i] for i in self.indices]


class ExecutionBackend:
    """One strategy for integrating a structurally compatible group.

    Subclasses implement :meth:`solve_ode` and :meth:`solve_sde`, each
    returning ``(BatchTrajectory, storable)`` — ``storable=False``
    vetoes caching a result an uncached rerun could not reproduce
    bit-for-bit. ``batches = False`` marks a backend that forgoes
    vectorized groups entirely (the deterministic executor then sends
    every instance down the per-instance scipy path). Backends that can
    run a group *asynchronously* (for the streaming executor) also
    implement :meth:`submit_ode`/:meth:`submit_sde`, returning a
    :class:`~repro.sim.pool.PoolHandle` or ``None`` when the group must
    run synchronously.
    """

    name = "?"
    #: Whether ODE groups should be batched at all under this backend.
    batches = True

    def solve_ode(self, task: GroupTask):
        raise NotImplementedError

    def solve_sde(self, task: GroupTask):
        raise NotImplementedError

    def submit_ode(self, task: GroupTask):
        """Asynchronous form of :meth:`solve_ode` (``None`` = not
        supported; the executor falls back to the synchronous call)."""
        return None

    def submit_sde(self, task: GroupTask):
        return None


class BatchBackend(ExecutionBackend):
    """Single-process vectorized solve of the whole group."""

    name = "batch"

    def solve_ode(self, task: GroupTask):
        batch = compile_batch(
            task.group_systems,
            array_backend=task.options.get("array_backend"))
        return solve_batch(batch, task.plan.t_span,
                           **task.options), True

    def solve_sde(self, task: GroupTask):
        batch = compile_batch(
            task.group_systems,
            array_backend=task.options.get("array_backend"))
        return solve_sde(batch, task.plan.t_span,
                         noise_seeds=task.noise_seeds,
                         **task.options), True


class SerialBackend(ExecutionBackend):
    """One solve per instance — the legacy/reference shape.

    Deterministic sweeps run scipy ``solve_ivp`` per seed (handled by
    the executor's per-instance path, hence ``batches = False``); noisy
    sweeps run one batch-of-one SDE solve per (chip, trial) row, each
    consuming the identical per-token Wiener stream the batched engines
    use, so responses agree bit for bit with ``batch``/``shard``.
    """

    name = "serial"
    batches = False

    def solve_ode(self, task: GroupTask):  # pragma: no cover - unused
        raise SimulationError(
            "the serial backend integrates ODE instances through the "
            "per-instance scipy path, not through batched groups")

    def solve_sde(self, task: GroupTask):
        singles: dict[int, object] = {}
        rows = []
        for row, system in enumerate(task.group_systems):
            chip = task.chip_keys[row]
            if chip not in singles:
                singles[chip] = compile_batch(
                    [system],
                    array_backend=task.options.get("array_backend"))
            trajectory = solve_sde(singles[chip], task.plan.t_span,
                                   noise_seeds=[task.noise_seeds[row]],
                                   **task.options)
            rows.append(trajectory.y)
        return BatchTrajectory(t=trajectory.t,
                               y=np.concatenate(rows, axis=0),
                               systems=list(task.group_systems)), True


def _pool_width(plan: ExecutionPlan) -> int:
    if plan.processes is not None:
        return int(plan.processes)
    return os.cpu_count() or 1


class ShardBackend(ExecutionBackend):
    """Throwaway-pool sharded solve, falling back to ``batch`` when the
    pool cannot be used (unpicklable factory, group too small, or a
    one-wide pool). Kept as the explicit no-persistent-state variant;
    the ``pool`` backend runs the identical split on reused workers."""

    name = "shard"

    def solve_ode(self, task: GroupTask):
        plan = task.plan
        scheduler = sched_module.scheduler_for(plan)
        key = sched_module.group_key(task.group_systems[0],
                                     task.options.get("method"), "ode")
        sharded = _solve_batch_sharded(
            plan.factory, list(plan.seeds), task.indices,
            {i: s for i, s in zip(task.indices, task.group_systems)},
            plan.t_span, task.options, _pool_width(plan),
            scheduler=scheduler, key=key)
        if sharded is None:
            return BACKENDS["batch"].solve_ode(task)
        # Shard-split rkf45 runs per-shard step control, so an uncached
        # whole-group rerun would not reproduce it bit-for-bit — keep
        # it out of the cache. Fixed-step rk4 shards are bit-identical
        # and safe to store.
        return sharded, task.options.get("method") == "rk4"

    def solve_sde(self, task: GroupTask):
        plan = task.plan
        scheduler = sched_module.scheduler_for(plan)
        key = sched_module.group_key(task.group_systems[0],
                                     task.options.get("method"), "sde")
        sharded = sharded_solve_sde(
            plan.factory, task.chip_seeds, task.chip_keys,
            task.noise_seeds, task.group_systems, plan.t_span,
            task.options, _pool_width(plan), scheduler=scheduler,
            key=key)
        if sharded is None:
            return BACKENDS["batch"].solve_sde(task)
        # Fixed-step SDE shards are bit-identical to the whole-group
        # solve, so the result is safely cachable. The adaptive pair
        # runs per-shard step control (the Wiener *path* is invariant,
        # but the shared accept/reject sequence is not), so a shard
        # split must stay out of the cache — like rkf45 above.
        return sharded, (task.options.get("method")
                         not in ADAPTIVE_SDE_METHODS)


class PoolBackend(ExecutionBackend):
    """Persistent zero-copy pool: the ``shard`` row split executed on
    reused workers (:mod:`repro.sim.pool`) with results returned
    through shared memory (:mod:`repro.sim.shm`) instead of pickle.

    Bit-identical to ``shard`` for every method (the two backends share
    :func:`_shard_parts` and the whole-group fuse decision), and to
    ``batch`` for fixed-step methods. Falls back to ``batch`` when the
    pool cannot be used. Supports asynchronous submission, which is
    what lets the streaming executor yield groups as workers finish.
    """

    name = "pool"

    def _submit(self, task: GroupTask, kind: str, rows: list,
                storable: bool):
        from repro.sim import pool as pool_module
        from repro.sim.shm import ShmBlock

        plan = task.plan
        scheduler = sched_module.scheduler_for(plan)
        method = task.options.get("method")
        key = sched_module.group_key(task.group_systems[0], method,
                                     kind)
        processes = _pool_width(plan)
        parts = scheduler.parts(len(rows), processes, method=method,
                                key=key)
        if not parts:
            return None
        fuse = _whole_group_fuse(len(rows), task.group_systems[0])
        common = _pickled_common(plan.factory, plan.t_span,
                                 task.options, fuse)
        if common is None or not _pickles(rows):
            return None
        grid = _output_grid(plan.t_span,
                            task.options.get("n_points", 500),
                            task.options.get("t_eval"))
        worker_pool = pool_module.get_pool(
            processes, pin_workers=scheduler.pin_workers)
        block = ShmBlock.create((len(rows),
                                 task.group_systems[0].n_states,
                                 len(grid)))
        handle = pool_module.PoolHandle(
            pool=worker_pool, block=block, grid=grid,
            systems=list(task.group_systems), storable=storable,
            masked=task.options.get("freeze_tol") is not None)
        timing = scheduler.wants_timing(method)
        if timing:
            n_rows = len(rows)
            handle.on_shards = (
                lambda stats: scheduler.observe(key, n_rows, stats,
                                                processes=processes))
        offset = 0
        try:
            for part in parts:
                worker_pool.submit(handle, kind, common,
                                   [rows[r] for r in part], offset,
                                   timing=timing)
                offset += len(part)
        except BaseException:
            handle.discard()
            raise
        return handle

    def submit_ode(self, task: GroupTask):
        seeds = list(task.plan.seeds)
        rows = [seeds[i] for i in task.indices]
        # rkf45 runs per-shard step control (same shards as `shard`,
        # hence bit-identical to it) — uncachable for the same reason.
        return self._submit(task, "ode", rows,
                            task.options.get("method") == "rk4")

    def submit_sde(self, task: GroupTask):
        rows = _sde_rows(task.chip_seeds, task.chip_keys,
                         task.noise_seeds)
        # Adaptive SDE shards run per-shard step control — uncachable,
        # mirroring rkf45 (fixed-step shards stay bit-identical).
        return self._submit(task, "sde", rows,
                            task.options.get("method")
                            not in ADAPTIVE_SDE_METHODS)

    def _finish(self, handle):
        try:
            handle.wait()
        except BaseException:
            handle.discard()
            raise
        return handle.result()

    def solve_ode(self, task: GroupTask):
        handle = self.submit_ode(task)
        if handle is None:
            return BACKENDS["batch"].solve_ode(task)
        return self._finish(handle)

    def solve_sde(self, task: GroupTask):
        handle = self.submit_sde(task)
        if handle is None:
            return BACKENDS["batch"].solve_sde(task)
        return self._finish(handle)


class AutoBackend(ExecutionBackend):
    """Per-group policy: send large groups to the persistent pool when
    one was requested (``processes > 1``), run everything else
    single-process — the historical behavior of
    ``run_ensemble(processes=N)``, now with warm workers and pickle-free
    returns (``pool`` is bit-identical to the ``shard`` backend it
    replaced as the auto choice)."""

    name = "auto"

    def _pick(self, task: GroupTask) -> ExecutionBackend:
        plan = task.plan
        # Non-numpy array backends stay in-process: pool workers would
        # pickle device arrays through the host (see validate()).
        if parse_backend_spec(plan.array_spec())[0] != "numpy":
            return BACKENDS["batch"]
        # Size by integrated rows: the group's chips on the ODE path,
        # the full (chip x trial) replication on the SDE path.
        big_enough = len(task.group_systems) >= max(plan.shard_min,
                                                    2 * plan.min_batch)
        if plan.processes and plan.processes > 1 and big_enough:
            return BACKENDS["pool"]
        return BACKENDS["batch"]

    def solve_ode(self, task: GroupTask):
        return self._pick(task).solve_ode(task)

    def solve_sde(self, task: GroupTask):
        return self._pick(task).solve_sde(task)

    def submit_ode(self, task: GroupTask):
        return self._pick(task).submit_ode(task)

    def submit_sde(self, task: GroupTask):
        return self._pick(task).submit_sde(task)


#: The pluggable backend registry. Keys are plan ``backend`` names.
BACKENDS: dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Register (or replace) an execution backend under its name."""
    BACKENDS[backend.name] = backend
    return backend


def backend_names() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(BACKENDS))


register_backend(BatchBackend())
register_backend(SerialBackend())
register_backend(ShardBackend())
register_backend(PoolBackend())
register_backend(AutoBackend())


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


def execute_plan(plan: ExecutionPlan, progress=None):
    """Compile every instance, group by structural signature, and
    integrate each group through the plan's backend (with uniform
    trajectory caching). Returns an
    :class:`~repro.sim.ensemble.EnsembleResult` for deterministic plans
    and a :class:`~repro.sim.noisy.NoisyEnsembleResult` for plans
    carrying a :class:`NoiseSpec`.

    This is the barriered form of :func:`stream_plan`: it drains the
    chunk stream and reassembles it, bit-identically to the historical
    monolithic driver. ``progress`` (a
    :class:`~repro.telemetry.progress.ProgressSink`) still fires per
    finished group — barriered callers get live progress too."""
    seeds = list(plan.seeds)
    plan = replace(plan, seeds=seeds)
    trials = plan.noise.trials if plan.noise is not None else None
    return assemble_chunks(stream_plan(plan, progress=progress), seeds,
                           trials=trials)


def stream_plan(plan: ExecutionPlan, progress=None):
    """Execute the plan as a stream: an iterator of per-group chunks
    (:class:`~repro.sim.ensemble.EnsembleChunk` /
    :class:`~repro.sim.noisy.NoisyEnsembleChunk`), each one finished
    structurally compatible group, yielded as it completes instead of
    barriering the whole sweep.

    Groups running on the ``pool`` backend are all submitted up front
    and arrive in *completion* order — analysis can start on the first
    (fastest) group while the stiffest one is still integrating; other
    backends yield lazily in group order, which still delivers the
    first chunk after one group's integration rather than the whole
    sweep's. :func:`assemble_chunks` folds a drained stream back into
    the barriered result object. Validation errors raise here, not at
    the first ``next()``.

    ``progress`` is an optional
    :class:`~repro.telemetry.progress.ProgressSink`: it gets ``begin``
    with the sweep's totals, ``advance`` after every yielded chunk, and
    ``finish`` when the stream ends (even abandoned mid-way) — the hook
    behind ``repro ensemble --stream --progress``. It receives counts
    only, never data, so it cannot perturb results."""
    plan.validate()
    seeds = list(plan.seeds)
    # Normalize up front: a generator would be exhausted by the first
    # traversal, and shard tasks re-read plan.seeds.
    plan = replace(plan, seeds=seeds)
    return _stream(plan, seeds, progress)


def _progress_totals(plan: ExecutionPlan, systems: list) -> tuple:
    """(total chunks, total instance-rows) the stream will deliver —
    mirrors the grouping the ODE/SDE streams apply, computed only when
    a progress sink is attached."""
    groups = group_by_signature(systems)
    if plan.noise is not None:
        return len(groups), len(systems) * plan.noise.trials
    backend = BACKENDS[plan.backend]
    if backend.batches and plan.method in BATCH_METHODS:
        batched = [g for g in groups if len(g) >= plan.min_batch]
        n_serial = len(systems) - sum(len(g) for g in batched)
        return len(batched) + (1 if n_serial else 0), len(systems)
    return 1, len(systems)


def _stream(plan: ExecutionPlan, seeds: list, progress=None):
    with telemetry.span("plan.compile"):
        with telemetry.span("plan.build"):
            targets = [plan.factory(seed) for seed in seeds]
        with telemetry.span("plan.compile_graph"):
            systems = _compile_targets(targets)
    telemetry.add("plan.instances", len(systems))
    if telemetry.enabled():
        structures, bound = _compile_counts(systems)
        telemetry.add("compile.structures", structures)
        telemetry.add("compile.bound", bound)
    if progress is not None:
        total_chunks, total_rows = _progress_totals(plan, systems)
        progress.begin(groups=total_chunks, instances=total_rows)
    inner = (_stream_ode(plan, seeds, systems) if plan.noise is None
             else _stream_sde(plan, seeds, systems))
    start = time.monotonic()
    first = True
    chunks_done = 0
    rows_done = 0
    try:
        for chunk in inner:
            if telemetry.enabled():
                # Chunk-arrival accounting: the time-to-first-chunk
                # gauge is the streaming executor's headline number,
                # the arrival list its (monotone) completion profile.
                # The same numbers ride on the chunk itself for
                # consumers of stream_plan.
                arrival = time.monotonic() - start
                if first:
                    telemetry.gauge(
                        "stream.time_to_first_chunk_seconds", arrival)
                    first = False
                telemetry.append("stream.chunk_arrival_seconds",
                                 arrival)
                telemetry.add("stream.chunks")
                chunk.stats = {"arrival_seconds": arrival,
                               "order": chunk.order,
                               "rows": len(chunk.indices)}
            if progress is not None:
                chunks_done += 1
                rows_done += len(chunk.indices) * (
                    plan.noise.trials if plan.noise is not None else 1)
                progress.advance(groups_done=chunks_done,
                                 instances_done=rows_done,
                                 backend=plan.backend)
            yield chunk
    finally:
        # Persist whatever the scheduler learned this sweep — also on
        # early abandonment, so a killed stream still warms the next
        # run's cost profile.
        sched_module.flush_plan(plan)
        if progress is not None:
            progress.finish()


def _span_key(t_span) -> tuple[float, float]:
    return (float(t_span[0]), float(t_span[1]))


def _effective_backend(backend: ExecutionBackend,
                       task: GroupTask) -> ExecutionBackend:
    if isinstance(backend, AutoBackend):
        return backend._pick(task)
    return backend


def _submission_order(plan, tasks, kind) -> list[tuple]:
    """``(order, task)`` pairs in submission order. Under
    ``schedule="cost"`` groups submit longest-predicted-first (LPT), so
    the stiffest group starts integrating before the cheap ones queue
    behind it; ``order`` keeps the original label — groups solve
    independently and :func:`assemble_chunks` re-sorts by it, so
    reordering cannot change results."""
    ordered = list(enumerate(tasks))
    if len(ordered) < 2 or plan.schedule != "cost":
        return ordered
    scheduler = sched_module.scheduler_for(plan)
    # The executor's cache kind for ODE groups is "batch"; the shard
    # payload (and hence profile) kind is "ode" — map to the latter so
    # ordering reads the same profile entries the splits write.
    key_kind = "ode" if kind == "batch" else kind

    def predicted(pair):
        task = pair[1]
        lead = task.group_systems[0]
        method = task.options.get("method")
        key = sched_module.group_key(lead, method, key_kind)
        return scheduler.group_cost(key, len(task.group_systems),
                                    lead.n_states, method)

    return sorted(ordered, key=predicted, reverse=True)


def _drive_groups(plan, tasks, store, kind, key_options, solve_sync,
                  submit_async, on_error):
    """The executor's scheduling core: run every :class:`GroupTask`,
    yielding ``(order, task, BatchTrajectory)`` as groups finish.

    Cache hits yield first (they cost a key + load). Pool-backed groups
    are submitted asynchronously *up front* — workers start integrating
    immediately — and yield in completion order; everything else solves
    synchronously and lazily in group order. ``on_error(task, exc)``
    returns True to swallow a group's :class:`SimulationError` (the ODE
    path demotes the group to the serial fallback); storable results
    land in the trajectory cache exactly as the synchronous driver
    stored them. Any teardown — consumer abandoning the stream, a
    worker crash, ``KeyboardInterrupt`` — discards the in-flight
    handles, which releases their shared-memory blocks."""
    backend = BACKENDS[plan.backend]
    hits, sync, runs = [], [], []
    try:
        for order, task in _submission_order(plan, tasks, kind):
            key, hit = cache_lookup(store, task.group_systems, kind,
                                    key_options(task))
            if hit is not None:
                hits.append((order, task, hit))
                continue
            effective = _effective_backend(backend, task)
            handle = submit_async(effective, task)
            if handle is not None:
                runs.append((order, task, key, handle))
            else:
                sync.append((order, task, key, effective))
        yield from hits
        for order, task, key, effective in sync:
            try:
                with telemetry.span(
                        f"group[{order}].solve:{effective.name}"):
                    trajectory, storable = solve_sync(effective, task)
            except SimulationError as exc:
                if not on_error(task, exc):
                    raise
                continue
            cache_store(store, key, trajectory, storable)
            yield (order, task, trajectory)
        while runs:
            from repro.sim import pool as pool_module

            try:
                with telemetry.span("pool.wait"):
                    handle = pool_module.wait_any(
                        [run[3] for run in runs])
            except pool_module.PoolBrokenError as exc:
                # A dying worker takes every in-flight group with it.
                # Consult on_error for each — the ODE auto path demotes
                # them all to the serial fallback, so a hard crash
                # degrades the sweep instead of killing it; explicit
                # methods and the SDE path re-raise.
                pending = runs[:]
                runs.clear()
                for _order, _task, _key, broken in pending:
                    broken.discard()
                if not all(on_error(task, exc)
                           for _order, task, _key, _handle in pending):
                    raise
                break
            position = next(index for index, run in enumerate(runs)
                            if run[3] is handle)
            order, task, key, handle = runs.pop(position)
            try:
                trajectory, storable = handle.result()
            except SimulationError as exc:
                if not on_error(task, exc):
                    raise
                continue
            cache_store(store, key, trajectory, storable)
            yield (order, task, trajectory)
    except BaseException:
        for run in runs:
            run[3].discard()
        raise


def _stream_ode(plan: ExecutionPlan, seeds, systems):
    from repro.sim.ensemble import EnsembleChunk

    backend = BACKENDS[plan.backend]
    store = resolve_cache(plan.cache)

    batchable = backend.batches and plan.method in BATCH_METHODS
    serial_method = "RK45" if plan.method in BATCH_METHODS \
        else plan.method
    serial_options = dict(n_points=plan.n_points, method=serial_method,
                          rtol=plan.rtol, atol=plan.atol,
                          backend=plan.serial_backend,
                          t_eval=plan.t_eval, max_step=plan.max_step)

    serial_indices: list[int] = []
    tasks: list[GroupTask] = []
    if batchable:
        batch_method = "rkf45" if plan.method == "auto" else plan.method
        # The array backend travels as its canonical spec string — a
        # picklable token the pool workers resolve locally, and the
        # component cache keys discriminate on.
        solver_options = dict(n_points=plan.n_points,
                              method=batch_method, rtol=plan.rtol,
                              atol=plan.atol, t_eval=plan.t_eval,
                              max_step=plan.max_step, dense=plan.dense,
                              freeze_tol=plan.freeze_tol,
                              array_backend=plan.array_spec())
        for indices in group_by_signature(systems):
            if len(indices) < plan.min_batch:
                serial_indices.extend(indices)
                continue
            tasks.append(GroupTask(
                plan=plan, indices=list(indices),
                group_systems=[systems[i] for i in indices],
                options=solver_options))
    else:
        serial_indices = list(range(len(systems)))

    fanout = [plan.processes]

    def on_error(task, exc):
        # A group the batch path cannot integrate (e.g. a stiff
        # outlier underflowing the rkf45 step floor) is demoted to the
        # serial scipy path rather than failing the whole ensemble —
        # unless the caller forced a batch method explicitly.
        if plan.method != "auto":
            return False
        if parse_backend_spec(plan.array_spec())[0] != "numpy":
            # The serial fallback integrates on numpy: demoting a
            # device-backend group would silently swap the array
            # backend out from under the caller.
            return False
        from repro.sim.pool import PoolBrokenError

        if isinstance(exc, PoolBrokenError):
            # Whatever killed the worker (OOM, a crashing factory)
            # would kill a serial fan-out worker too — finish the
            # demoted instances in-process.
            fanout[0] = None
        serial_indices.extend(task.indices)
        return True

    for order, task, trajectory in _drive_groups(
            plan, tasks, store, "batch",
            lambda task: {**task.options,
                          "t_span": _span_key(plan.t_span)},
            lambda effective, task: effective.solve_ode(task),
            lambda effective, task: effective.submit_ode(task),
            on_error):
        yield EnsembleChunk(order=order, indices=list(task.indices),
                            trajectories=trajectory.trajectories(),
                            batches=[trajectory],
                            groups=[list(task.indices)])

    if serial_indices:
        with telemetry.span("serial.fanout"):
            serial = _run_serial(plan.factory, seeds, serial_indices,
                                 systems, plan.t_span, serial_options,
                                 fanout[0])
        ordered = sorted(serial_indices)
        yield EnsembleChunk(order=len(tasks), indices=ordered,
                            trajectories=[serial[i] for i in ordered],
                            serial_indices=ordered)


def _group_has_noise(group_systems) -> bool:
    """Whether the group carries diffusion terms that survive
    shared-value folding (a ``noise(0)`` annotation compiles away)."""
    return bool(surviving_diffusion(group_systems))


def _stream_sde(plan: ExecutionPlan, seeds, systems):
    from repro.sim.noisy import NoisyEnsembleChunk

    backend = BACKENDS[plan.backend]
    noise = plan.noise
    store = resolve_cache(plan.cache)
    groups = group_by_signature(systems)

    if not any(_group_has_noise([systems[i] for i in indices])
               for indices in groups):
        raise SimulationError(
            "transient-noise trials were requested (trials="
            f"{noise.trials}) but every instance compiles to a "
            "deterministic system — no live noise() terms or ns "
            "annotations survive; drop trials=/noise_seed= or add "
            "noise sources to the design")

    # rtol/atol drive the embedded-pair controller on the adaptive SDE
    # methods and the freeze-mask criterion everywhere; they must
    # follow the plan so the same freeze_tol masks identically on both
    # halves of a mixed sweep.
    solver_options = dict(n_points=plan.n_points, method=noise.method,
                          t_eval=plan.t_eval, max_step=plan.max_step,
                          block=noise.block, rtol=plan.rtol,
                          atol=plan.atol, freeze_tol=plan.freeze_tol,
                          array_backend=plan.array_spec())
    tasks: list[GroupTask] = []
    for indices in groups:
        replicated: list[OdeSystem] = []
        noise_seeds: list[str] = []
        chip_keys: list[int] = []
        for row_base, index in enumerate(indices):
            replicated.extend([systems[index]] * noise.trials)
            noise_seeds.extend(noise.tokens(seeds[index]))
            chip_keys.extend([row_base] * noise.trials)
        tasks.append(GroupTask(plan=plan, indices=list(indices),
                               group_systems=replicated,
                               options=solver_options,
                               noise_seeds=noise_seeds,
                               chip_keys=chip_keys))

    reference_backend = backend if backend.batches \
        else BACKENDS["batch"]
    # References are the chips' deterministic baselines: freeze masks
    # are intentionally not applied, so reliability metrics always
    # compare against the exact noise-free transient.
    reference_options = dict(n_points=plan.n_points, method="rk4",
                             rtol=plan.rtol, atol=plan.atol,
                             t_eval=plan.t_eval, max_step=plan.max_step,
                             dense=plan.dense, freeze_tol=None,
                             array_backend=plan.array_spec())

    def key_options(task):
        # `block` is excluded from the key on purpose: the Wiener
        # realization is block-size independent, so it cannot change
        # the result.
        trimmed = {k: v for k, v in task.options.items()
                   if k != "block"}
        return {**trimmed, "noise_seeds": tuple(task.noise_seeds),
                "t_span": _span_key(plan.t_span)}

    for order, task, batch in _drive_groups(
            plan, tasks, store, "sde", key_options,
            lambda effective, task: effective.solve_sde(task),
            lambda effective, task: effective.submit_sde(task),
            lambda task, exc: False):
        indices = task.indices
        references = None
        if noise.reference:
            group_systems = [systems[i] for i in indices]
            reference_task = GroupTask(plan=plan, indices=list(indices),
                                       group_systems=group_systems,
                                       options=reference_options)
            with telemetry.span(f"group[{order}].reference"):
                reference_batch = cached_batch_solve(
                    store, group_systems, "batch",
                    {**reference_options,
                     "t_span": _span_key(plan.t_span)},
                    lambda task=reference_task:
                    reference_backend.solve_ode(task))
            references = [reference_batch.instance(row)
                          for row in range(len(indices))]
        yield NoisyEnsembleChunk(
            order=order, indices=list(indices),
            seeds=[seeds[i] for i in indices], trials=noise.trials,
            batches=[batch],
            groups=[list(range(len(indices)))],
            references=references,
            _rows={local: (0, local * noise.trials)
                   for local in range(len(indices))})


def assemble_chunks(chunks, seeds, trials: int | None = None):
    """Fold a (drained) chunk stream back into the barriered result —
    the exact :class:`~repro.sim.ensemble.EnsembleResult` /
    :class:`~repro.sim.noisy.NoisyEnsembleResult` the pre-streaming
    driver returned, independent of chunk arrival order (chunks are
    re-sorted by submission order). ``trials`` disambiguates an empty
    noisy stream; it is ignored when chunks are present."""
    from repro.sim.ensemble import EnsembleResult
    from repro.sim.noisy import NoisyEnsembleChunk, NoisyEnsembleResult

    seeds = list(seeds)
    chunks = sorted(chunks, key=lambda chunk: chunk.order)
    noisy = trials is not None or any(
        isinstance(chunk, NoisyEnsembleChunk) for chunk in chunks)
    if noisy:
        if chunks:
            trials = chunks[0].trials
        result = NoisyEnsembleResult(seeds=seeds, trials=trials or 0)
        with_references = bool(chunks) and all(
            chunk.references is not None for chunk in chunks)
        if with_references:
            result.references = [None] * len(seeds)
        for chunk in chunks:
            batch_number = len(result.batches)
            result.batches.append(chunk.batches[0])
            result.groups.append(list(chunk.indices))
            for row_base, index in enumerate(chunk.indices):
                result._rows[index] = (batch_number,
                                       row_base * result.trials)
                if with_references:
                    result.references[index] = \
                        chunk.references[row_base]
        return result

    result = EnsembleResult(trajectories=[None] * len(seeds))
    serial_indices: list[int] = []
    for chunk in chunks:
        if chunk.batches:
            result.batches.append(chunk.batches[0])
            result.groups.append(list(chunk.indices))
        else:
            serial_indices.extend(chunk.serial_indices)
        # The chunk already unpacked its per-instance views — reuse
        # them instead of materializing a second set.
        for index, trajectory in zip(chunk.indices,
                                     chunk.trajectories):
            result.trajectories[index] = trajectory
    result.serial_indices = sorted(serial_indices)
    return result
