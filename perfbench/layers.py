"""Outside-in per-layer trace of one sweep.

The traced sweep re-runs a workload's ensemble by calling each layer's
public function from here — factory, ``compile_graph``,
``group_by_signature`` + ``compile_batch``, ``solve_batch`` /
``solve_sde``, the trajectory cache's ``key_for``/``get``/``put`` —
each inside a :func:`repro.telemetry.span`. Kernel and Wiener time is
priced separately (per-call time on the workload's own batch times the
solve's call count) and subtracted from the solve, which leaves the
solver's own stepping loop. ``plan.unaccounted_s`` closes the sum
against the untraced sweep.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro import telemetry
from repro.core.compiler import compile_graph
from repro.sim import (TrajectoryCache, WienerSource, compile_batch,
                       group_by_signature, solve_batch, solve_sde)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
LAYER_METRICS = (
    ("factory.build_s", "s", "lower"),
    ("compiler.compile_graph_s", "s", "lower"),
    ("batch_codegen.compile_batch_s", "s", "lower"),
    ("kernel.rhs_s", "s", "lower"),
    ("kernel.diffusion_s", "s", "lower"),
    ("batch_solver.solve_s", "s", "lower"),
    ("batch_solver.loop_s", "s", "lower"),
    ("batch_solver.nfev", "count", "lower"),
    ("batch_solver.reject_ratio", "ratio", "lower"),
    ("sde_solver.solve_s", "s", "lower"),
    ("sde_solver.loop_s", "s", "lower"),
    ("sde_solver.nfev", "count", "lower"),
    ("noise.wiener_s", "s", "lower"),
    ("noise.normals", "count", "lower"),
    ("cache.key_s", "s", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.bytes", "bytes", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("pool.overhead_s", "s", "lower"),
    ("pool.worker_busy_s", "s", "lower"),
    ("pool.queue_wait_s", "s", "lower"),
    ("pool.shm_bytes", "bytes", "lower"),
    ("pool.shards", "count", "lower"),
    ("plan.unaccounted_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: The layers that partition one sweep; with ``plan.unaccounted_s``
#: they add up to the untraced sweep.
SWEEP_LAYERS = (
    "factory.build_s", "compiler.compile_graph_s",
    "batch_codegen.compile_batch_s", "kernel.rhs_s",
    "kernel.diffusion_s", "batch_solver.loop_s", "noise.wiener_s",
    "sde_solver.loop_s", "cache.key_s", "cache.get_s",
    "pool.overhead_s",
)

#: Calls per block when pricing one kernel call.
KERNEL_CALLS = 50
KERNEL_BLOCKS = 5


class Timer:
    """Accumulates span durations by layer name."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, layer: str):
        """A :func:`repro.telemetry.span` that also adds its duration to
        ``seconds[layer]``."""
        with telemetry.span(layer):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.seconds[layer] = (self.seconds.get(layer, 0.0)
                                       + time.perf_counter() - start)


def per_call_seconds(fn, *args) -> float:
    """Median per-call time of ``fn(*args)`` over a few call blocks."""
    blocks = []
    for _ in range(KERNEL_BLOCKS):
        start = time.perf_counter()
        for _ in range(KERNEL_CALLS):
            fn(*args)
        blocks.append((time.perf_counter() - start) / KERNEL_CALLS)
    return float(np.median(blocks))


def build_systems(workload, timer: Timer) -> list:
    """Build and compile one instance at a time, as the plan layer
    does, so no more graphs are alive at once than in the sweep."""
    systems = []
    for seed in workload.seeds:
        with timer.span("factory.build_s"):
            graph = workload.factory(seed)
        with timer.span("compiler.compile_graph_s"):
            systems.append(compile_graph(graph))
    return systems


def _solve_ode(batch, workload, options, timer: Timer, counts: dict):
    """``solve_batch`` with its kernel share priced separately; adds the
    kernel seconds, nfev and step counts to ``counts``."""
    with timer.span("batch_solver.solve_s"):
        with telemetry.collect_metrics() as solve_report:
            trajectory = solve_batch(batch, workload.span, **options)
    rhs = per_call_seconds(batch, workload.span[0], batch.y0)
    counts["kernel.rhs_s"] += rhs * trajectory.nfev
    counts["batch_solver.nfev"] += trajectory.nfev
    counts["steps_accepted"] += solve_report.counter(
        "solver.steps_accepted")
    counts["steps_rejected"] += solve_report.counter(
        "solver.steps_rejected")
    return trajectory


def _empty_counts() -> dict:
    return {"kernel.rhs_s": 0.0, "kernel.diffusion_s": 0.0,
            "sde_kernel_s": 0.0, "batch_solver.nfev": 0,
            "sde_solver.nfev": 0, "noise.normals": 0,
            "steps_accepted": 0, "steps_rejected": 0}


def _finish(timer: Timer, counts: dict) -> dict:
    """Fold timed spans and priced kernels into the layer dict."""
    layers = {name: 0.0 for name, _unit, _better in LAYER_METRICS}
    layers.update(timer.seconds)
    layers.update({key: value for key, value in counts.items()
                   if key in layers})
    sde_kernels = counts["sde_kernel_s"]
    ode_kernels = layers["kernel.rhs_s"] - sde_kernels
    if layers["batch_solver.solve_s"]:
        layers["batch_solver.loop_s"] = (layers["batch_solver.solve_s"]
                                         - ode_kernels)
    if layers["sde_solver.solve_s"]:
        layers["sde_solver.loop_s"] = (layers["sde_solver.solve_s"]
                                       - sde_kernels
                                       - layers["kernel.diffusion_s"]
                                       - layers["noise.wiener_s"])
    steps = counts["steps_accepted"] + counts["steps_rejected"]
    if steps:
        layers["batch_solver.reject_ratio"] = \
            counts["steps_rejected"] / steps
    return layers


def trace_ode(workload) -> tuple[dict, dict]:
    """Decomposed deterministic sweep, one batched solve per group."""
    timer = Timer()
    counts = _empty_counts()
    systems = build_systems(workload, timer)
    with timer.span("batch_codegen.compile_batch_s"):
        groups = group_by_signature(systems)
        batches = [compile_batch([systems[i] for i in group])
                   for group in groups]
    options = workload.solver_options()
    outputs = {f"batch{k}": _solve_ode(batch, workload, options, timer,
                                       counts).y
               for k, batch in enumerate(batches)}
    return _finish(timer, counts), outputs


def trace_sde(workload) -> tuple[dict, dict]:
    """Decomposed (chip x trial) SDE sweep plus its noise-free
    references, mirroring the plan layer's replication and tokens."""
    timer = Timer()
    counts = _empty_counts()
    systems = build_systems(workload, timer)
    trials = workload.trials
    with timer.span("batch_codegen.compile_batch_s"):
        groups = group_by_signature(systems)
        plans = []
        for group in groups:
            replicated, tokens = [], []
            for index in group:
                replicated.extend([systems[index]] * trials)
                tokens.extend(f"{workload.seeds[index]}:{trial}"
                              for trial in range(trials))
            plans.append((compile_batch(replicated), tokens,
                          compile_batch([systems[i] for i in group])))
    sde_options = workload.sde_options()
    noisy_rows, reference_rows = [], []
    for noisy, tokens, reference in plans:
        with timer.span("sde_solver.solve_s"):
            run = solve_sde(noisy, workload.span, noise_seeds=tokens,
                            **sde_options)
        noisy_rows.append(run.y)
        t0, y0 = workload.span[0], noisy.y0
        # Heun: one drift and one diffusion call per half step.
        drift = per_call_seconds(noisy, t0, y0) * run.nfev
        counts["kernel.rhs_s"] += drift
        counts["sde_kernel_s"] += drift
        counts["kernel.diffusion_s"] += (
            per_call_seconds(noisy.diffusion, t0, y0) * run.nfev)
        counts["sde_solver.nfev"] += run.nfev
        steps = run.nfev // 2
        with timer.span("noise.wiener_s"):
            source = WienerSource(tokens, noisy.wiener_paths,
                                  block=sde_options["block"])
            for step in range(steps):
                source.normals(step)
        blocks = -(-steps // source.block)
        counts["noise.normals"] += (len(tokens) * len(noisy.wiener_paths)
                                    * blocks * source.block)
        reference_rows.append(_solve_ode(
            reference, workload, workload.solver_options(), timer,
            counts).y)
    outputs = {"noisy": np.concatenate(noisy_rows),
               "references": np.concatenate(reference_rows)}
    return _finish(timer, counts), outputs


def trace_rerun(workload) -> tuple[dict, dict]:
    """Decomposed warm-cache rerun: build, compile, group, then one
    ``key_for`` + ``get`` per group — no codegen, no solve. The hits are
    stored again into a scratch directory to price ``put`` (a set-up
    cost, kept out of the sweep total)."""
    timer = Timer()
    counts = _empty_counts()
    systems = build_systems(workload, timer)
    with timer.span("batch_codegen.compile_batch_s"):
        groups = group_by_signature(systems)
    store = TrajectoryCache(directory=workload.cache_dir)
    options = dict(workload.solver_options(),
                   t_span=(float(workload.span[0]),
                           float(workload.span[1])))
    outputs, hits = {}, []
    for k, group in enumerate(groups):
        with timer.span("cache.key_s"):
            key = store.key_for([systems[i] for i in group], "batch",
                                options)
        with timer.span("cache.get_s"):
            hit = store.get(key)
        if hit is not None:
            hits.append((key, hit))
            outputs[f"batch{k}"] = hit[1]
    scratch = TrajectoryCache(directory=workload.workdir / "put-probe")
    with timer.span("cache.put_s"):
        for key, (t, y) in hits:
            scratch.put(key, t, y)
    for path in (workload.workdir / "put-probe").glob("*.npz"):
        path.unlink()
    layers = _finish(timer, counts)
    lookups = store.stats.hits + store.stats.misses
    layers["cache.hit_ratio"] = store.stats.hits / lookups
    layers["cache.bytes"] = scratch.stats.bytes_stored
    return layers, outputs


def trace_layers(workload) -> tuple[dict, dict]:
    """The layer dict and the decomposed sweep's outputs, keyed like
    the workload's own ``outputs``."""
    return {"ode": trace_ode, "sde": trace_sde,
            "rerun": trace_rerun}[workload.decomposition](workload)
