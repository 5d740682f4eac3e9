"""One benchmark interpreter: set a workload up, run its first sweep,
then (by role) measure warm sweeps or trace the layers.

Started by ``perfbench/run.py``, one interpreter at a time; it reports
to the launcher through ``@@``-prefixed stdout lines:

* ``@@ready`` — the first sweep has returned (the launcher's set-up
  clock stops here);
* ``@@result <json>`` — the role's samples or metrics and its check
  counts.

Roles:

* ``measure`` — after the first sweep (the untimed warm-up: it spawns
  the pool and compiles the kernels), closed-loop timed sweeps for
  ``--seconds``, each checked: finite, expected shape, bit-identical
  to the run's first sweep, ``ref_err`` (probe rows against the serial
  scipy solve) within tolerance, and the workload's own checks. The
  run's first interpreter computes the serial reference and saves it
  with its first sweep's digests for the others;
* ``trace`` — after the first sweep, for ``--seconds`` paired
  iterations of an untraced sweep, the program's own sweep under
  telemetry and the outside-in layer decomposition of :mod:`layers`
  (see :func:`trace_iteration`); then one telemetry window with both,
  written out as a Chrome trace, and a per-layer table.
"""

from __future__ import annotations

import os

# Before numpy loads: BLAS threads plus the two pool workers must not
# exceed the two CPUs the benchmark is sized for.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.sim.pool import shutdown_pools  # noqa: E402
from repro.telemetry import collect_metrics, export_trace, span  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest sweeps a role times, however short ``--seconds`` is.
MIN_SWEEPS = 3
#: Unit of each per-layer metric; the ``s`` ones are rescaled to the
#: reference host speed.
UNITS = {name: unit for name, unit, _better in layers.LAYER_METRICS}
#: Per-layer metric -> the program's own telemetry counter it reports.
POOL_COUNTERS = {"pool.worker_busy_s": "pool.worker_busy_seconds",
                 "pool.queue_wait_s": "pool.queue_wait_seconds",
                 "pool.shm_bytes": "pool.shm_bytes_transferred",
                 "pool.shards": "pool.shards"}


def emit(line: str) -> None:
    print(line, flush=True)


# ----------------------------------------------------------------------
# Pool-worker accounting: persistent workers are never reaped, so
# RUSAGE_CHILDREN misses them; read /proc for each live child instead.
# ----------------------------------------------------------------------


def _children() -> list:
    return [child.pid for child in multiprocessing.active_children()]


def children_cpu_s() -> float:
    """CPU seconds consumed so far by the live child processes."""
    total = 0.0
    for pid in _children():
        try:
            with open(f"/proc/{pid}/schedstat") as handle:
                total += int(handle.read().split()[0]) / 1e9
        except (OSError, ValueError, IndexError):
            pass
    return total


def children_peak_rss_mb() -> float:
    total = 0.0
    for pid in _children():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except (OSError, ValueError, IndexError):
            pass
    return total


def cpu_now() -> float:
    return time.process_time() + children_cpu_s()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + children_peak_rss_mb()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def row_errors(workload, result, reference) -> np.ndarray:
    """Each probe row's largest deviation from the serial solve, over
    the probe node's peak; ``ref_err`` is their maximum."""
    rows = workload.checked_rows(result)
    return (np.max(np.abs(rows - reference), axis=1)
            / np.max(np.abs(reference)))


def ref_digits(workload, result, reference) -> float:
    """Mean over the probe rows of ``-log10`` of their errors (floored
    at 1e-16, so an exact match reads 16 digits). On the adaptive-step
    workloads a row's error depends on the rest of its batch, hence on
    the workload seed; the mean over rows varies less with the seed than
    the largest error does."""
    errors = row_errors(workload, result, reference)
    return float(np.mean(-np.log10(np.maximum(errors, 1e-16))))


def digests(outputs: dict) -> dict:
    """SHA-256 of each output array's bytes: bit-identity checks without
    keeping a second copy of the first sweep in memory."""
    return {name: hashlib.sha256(np.ascontiguousarray(array)).hexdigest()
            for name, array in outputs.items()}


def check(workload, result, first, reference) -> list[str]:
    """Every check one sweep must pass; returns failure messages.
    ``first`` holds the digests of the run's first sweep."""
    problems = []
    outputs = workload.outputs(result)
    shapes = workload.expected_shapes()
    if sorted(outputs) != sorted(shapes):
        problems.append(f"outputs {sorted(outputs)} != {sorted(shapes)}")
    for name, array in outputs.items():
        if array.shape != shapes.get(name):
            problems.append(f"{name} shape {array.shape} != "
                            f"{shapes.get(name)}")
        if not np.all(np.isfinite(array)):
            problems.append(f"{name} is not finite")
    if digests(outputs) != first:
        problems.append("outputs differ from the run's first sweep")
    error = float(np.max(row_errors(workload, result, reference)))
    if not error <= workload.ref_tolerance:
        problems.append(f"ref_err {error:.3e} above "
                        f"{workload.ref_tolerance:.1e}")
    problems.extend(workload.extra_checks(result))
    return problems


class Tally:
    """Attempted/failed sweep counts, with the first failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append("; ".join(problems))


# ----------------------------------------------------------------------
# Host speed. The host's CPUs are shared, and their speed swings by tens
# of percent within seconds; a fixed calibration kernel timed just
# before and after each sweep measures that speed, so timings can be
# rescaled to a reference host speed. The kernel mixes small-array
# numpy work and dict/string work, like the sweeps, and runs none of
# the program's code.
# ----------------------------------------------------------------------

#: Calibration kernel seconds at the reference host speed (its typical
#: time on an uncontended 2-CPU x86-64 host).
CAL_REFERENCE_S = 0.05
_CAL_ARRAY = np.linspace(0.0, 1.0, 64 * 53).reshape(64, 53)


def host_speed() -> float:
    """``CAL_REFERENCE_S`` over the calibration kernel's time now: below
    1 while the host runs slower than the reference."""
    start = time.perf_counter()
    array = _CAL_ARRAY
    for _ in range(900):
        array = np.sin(array) * 0.5 + array * 0.25 + 1e-3
    counts: dict[str, int] = {}
    for index in range(60000):
        key = f"k{index % 97}"
        counts[key] = counts.get(key, 0) + index
    return CAL_REFERENCE_S / (time.perf_counter() - start)


def timed_sweep(workload, tally: Tally, first, reference):
    """One checked sweep: ``(wall_s, cpu_s, host_speed)``, or ``None``
    if it failed to return. Garbage from the previous sweep is
    collected first so every sweep starts from the same heap; the host
    speed is the harmonic mean of calibrations just before and after."""
    gc.collect()
    before = host_speed()
    cpu0 = cpu_now()
    start = time.perf_counter()
    try:
        result = workload.sweep()
    except Exception:
        tally.record([traceback.format_exc(limit=3)])
        return None
    wall = time.perf_counter() - start
    cpu = cpu_now() - cpu0
    after = host_speed()
    tally.record(check(workload, result, first, reference))
    return wall, cpu, 2.0 / (1.0 / before + 1.0 / after)


def timed_call(fn):
    """``(result, seconds, host_speed)`` of ``fn()``, with the host speed
    calibrated just before and after the call."""
    before = host_speed()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    after = host_speed()
    return result, seconds, 2.0 / (1.0 / before + 1.0 / after)


def sweep_loop(workload, seconds: float, tally, first, reference):
    """Closed loop: the next sweep starts when the previous returns.
    Returns the per-sweep ``(wall_s, cpu_s, host_speed)`` triples."""
    sweeps = []
    deadline = time.perf_counter() + seconds
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() < deadline:
        timed = timed_sweep(workload, tally, first, reference)
        if timed is not None:
            sweeps.append(timed)
        elif tally.attempted >= MIN_SWEEPS and \
                time.perf_counter() >= deadline:
            break
    return sweeps


# ----------------------------------------------------------------------
# Roles
# ----------------------------------------------------------------------


def shared_first_sweep(workload, first_result, path: pathlib.Path):
    """The digests of the run's first sweep and the run's reference
    data: the first interpreter of a run computes the serial reference
    (and any workload reference rows) and saves them with its first
    sweep's digests; later interpreters load them, so every interpreter
    checks against the same first sweep."""
    if path.exists():
        with np.load(path) as saved:
            data = dict(saved)
    else:
        data = {f"out:{name}": np.array(digest) for name, digest
                in digests(workload.outputs(first_result)).items()}
        data["reference"] = workload.serial_reference()
        data.update({f"check:{name}": array for name, array
                     in workload.check_data().items()})
        np.savez(path, **data)
    workload.load_check_data({name[6:]: array
                              for name, array in data.items()
                              if name.startswith("check:")})
    first = {name[4:]: str(digest) for name, digest in data.items()
             if name.startswith("out:")}
    return first, data["reference"]


def measure(workload, seconds, tally, first, reference) -> dict:
    sweeps = sweep_loop(workload, seconds, tally, first, reference)
    walls, cpus, speeds = (list(column) for column in zip(*sweeps))
    return {"sweep_walls_s": walls, "sweep_cpus_s": cpus,
            "host_speeds": speeds, "peak_rss_mb": peak_rss_mb()}


def trace_iteration(workload, tally, first, reference):
    """One paired trace iteration, its parts back to back so that they
    see the same host conditions:

    1. the untraced sweep, checked like a measured one;
    2. for the pool workload, the same rows in-process;
    3. the outside-in layer decomposition of :mod:`layers`, with
       telemetry off so that the program's own hooks do not inflate the
       layers (its outputs must equal the first sweep's).

    Returns the iteration's per-layer values, seconds rescaled to the
    reference host speed, or ``None`` if the untraced sweep failed.
    Within one iteration the sweep layers plus ``plan.unaccounted_s``
    add up to the untraced sweep."""
    timed = timed_sweep(workload, tally, first, reference)
    if timed is None:
        return None
    untraced = timed[0] * timed[2]
    if workload.pool:
        gc.collect()
        _result, seconds, speed = timed_call(workload.in_process_sweep)
        in_process = seconds * speed
    gc.collect()
    (values, outputs), _seconds, speed = timed_call(
        lambda: layers.trace_layers(workload))
    tally.record([] if digests(outputs) == first else [
        "layer decomposition output differs from the sweep"])
    values = {name: value * speed if UNITS[name] == "s" else value
              for name, value in values.items()}
    if workload.pool:
        # Pool sweep minus the in-process sweep of the same rows.
        values["pool.overhead_s"] = untraced - in_process
    values["plan.unaccounted_s"] = untraced - sum(
        values[name] for name in layers.SWEEP_LAYERS)
    values["untraced_sweep_s"] = untraced
    return values


def traced_window(workload, tally, first, reference):
    """``MIN_SWEEPS`` of the program's own sweeps and then the layer
    decomposition in one telemetry window: the report behind the Chrome
    trace, with the benchmark's layer spans next to the program's spans
    and counters. Returns the report, and the traced sweeps' seconds
    and host speeds."""
    traced, speeds = [], []
    problems = []
    gc.collect()
    with collect_metrics(meta={"workload": workload.name,
                               "seed": workload.seed}) as report:
        for _ in range(MIN_SWEEPS):
            with span("sweep"):
                result, seconds, speed = timed_call(workload.sweep)
            traced.append(seconds)
            speeds.append(speed)
            problems.extend(check(workload, result, first, reference))
            del result
        with span("layers"):
            _values, outputs = layers.trace_layers(workload)
    if digests(outputs) != first:
        problems.append("traced layer decomposition output differs "
                        "from the sweep")
    tally.record(problems)
    return report, traced, speeds


def trace(workload, seconds, tally, first, reference, out_dir):
    """Paired trace iterations for ``seconds``, every per-layer metric
    the median of its per-iteration values; then the traced window,
    which gives the program's pool counters (per sweep), the tracing
    overhead (the median traced sweep against the untraced median) and
    the Chrome trace. Writes the trace and the layer table."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SWEEPS or time.perf_counter() < deadline:
        values = trace_iteration(workload, tally, first, reference)
        if values is not None:
            samples.append(values)
        elif tally.attempted >= MIN_SWEEPS and \
                time.perf_counter() >= deadline:
            break
    metrics = {name: statistics.median(sample[name] for sample in samples)
               for name, _unit, _better in layers.LAYER_METRICS
               if name not in POOL_COUNTERS}
    untraced_s = statistics.median(sample["untraced_sweep_s"]
                                   for sample in samples)
    report, traced, speeds = traced_window(workload, tally, first,
                                           reference)
    speed = statistics.median(speeds)
    for name, counter in POOL_COUNTERS.items():
        metrics[name] = report.counter(counter) / len(traced) * (
            speed if UNITS[name] == "s" else 1.0)
    traced_s = statistics.median(
        seconds * speed for seconds, speed in zip(traced, speeds))
    metrics["trace.overhead_s"] = traced_s - untraced_s
    stem = f"{workload.name}-seed{workload.seed}"
    trace_path = export_trace(report, out_dir / f"{stem}.trace.json")
    table = layer_table(workload.name, metrics, untraced_s, len(samples))
    (out_dir / f"{stem}.layers.txt").write_text(table)
    print(table, end="")
    details = {"untraced_sweep_s": untraced_s, "traced_sweep_s": traced_s,
               "iterations": samples, "chrome_trace": str(trace_path)}
    return metrics, details


def layer_table(name: str, metrics: dict, sweep_s: float,
                iterations: int) -> str:
    """Seconds and share of the untraced sweep of each sweep layer."""
    lines = [f"{name}: untraced sweep {sweep_s:.4f} s; medians of "
             f"{iterations} paired iterations",
             f"  {'layer':32s} {'seconds':>10s} {'share':>8s}"]
    for layer in layers.SWEEP_LAYERS + ("plan.unaccounted_s",):
        seconds = metrics[layer]
        lines.append(f"  {layer:32s} {seconds:10.4f} "
                     f"{100.0 * seconds / sweep_s:7.1f}%")
    lines.append(f"  {'trace.overhead_s':32s} "
                 f"{metrics['trace.overhead_s']:10.4f} "
                 f"{100.0 * metrics['trace.overhead_s'] / sweep_s:7.1f}%")
    return "\n".join(lines) + "\n"


def provenance(workload) -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "workload": workload.name, "seed": workload.seed,
            "why": workload.why, "layer_map": workload.layer_map}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--role", choices=("measure", "trace"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--out-dir", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tally = Tally()
    try:
        workload.setup()
        first_result = workload.sweep()
        emit("@@ready")
        first, reference = shared_first_sweep(
            workload, first_result, args.workdir.parent / "first-sweep.npz")
        tally.record(check(workload, first_result, first, reference))
        digits = ref_digits(workload, first_result, reference)
        del first_result
        if args.role == "measure":
            payload = {"samples": dict(
                measure(workload, args.seconds, tally, first, reference),
                ref_digits=digits)}
        else:
            metrics, details = trace(workload, args.seconds, tally,
                                     first, reference, args.out_dir)
            payload = {"metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in metrics.items()},
                "details": details}
    finally:
        shutdown_pools()
    payload.update(attempted=tally.attempted, failed=tally.failed,
                   failures=tally.failures,
                   provenance=provenance(workload))
    emit("@@result " + json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
