"""Ark ensemble benchmark: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload tline_mc --seed 1 --seconds 10 \\
        --trace 0

Workloads (see ``perfbench/workloads.py`` for why each exists):
``tline_mc``, ``puf_sde``, ``maxcut_pool``, ``tline_rerun``.

With ``--trace 0`` the run reports the end-to-end metrics. Their times
are seconds at a reference host speed, because the speed of the shared
host swings by tens of percent within seconds: a fixed calibration
kernel (``host_speed`` in ``perfbench/sweep.py``) is timed just before
and after every sweep; each sweep's wall and CPU seconds are multiplied
by the host speed measured around it, and each interpreter's set-up
time by the median host speed of its sweeps. The unscaled figures are
printed and kept in the run record.

* ``setup_s`` — median, over ``INTERPRETERS`` fresh interpreters
  started one at a time, of the time from interpreter start to the
  first completed sweep (``import repro``, workload set-up, first sweep
  with its kernel compiles);
* ``sweep_s`` / ``cpu_s`` — median wall and CPU seconds (parent plus
  pool workers) of the warm closed-loop sweeps each interpreter then
  times for its share of ``--seconds``;
* ``peak_rss_mb`` — peak resident memory, parent plus pool workers,
  median over those interpreters;
* ``ref_digits`` — accuracy against the serial scipy solve of the
  same probe instances: the mean over the probe rows of ``-log10`` of
  each row's largest deviation over the probe node's peak (every sweep
  is also checked to keep the largest deviation, ``ref_err``, within
  the workload's tolerance).

With ``--trace 1`` one interpreter reports the per-layer metrics of
``perfbench/layers.py`` and writes a Chrome trace and a layer table to
``.perfbench_out/``. Each run works in a fresh directory under
``.perfbench_out/tmp`` (removed at the end), so no run inherits a warm
trajectory cache, cost profile or pool. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.

This launcher imports neither numpy nor the program, so its own
footprint stays out of the measurements.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
#: Fresh interpreters per ``--trace 0`` run, each a set-up sample that
#: then times warm sweeps for its share of ``--seconds``.
INTERPRETERS = 3
#: Hard cap on one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
#: How long an interpreter's leftover descendants may take to exit
#: before they are killed.
ORPHAN_GRACE_S = 10.0
#: Linux ``prctl`` option: orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the child subreaper, so that descendants an interpreter
    leaves behind (multiprocessing's resource tracker outlives it)
    re-parent to this launcher, which then waits for them."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def git_sha(root: pathlib.Path) -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


class Child:
    """One benchmark interpreter in its own process group, killed with
    its pool workers if the run overruns."""

    def __init__(self, command, env, deadline):
        self.start = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True, env=env,
                                        start_new_session=True)
        self.watchdog = threading.Timer(
            max(0.0, deadline - time.perf_counter()), self.kill)
        self.watchdog.start()
        self.ready_s = None
        self.result = None

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def drain(self) -> int:
        """Relay the child's output; record ``@@ready`` and
        ``@@result``; return its exit code."""
        for line in self.process.stdout:
            if line.startswith("@@ready"):
                self.ready_s = time.perf_counter() - self.start
            elif line.startswith("@@result "):
                self.result = json.loads(line[len("@@result "):])
            else:
                sys.stdout.write(line)
        code = self.process.wait()
        self.watchdog.cancel()
        self.reap_descendants()
        return code

    def reap_descendants(self) -> None:
        """Wait for every adopted descendant of the interpreter; kill
        its process group if any is still running after
        ``ORPHAN_GRACE_S``."""
        start = time.perf_counter()
        while time.perf_counter() - start < 2 * ORPHAN_GRACE_S:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                if time.perf_counter() - start > ORPHAN_GRACE_S:
                    self.kill()
                time.sleep(0.01)


def end_to_end(samples: list[dict], setups: list[float]):
    """The end-to-end metrics of a ``--trace 0`` run from its
    interpreters' samples, plus the same figures unscaled."""

    def pooled(key):
        return [value for sample in samples for value in sample[key]]

    def scaled(key):
        return [value * speed for sample in samples
                for value, speed in zip(sample[key], sample["host_speeds"])]

    def metric(value, unit):
        return {"value": value, "unit": unit}

    median = statistics.median
    metrics = {
        "sweep_s": metric(median(scaled("sweep_walls_s")), "s"),
        "cpu_s": metric(median(scaled("sweep_cpus_s")), "s"),
        "setup_s": metric(median(
            setup * median(sample["host_speeds"])
            for setup, sample in zip(setups, samples)), "s"),
        "peak_rss_mb": metric(median(sample["peak_rss_mb"]
                                     for sample in samples), "MB"),
        # Every interpreter's first sweep is bit-identical to the
        # first one's, so they share one ref_digits.
        "ref_digits": metric(samples[0]["ref_digits"], "digits"),
    }
    unscaled = {"sweep_s": median(pooled("sweep_walls_s")),
                "cpu_s": median(pooled("sweep_cpus_s")),
                "setup_s": median(setups),
                "host_speed": median(pooled("host_speeds"))}
    return metrics, unscaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    adopt_orphans()
    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} has no src/repro; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-", dir=out_dir / "tmp"))
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(run_dir),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if args.trace:
        roles, seconds = ["trace"], args.seconds
    else:
        roles = ["measure"] * INTERPRETERS
        seconds = args.seconds / INTERPRETERS
    setups, results = [], []
    try:
        for index, role in enumerate(roles):
            command = [sys.executable, str(HERE / "sweep.py"),
                       "--role", role, "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(seconds),
                       "--workdir", str(run_dir / f"{index}-{role}"),
                       "--out-dir", str(out_dir)]
            child = Child(command, env, deadline)
            code = child.drain()
            if code != 0 or child.result is None:
                print(f"perfbench: {role} interpreter exited with "
                      f"{code}", file=sys.stderr)
                return 1
            setups.append(child.ready_s)
            results.append(child.result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    failures = [failure for result in results
                for failure in result["failures"]]
    record = {"attempted": attempted, "failed": failed,
              "failures": failures, "setup_samples_s": setups,
              "git_sha": git_sha(root), "interpreters": results}
    if args.trace:
        metrics = results[0]["metrics"]
    else:
        metrics, record["unscaled"] = end_to_end(
            [result["samples"] for result in results], setups)
        print("unscaled host figures: " + ", ".join(
            f"{name} = {value:.4f}"
            for name, value in record["unscaled"].items()))
    record["metrics"] = metrics
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2)
                                         + "\n")
    for failure in failures:
        print(f"perfbench: failed sweep: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
