"""The four benchmark workloads: what each sweep runs, how its output is
checked, and which layer metrics it is meant to move.

Every workload is a closed loop of identical sweeps through
:func:`repro.sim.run_ensemble`; the benchmark generates the factory and
the seed list from the workload seed and the program receives nothing
else. Rows ``0..N_PROBES-1`` of every sweep are fixed *probe*
instances (mismatch seeds ``0..N_PROBES-1``): they are the checked
deterministic rows compared with the serial scipy solve, so the
accuracy metric compares the same instances whatever the workload seed.
All other rows derive from the workload seed.
"""

from __future__ import annotations

import math
import pathlib

import numpy as np

from repro.core.compiler import compile_graph
from repro.paradigms.obc import maxcut_network
from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.puf import ChipFactory, PufDesign
from repro.puf.response import DEFAULT_WINDOW
from repro.sim import (TrajectoryCache, compile_batch, run_ensemble,
                       solve_sde)

#: Fixed probe instances at the head of every sweep.
N_PROBES = 4
#: Workload-seed-derived mismatch seeds are drawn above the probes.
DERIVED_SEED_RANGE = (1000, 10**6)

TLINE_SPAN = (0.0, 8e-8)
PUF_DESIGN = PufDesign(spec=TLineSpec(n_segments=10),
                       branch_positions=(3, 6), branch_lengths=(4, 6),
                       noise=1e-8)
PUF_CHALLENGE = 2
PUF_SPAN = (0.0, DEFAULT_WINDOW[1] * 1.05)
MAXCUT_SPAN = (0.0, 100e-9)
MAXCUT_VERTICES = 12


def derived_seeds(seed: int, n: int) -> list[int]:
    """``n`` distinct mismatch seeds drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    low, high = DERIVED_SEED_RANGE
    return [int(s) + low for s in rng.choice(high - low, size=n,
                                             replace=False)]


class TlineFactory:
    """One Gm-mismatched Fig. 4 t-line per seed."""

    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


class TwoGroupTlineFactory:
    """Odd seeds build 9-segment lines, even seeds 10-segment lines:
    two structural groups in one sweep."""

    def __call__(self, seed):
        spec = TLineSpec(n_segments=9 if seed % 2 else 10)
        return mismatched_tline("gm", seed=seed, spec=spec)


class MaxcutFactory:
    """An offset-afflicted (``Cpl_ofs``) 12-vertex ring max-cut network
    with fixed initial phases; module-level so the pool can pickle it."""

    def __init__(self):
        self.phases = np.random.default_rng(7).uniform(
            0.0, 2.0 * math.pi, MAXCUT_VERTICES)

    def __call__(self, seed):
        n = MAXCUT_VERTICES
        edges = [(i, (i + 1) % n) for i in range(n)]
        return maxcut_network(edges, n, initial_phases=self.phases,
                              edge_type="Cpl_ofs", seed=seed)


class Workload:
    """One closed-loop sweep, its checks and its rationale.

    Subclasses set the class attributes and :meth:`sweep`;
    :meth:`outputs` names the arrays that must be finite, of the
    expected shape and bit-identical from sweep to sweep.
    """

    name = "?"
    why = ""
    #: layer metric -> end-to-end metrics it should move on this workload.
    layer_map: dict = {}
    probe_node = "OUT_V"
    #: How :mod:`layers` decomposes the sweep: ``ode``, ``sde`` or
    #: ``rerun``.
    decomposition = "ode"
    #: Whether the sweep runs on the process pool (the trace then also
    #: times the same rows in-process, via ``in_process_sweep``).
    pool = False
    #: largest accepted ``ref_err`` (deviation / probe peak).
    ref_tolerance = 1e-4
    #: The solver options of the ODE groups (what the plan passes on).
    span = TLINE_SPAN
    n_points = 300
    method = "rkf45"

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = int(seed)
        self.workdir = pathlib.Path(workdir)

    def setup(self) -> None:
        """Work done once per run before the first sweep."""

    def sweep(self):
        raise NotImplementedError

    def outputs(self, result) -> dict:
        return {f"batch{k}": batch.y
                for k, batch in enumerate(result.batches)}

    def expected_shapes(self) -> dict:
        raise NotImplementedError

    def checked_rows(self, result) -> np.ndarray:
        """Probe-node rows of the probe instances, ``(N_PROBES, n)``."""
        return result.batches[0][self.probe_node][:N_PROBES]

    def serial_reference(self) -> np.ndarray:
        """The same probe rows from the serial scipy solve."""
        serial = run_ensemble(self.factory, list(range(N_PROBES)),
                              self.span, n_points=self.n_points,
                              engine="serial", cache=None)
        return np.stack([trajectory[self.probe_node]
                         for trajectory in serial.trajectories])

    def extra_checks(self, result) -> list[str]:
        """Workload-specific checks; returns failure messages."""
        return []

    def check_data(self) -> dict:
        """Reference arrays :meth:`extra_checks` needs, computed once
        per run and shared with the run's later interpreters."""
        return {}

    def load_check_data(self, data: dict) -> None:
        """Install arrays produced by :meth:`check_data`."""

    def solver_options(self) -> dict:
        """The batched-solve keyword arguments the plan layer derives
        from this workload's ``run_ensemble`` call."""
        return dict(n_points=self.n_points, method=self.method,
                    rtol=1e-7, atol=1e-9, t_eval=None, max_step=None,
                    dense=True, freeze_tol=None,
                    array_backend="numpy:float64")


class TlineMc(Workload):
    name = "tline_mc"
    why = ("the paper's headline deterministic mismatch ensemble; the "
           "front end (factory + compile_graph) outweighs the rkf45 "
           "solve")
    layer_map = {
        "factory.build_s": ["sweep_s", "cpu_s", "setup_s"],
        "compiler.compile_graph_s": ["sweep_s", "cpu_s", "setup_s"],
        "batch_codegen.compile_batch_s": ["sweep_s", "cpu_s"],
        "kernel.rhs_s": ["sweep_s", "cpu_s"],
        "batch_solver.loop_s": ["sweep_s", "cpu_s"],
        "batch_solver.nfev": ["sweep_s", "cpu_s", "ref_digits"],
        "batch_solver.reject_ratio": ["sweep_s", "cpu_s"],
    }
    n_instances = 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.factory = TlineFactory()
        self.seeds = list(range(N_PROBES)) + derived_seeds(
            seed, self.n_instances - N_PROBES)

    def sweep(self):
        return run_ensemble(self.factory, self.seeds, self.span,
                            n_points=self.n_points, engine="batch",
                            cache=None)

    def expected_shapes(self):
        return {"batch0": (self.n_instances, 53, self.n_points)}


class PufSde(Workload):
    name = "puf_sde"
    why = ("PUF reliability, 8 chips x 32 transient-noise trials; the "
           "SDE engine (Wiener draws, drift, diffusion) does most of "
           "the work")
    layer_map = {
        "sde_solver.loop_s": ["sweep_s", "cpu_s"],
        "sde_solver.nfev": ["sweep_s", "cpu_s"],
        "noise.wiener_s": ["sweep_s", "cpu_s", "peak_rss_mb"],
        "noise.normals": ["sweep_s", "cpu_s", "peak_rss_mb"],
        "kernel.rhs_s": ["sweep_s", "cpu_s"],
        "kernel.diffusion_s": ["sweep_s", "cpu_s"],
        "batch_codegen.compile_batch_s": ["sweep_s", "cpu_s"],
        "batch_solver.loop_s": ["sweep_s"],
    }
    decomposition = "sde"
    span = PUF_SPAN
    n_points = 600
    method = "rk4"
    n_chips = 8
    trials = 32
    #: (chip, trial) rows compared bit for bit with batch-of-one solves.
    n_sampled_rows = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.factory = ChipFactory(PUF_DESIGN, PUF_CHALLENGE)
        self.seeds = list(range(N_PROBES)) + derived_seeds(
            seed, self.n_chips - N_PROBES)
        rng = np.random.default_rng([seed, 1])
        self.sampled = [(int(chip), int(trial)) for chip, trial in zip(
            rng.choice(self.n_chips, self.n_sampled_rows, replace=False),
            rng.integers(0, self.trials, self.n_sampled_rows))]
        self.singles = {}

    def sweep(self):
        return run_ensemble(self.factory, self.seeds, self.span,
                            trials=self.trials, sde_method="heun",
                            n_points=self.n_points, engine="batch",
                            cache=None)

    def sde_options(self) -> dict:
        """The ``solve_sde`` keyword arguments the plan layer derives
        from :meth:`sweep` (the references use :meth:`solver_options`)."""
        return dict(n_points=self.n_points, method="heun", t_eval=None,
                    max_step=None, block=256, rtol=1e-7, atol=1e-9,
                    freeze_tol=None, array_backend="numpy:float64")

    def outputs(self, result):
        references = np.stack([reference.y
                               for reference in result.references])
        return {"noisy": result.batches[0].y, "references": references}

    def expected_shapes(self):
        return {"noisy": (self.n_chips * self.trials, 41, self.n_points),
                "references": (self.n_chips, 41, self.n_points)}

    def checked_rows(self, result):
        return np.stack([result.references[chip][self.probe_node]
                         for chip in range(N_PROBES)])

    def check_data(self):
        """Each sampled (chip, trial) row solved alone with the same
        ``"chip:trial"`` Wiener token."""
        rows = {}
        for chip, trial in self.sampled:
            chip_seed = self.seeds[chip]
            single = compile_batch([compile_graph(self.factory(chip_seed))])
            run = solve_sde(single, self.span,
                            noise_seeds=[f"{chip_seed}:{trial}"],
                            n_points=self.n_points, method="heun")
            rows[f"{chip}:{trial}"] = run.y[0]
        return rows

    def load_check_data(self, data):
        self.singles = data

    def extra_checks(self, result):
        problems = []
        for chip, trial in self.sampled:
            if not np.array_equal(result.trajectory(chip, trial).y,
                                  self.singles[f"{chip}:{trial}"]):
                problems.append(f"row (chip {chip}, trial {trial}) "
                                "differs from its batch-of-one solve")
        return problems


class MaxcutPool(Workload):
    name = "maxcut_pool"
    why = ("128 Cpl_ofs max-cut networks on the persistent 2-worker "
           "pool: the only workload that runs the pool, the shm "
           "transport and the worker-side rebuild")
    layer_map = {
        "pool.overhead_s": ["sweep_s", "cpu_s"],
        "pool.worker_busy_s": ["cpu_s"],
        "pool.queue_wait_s": ["sweep_s"],
        "pool.shm_bytes": ["sweep_s", "peak_rss_mb"],
        "factory.build_s": ["cpu_s"],
        "compiler.compile_graph_s": ["cpu_s"],
    }
    probe_node = "Osc_0"
    pool = True
    ref_tolerance = 1e-2
    span = MAXCUT_SPAN
    n_points = 600
    method = "rk4"
    n_instances = 128
    processes = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.factory = MaxcutFactory()
        self.seeds = list(range(N_PROBES)) + derived_seeds(
            seed, self.n_instances - N_PROBES)

    def sweep(self):
        return run_ensemble(self.factory, self.seeds, self.span,
                            n_points=self.n_points, method=self.method,
                            engine="pool", processes=self.processes,
                            cache=None)

    def in_process_sweep(self):
        """The same rows on the single-process batch backend (without
        ``processes`` the batch engine never picks the pool)."""
        return run_ensemble(self.factory, self.seeds, self.span,
                            n_points=self.n_points, method=self.method,
                            engine="batch", cache=None)

    def expected_shapes(self):
        return {"batch0": (self.n_instances, MAXCUT_VERTICES,
                           self.n_points)}


class TlineRerun(Workload):
    name = "tline_rerun"
    why = ("256 t-lines in two structural groups rerun through a warm "
           "disk cache: keys and reads only, no solve")
    layer_map = {
        "cache.key_s": ["sweep_s", "cpu_s"],
        "cache.get_s": ["sweep_s", "cpu_s"],
        "cache.put_s": ["setup_s"],
        "cache.bytes": ["setup_s", "sweep_s"],
        "cache.hit_ratio": ["sweep_s"],
        "factory.build_s": ["sweep_s", "cpu_s"],
        "compiler.compile_graph_s": ["sweep_s", "cpu_s"],
    }
    decomposition = "rerun"
    n_instances = 256

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.factory = TwoGroupTlineFactory()
        # Interleaved odd/even seeds keep the two groups at 128 rows
        # each; seeds 0..3 are the probes (two per group).
        base = derived_seeds(seed, self.n_instances // 2 - N_PROBES // 2)
        derived = [2 * b + parity for b in base for parity in (1, 0)]
        self.seeds = list(range(N_PROBES)) + derived
        self.cache_dir = self.workdir / "trajectory-cache"

    def setup(self):
        run_ensemble(self.factory, self.seeds, self.span,
                     n_points=self.n_points, engine="batch",
                     cache=TrajectoryCache(directory=self.cache_dir))

    def sweep(self):
        return run_ensemble(self.factory, self.seeds, self.span,
                            n_points=self.n_points, engine="batch",
                            cache=TrajectoryCache(
                                directory=self.cache_dir))

    def expected_shapes(self):
        half = self.n_instances // 2
        return {"batch0": (half, 21, self.n_points),
                "batch1": (half, 19, self.n_points)}

    def checked_rows(self, result):
        # Probes 0 and 2 sit in the 10-segment group, 1 and 3 in the
        # 9-segment group; rows come back in seed order.
        return np.stack([result.trajectories[row][self.probe_node]
                         for row in range(N_PROBES)])


WORKLOADS = {cls.name: cls for cls in (TlineMc, PufSde, MaxcutPool,
                                       TlineRerun)}
