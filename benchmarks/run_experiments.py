"""Regenerate every table and figure of the paper at full size.

It runs the complete experiment suite (53-node lines, 100-chip
ensembles, 16x16 CNN, 1000 max-cut instances, 1000 random netlists) and
prints to stdout one block per table/figure, each line setting the
paper's number next to the measured one. It writes no file and gates
nothing: the printed blocks are the whole output.

Run:  python benchmarks/run_experiments.py [--fast]

``--fast`` divides the population sizes by 10 (~30 s instead of several
minutes).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

import repro
from repro.analysis import observation_window, window_spread
from repro.circuits import compare_dg_netlist
from repro.paradigms.cnn import (default_image, edge_detector,
                                 expected_edges, run_cnn)
from repro.paradigms.obc import maxcut_experiment, random_graphs
from repro.paradigms.tln import (TLineSpec, branched_tline,
                                 linear_tline, mismatched_tline)


def banner(title: str):
    print(f"\n=== {title} " + "=" * max(1, 66 - len(title)))


def fig2():
    banner("Fig. 2 - topology validation")
    linear = linear_tline()
    branched = branched_tline()
    malformed = linear_tline()
    malformed.add_edge("bad", "IN_V", "V_0", "E")
    print("paper: branched valid / linear valid / V-V malformed"
          " invalid")
    for name, graph in (("branched", branched), ("linear", linear),
                        ("malformed", malformed)):
        verdict = repro.validate(graph, backend="milp")
        print(f"measured: {name:9s} valid={verdict.valid}")


def fig4(chips: int):
    banner("Fig. 4 - t-line transients and mismatch ensembles")
    t_end = 8e-8
    linear = repro.simulate(linear_tline(), (0.0, t_end), n_points=600)
    branched = repro.simulate(branched_tline(), (0.0, t_end),
                              n_points=600)
    lin_out = linear["OUT_V"]
    brn_out = branched["OUT_V"]
    t = branched.t
    echo = np.abs(brn_out[(t >= 4e-8) & (t <= 8e-8)]).max()
    w_lin = observation_window(linear, "OUT_V", threshold=0.1)
    w_brn = observation_window(branched, "OUT_V", threshold=0.1)
    print("paper 4b: linear pulse ~0.5, window 1e-8..3e-8 s")
    print(f"measured: peak {lin_out.max():.3f}, window "
          f"[{w_lin[0]:.2e}, {w_lin[1]:.2e}] s")
    print("paper 4a: branched pulse ~0.3, echo after 4e-8 s, window"
          " 1e-8..8e-8 s")
    print(f"measured: peak "
          f"{brn_out[(t >= 1e-8) & (t <= 3.5e-8)].max():.3f}, echo "
          f"{echo:.3f}, window [{w_brn[0]:.2e}, {w_brn[1]:.2e}] s")

    window = (1e-8, 3e-8)
    spreads = {}
    for kind in ("cint", "gm"):
        runs = repro.simulate_ensemble(
            lambda seed, kind=kind: mismatched_tline(kind, seed=seed),
            seeds=range(chips), t_span=(0.0, t_end), n_points=300)
        spreads[kind] = window_spread(runs, "OUT_V", window)
    print(f"paper 4c/4d: Gm mismatch varies much more than Cint "
          f"({chips} chips)")
    print(f"measured: cint {spreads['cint']:.4f}, gm "
          f"{spreads['gm']:.4f} "
          f"(gm/cint = {spreads['gm'] / spreads['cint']:.1f}x)")


def fig11(size: int):
    banner("Fig. 11 - CNN edge detector under hw-cnn nonidealities")
    image = default_image(size)
    expected = expected_edges(image)
    paper = {
        "ideal": "A: converges, correct",
        "bias_mismatch": "B: converges more slowly, correct",
        "template_mismatch": "C: slower and/or incorrect output",
        "nonideal_sat": "D: converges faster, correct",
    }
    for variant, claim in paper.items():
        graph = edge_detector(image, variant, seed=3)
        run = run_cnn(graph, size, size, variant=variant,
                      expected=expected)
        converged = (f"{run.converged_at:.2f}" if run.converged
                     else "never")
        print(f"paper {claim}")
        print(f"measured {variant:18s} errors={run.errors:3d} "
              f"converged_at={converged}")


def table1(trials: int):
    banner("Table 1 - OBC max-cut sync/solved probabilities")
    graphs = random_graphs(trials, 4, seed=2024)
    tolerances = (0.01 * math.pi, 0.1 * math.pi)
    ideal = maxcut_experiment(graphs, 4, tolerances=tolerances,
                              edge_type="Cpl")
    offset = maxcut_experiment(graphs, 4, tolerances=tolerances,
                               edge_type="Cpl_ofs",
                               mismatch_seeds=True)
    paper = {(0.01, "obc"): (94.1, 94.1), (0.01, "ofs"): (54.1, 54.1),
             (0.10, "obc"): (94.2, 94.1), (0.10, "ofs"): (94.8, 94.6)}
    print(f"{trials} graphs (paper: 1000)")
    print(f"{'d':>8s} {'config':>8s} {'paper s/s':>14s} "
          f"{'measured s/s':>16s}")
    for d in tolerances:
        key = round(d / math.pi, 2)
        for config, sweeps in (("obc", ideal), ("ofs", offset)):
            p_sync, p_solved = paper[(key, config)]
            sweep = sweeps[d]
            print(f"{key:>7.2f}p {config:>8s} "
                  f"{p_sync:>6.1f}/{p_solved:<7.1f} "
                  f"{sweep.sync_probability * 100:>7.1f}/"
                  f"{sweep.solved_probability * 100:<8.1f}")


def sec45(population: int):
    banner("Sec. 4.5 - DG vs synthesized GmC netlist (RMSE < 1%)")
    rng = np.random.default_rng(0)
    worst = 0.0
    means = []
    valid = 0
    for trial in range(population):
        spec = TLineSpec(n_segments=int(rng.integers(3, 14)))
        kind = ("gm", "cint")[trial % 2]
        graph = mismatched_tline(kind, spec, seed=trial)
        if repro.validate(graph, backend="flow").valid:
            valid += 1
        comparison = compare_dg_netlist(graph, (0.0, 3e-8),
                                        n_points=150)
        worst = max(worst, comparison.worst)
        means.append(comparison.mean)
    print(f"paper: 1000/1000 valid DGs map to netlists, RMSE < 1%")
    print(f"measured: {valid}/{population} valid, worst relative RMSE "
          f"{worst:.2e}, mean {float(np.mean(means)):.2e}")


def extensions():
    banner("Extensions - attack / CNN library & PDE / GPAC / placement")
    from repro.paradigms.cnn import (LIBRARY, diffusion_step_response,
                                     run_library_template)
    from repro.paradigms.gpac import (harmonic_oscillator, leaky,
                                      limit_cycle_amplitude,
                                      van_der_pol)
    from repro.paradigms.obc import (place_greedy, place_kernighan_lin,
                                     place_random)
    from repro.paradigms.obc import random_graphs as obc_graphs
    from repro.puf import PufDesign, cross_validate

    design = PufDesign(spec=TLineSpec(n_segments=10, pulse_width=4e-9),
                       branch_positions=(2, 4, 6, 8),
                       branch_lengths=(3, 5, 4, 6))
    for degree in (1, 2):
        result = cross_validate(design, seed=3, k=4, degree=degree,
                                rng=0, n_bits=16,
                                window=(8e-9, 4.5e-8), n_points=240)
        print(f"PUF attack degree {degree}: accuracy "
              f"{result.accuracy:.3f} baseline {result.baseline:.3f} "
              f"advantage {result.advantage:+.3f}")

    rng = np.random.default_rng(0)
    wrong = 0
    for name in sorted(LIBRARY):
        image = np.where(rng.random((8, 8)) < 0.4, 1.0, -1.0)
        output, reference = run_library_template(image, name)
        wrong += int((output != reference).sum())
    heat = diffusion_step_response(size=8, rate=0.5,
                                   times=(0.5, 1.0, 2.0))
    print(f"CNN library: {wrong} wrong pixels across "
          f"{len(LIBRARY)} templates; heat-equation worst RMSE "
          f"{heat['rmse'].max():.2e}")

    for leak_value in (0.0, 0.1, 0.2):
        osc = repro.simulate(
            harmonic_oscillator(types=leaky(leak_value)), (0.0, 40.0),
            n_points=801)
        vdp = repro.simulate(van_der_pol(types=leaky(leak_value)),
                             (0.0, 40.0), n_points=801)
        print(f"GPAC leak {leak_value:.1f}: sine amplitude "
              f"{limit_cycle_amplitude(osc.t, osc['x']):.3f}, "
              f"Van der Pol "
              f"{limit_cycle_amplitude(vdp.t, vdp['x']):.3f}")

    totals = {"random": 0.0, "greedy": 0.0, "kl": 0.0}
    workloads = obc_graphs(50, n_vertices=10, seed=11,
                           edge_probability=0.3)
    for edges in workloads:
        totals["random"] += place_random(edges, 10,
                                         seed=1).coupling_cost
        totals["greedy"] += place_greedy(edges, 10,
                                         seed=1).coupling_cost
        totals["kl"] += place_kernighan_lin(edges, 10,
                                            seed=1).coupling_cost
    print("placement mean cost over 50 workloads: "
          + ", ".join(f"{k} {v / len(workloads):.1f}"
                      for k, v in totals.items()))

    from repro.puf import evaluate_puf
    from repro.puf.metrics import hamming_fraction
    eval_kwargs = dict(n_bits=16, window=(8e-9, 4.5e-8), n_points=240)
    sweep = []
    for alpha in (0.0, 0.3, 0.7, 1.0):
        puf = PufDesign(spec=TLineSpec(n_segments=10,
                                       pulse_width=4e-9),
                        branch_positions=(2, 6),
                        branch_lengths=(3, 5), switch_alpha=alpha)
        responses = {c: evaluate_puf(puf, c, seed=4, **eval_kwargs)
                     for c in range(4)}
        sweep.append((alpha, float(np.mean(
            [hamming_fraction(responses[a], responses[b])
             for a, b in ((0, 1), (0, 2), (3, 1), (3, 2))]))))
    print("switch-parasitics challenge sensitivity: "
          + ", ".join(f"alpha {a:.1f} -> {s:.3f}" for a, s in sweep))

    from repro.paradigms.fhn import (NeuronSpec, fhn_reference,
                                     neuron_chain, resting_point)
    n = 6
    run = repro.simulate(neuron_chain(n, coupling=0.8), (0.0, 80.0),
                         n_points=801, rtol=1e-9, atol=1e-11)
    rest_v, rest_w = resting_point()
    v0 = np.full(n, rest_v)
    v0[0] = 1.5
    reference = fhn_reference(n, NeuronSpec(), 0.8, False, v0,
                              np.full(n, rest_w), run.t)
    worst = max(np.abs(run[f"U_{k}"] - reference[k]).max()
                for k in range(n))
    print(f"FHN spike wave vs scipy reference: max abs error "
          f"{worst:.2e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="divide population sizes by 10")
    parser.add_argument("--skip-extensions", action="store_true",
                        help="only the paper's tables and figures")
    args = parser.parse_args(argv)
    scale = 10 if args.fast else 1

    started = time.time()
    fig2()
    fig4(chips=100 // scale)
    fig11(size=16)
    table1(trials=1000 // scale)
    sec45(population=1000 // scale)
    if not args.skip_extensions:
        extensions()
    print(f"\ntotal wall time: {time.time() - started:.0f} s")


if __name__ == "__main__":
    sys.exit(main())
