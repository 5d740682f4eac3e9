"""Structure/bind compilation: :func:`compile_graphs` compiles each
distinct structure once and binds every further ensemble member to it.
The result must be indistinguishable from a per-instance
:func:`compile_graph` — same signatures, attribute keys, initial values
and errors, and bit-identical ensemble results on every execution
backend and solver method."""

import math

import numpy as np
import pytest

import repro
from repro.core.compiler import (compile_graph, compile_graphs,
                                 compile_structure, structure_key)
from repro.errors import CompileError, GraphError
from repro.lang import parse_program
from repro.paradigms.cnn import default_image, edge_detector
from repro.paradigms.fhn import neuron_chain
from repro.paradigms.gpac import harmonic_oscillator, leaky
from repro.paradigms.obc import maxcut_network
from repro.paradigms.tln import TLineSpec, linear_tline, mismatched_tline
from repro.puf import ChipFactory, PufDesign
from repro.sim import run_ensemble
from repro.sim.batch_codegen import group_by_signature
from tests.conftest import build_leaky_language, build_two_pole

EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]
PHASES = (0.3, 2.1, 4.0, 5.5)
PUF = PufDesign(spec=TLineSpec(n_segments=4), branch_positions=(1,),
                branch_lengths=(2,), noise=1e-9)


class Paradigm:
    """A picklable ensemble factory for one shipped paradigm. With
    ``compiled=True`` every instance is compiled on its own by
    :func:`compile_graph` inside the factory — the per-instance
    reference the structure/bind path must reproduce."""

    def __init__(self, name, compiled=False):
        self.name = name
        self.compiled = compiled

    def build(self, seed):
        if self.name == "tln":
            return mismatched_tline("gm", TLineSpec(n_segments=3),
                                    seed=seed)
        if self.name == "tln-noisy":
            return linear_tline(TLineSpec(n_segments=3),
                                edge_variant="gm", seed=seed,
                                noise=1e-9)
        if self.name == "obc":
            return maxcut_network(EDGES, 4, initial_phases=PHASES,
                                  edge_type="Cpl_ofs", seed=seed)
        if self.name == "obc-noisy":
            return maxcut_network(EDGES, 4, initial_phases=PHASES,
                                  edge_type="Cpl_ofs", seed=seed,
                                  noise_sigma=0.05)
        if self.name == "cnn":
            return edge_detector(default_image(8), "bias_mismatch",
                                 seed=seed)
        if self.name == "fhn":
            return neuron_chain(3, mismatched_bias=True,
                                mismatched_coupling=True, seed=seed)
        if self.name == "gpac":
            return harmonic_oscillator(
                types=leaky(0.05, mismatched_weights=True), seed=seed)
        if self.name == "puf":
            return ChipFactory(PUF, 1)(seed)
        raise AssertionError(self.name)

    def __call__(self, seed):
        graph = self.build(seed)
        return compile_graph(graph) if self.compiled else graph


#: paradigm -> (span, noisy)
PARADIGMS = {
    "tln": ((0.0, 2e-8), False),
    "obc": ((0.0, 2e-8), False),
    "cnn": ((0.0, 2e-6), False),
    "fhn": ((0.0, 5.0), False),
    "gpac": ((0.0, 3.0), False),
    "tln-noisy": ((0.0, 2e-8), True),
    "obc-noisy": ((0.0, 2e-8), True),
    "puf": ((0.0, 2e-8), True),
}
SEEDS = [0, 1, 2, 3]


def _plain(values):
    return {key: "<callable>" if callable(value) else value
            for key, value in values.items()}


class TestCompileGraphsMatchesCompileGraph:
    @pytest.mark.parametrize("name", sorted(PARADIGMS))
    def test_systems_match(self, name):
        factory = Paradigm(name)
        bound = compile_graphs([factory(seed) for seed in SEEDS])
        for seed, system in zip(SEEDS, bound):
            full = compile_graph(factory(seed))
            assert system.structural_signature() == \
                full.structural_signature()
            assert list(system.attr_values) == list(full.attr_values)
            # Waveform attributes are fresh closures per build.
            assert _plain(system.attr_values) == _plain(full.attr_values)
            np.testing.assert_array_equal(system.y0, full.y0)
            assert system.equations() == full.equations()
            assert system.generate_source() == full.generate_source()

    @pytest.mark.parametrize("name", ["tln", "obc", "cnn", "fhn",
                                      "puf"])
    def test_mismatch_ensemble_shares_one_structure(self, name):
        factory = Paradigm(name)
        systems = compile_graphs([factory(seed) for seed in SEEDS])
        assert len({id(s.structure) for s in systems}) == 1
        assert len({s.structural_signature() for s in systems}) == 1
        assert systems[0].attr_values != systems[1].attr_values


ODE_CASES = [(name, engine, method)
             for name, (_span, noisy) in sorted(PARADIGMS.items())
             if not noisy
             for engine in ("batch", "pool", "shard")
             for method in ("rk4", "rkf45")]
SDE_CASES = [(name, engine, method)
             for name, (_span, noisy) in sorted(PARADIGMS.items())
             if noisy
             for engine in ("batch", "pool", "shard")
             for method in ("heun", "em", "heun-adaptive")]


class TestRunEnsembleBitIdentical:
    """Graph factories (structure/bind inside the plan and the pool
    workers) against factories that return per-instance compiled
    systems."""

    @pytest.mark.parametrize("name,engine,method", ODE_CASES)
    def test_ode(self, name, engine, method):
        span = PARADIGMS[name][0]
        kwargs = dict(n_points=20, method=method, engine=engine,
                      processes=2, cache=None)
        bound = run_ensemble(Paradigm(name), SEEDS, span, **kwargs)
        full = run_ensemble(Paradigm(name, compiled=True), SEEDS, span,
                            **kwargs)
        assert bound.groups == full.groups
        assert len(bound.batches) == len(full.batches) >= 1
        for a, b in zip(bound.batches, full.batches):
            np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("name,engine,method", SDE_CASES)
    def test_sde(self, name, engine, method):
        span = PARADIGMS[name][0]
        # Loose tolerances keep heun-adaptive's step count small; both
        # runs use them, so the comparison stays exact.
        kwargs = dict(n_points=20, trials=2, sde_method=method,
                      engine=engine, processes=2, cache=None,
                      rtol=1e-3, atol=1e-6)
        bound = run_ensemble(Paradigm(name), SEEDS, span, **kwargs)
        full = run_ensemble(Paradigm(name, compiled=True), SEEDS, span,
                            **kwargs)
        assert len(bound.batches) == len(full.batches) >= 1
        for a, b in zip(bound.batches, full.batches):
            np.testing.assert_array_equal(a.y, b.y)
        for chip in range(len(SEEDS)):
            np.testing.assert_array_equal(bound.reference(chip).y,
                                          full.reference(chip).y)


ABS_NOISE = """
lang oun {
    ntyp(1,sum) X {attr tau=real[0,10] ns(0.1)};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau;
    cstr X {acc[match(1,1,R,X)]};
}
"""


def _abs_noise_graph(language, tau):
    builder = repro.GraphBuilder(language, f"tau{tau}")
    builder.node("x", "X").set_attr("x", "tau", tau)
    builder.edge("x", "x", "r0", "R").set_init("x", 1.0)
    return builder.finish()


def _per_seed_function_graph(seed, language=None):
    """A one-node decay whose rate is a per-seed registered closure
    (a fresh language per seed unless ``language`` is shared)."""
    fresh = language is None
    if fresh:
        language = repro.Language("perseed")
        language.node_type("X", order=1)
        language.edge_type("S")
    language.register_function("rate",
                               lambda x, k=float(seed + 1): k * x)
    if fresh:
        language.prod("prod(e:S,s:X->s:X) s <= -rate(var(s))")
    builder = repro.GraphBuilder(language, "perseed")
    builder.node("x", "X")
    builder.edge("x", "x", "e", "S")
    builder.set_init("x", 1.0)
    return builder.finish()


def _without_tau(language):
    graph = build_two_pole(language)
    del graph.node("x1").attrs["tau"]
    return graph


class TestBindPath:
    def test_switched_off_edge_gets_its_own_structure(self):
        language = build_leaky_language()
        graphs = [build_two_pole(language, w=1.0 + k) for k in range(3)]
        graphs[1].set_switch("couple", False)
        systems = compile_graphs(graphs)
        assert systems[0].structure is systems[2].structure
        assert systems[1].structure is not systems[0].structure
        assert group_by_signature(systems) == [[0, 2], [1]]
        full = compile_graph(build_two_pole(language, w=2.0))
        assert full.structural_signature() != \
            systems[1].structural_signature()

    def test_zero_absolute_noise_on_a_later_instance_raises(self):
        language = parse_program(ABS_NOISE).languages["oun"]
        graphs = [_abs_noise_graph(language, tau)
                  for tau in (1.0, 2.0, 0.0)]
        with pytest.raises(CompileError, match="zero-valued"):
            compile_graphs(graphs)
        # The same graphs without the zero-valued one compile, and
        # share one structure.
        systems = compile_graphs(graphs[:2])
        assert systems[0].structure is systems[1].structure

    def test_missing_attribute_raises_like_compile_graph(self):
        language = build_leaky_language()
        with pytest.raises(GraphError) as expected:
            compile_graph(_without_tau(language))
        with pytest.raises(GraphError) as bound:
            compile_graphs([build_two_pole(language),
                            _without_tau(language)])
        assert str(bound.value) == str(expected.value)
        structure = compile_structure(build_two_pole(language))
        with pytest.raises(GraphError) as direct:
            structure.bind(_without_tau(language))
        assert str(direct.value) == str(expected.value)

    def test_bind_refuses_a_different_structure(self):
        language = build_leaky_language()
        structure = compile_structure(build_two_pole(language))
        other = build_two_pole(language)
        other.set_switch("couple", False)
        assert structure_key(other) != structure.key
        with pytest.raises(CompileError, match="does not share"):
            structure.bind(other)
        same = structure.bind(build_two_pole(language, w=3.0))
        assert same.attr_values[("edge", "couple", "w")] == 3.0

    def test_per_seed_closures_split_into_per_instance_batches(self):
        # One shared language re-registers `rate` per seed, and each
        # instance is bound while its own closure is registered: the
        # instances share one structure, yet never a batch.
        language = repro.Language("perseed-shared")
        language.node_type("X", order=1)
        language.edge_type("S")
        language.register_function("rate", lambda x: x)
        language.prod("prod(e:S,s:X->s:X) s <= -rate(var(s))")
        structure = compile_structure(
            _per_seed_function_graph(0, language))
        systems = [structure.bind(_per_seed_function_graph(seed,
                                                           language))
                   for seed in range(3)]
        again = structure.bind(_per_seed_function_graph(2, language))
        assert {id(s.structure) for s in systems} == {id(structure)}
        assert len({s.structural_signature() for s in systems}) == 3
        assert group_by_signature(systems) == [[0], [1], [2]]
        # A different closure object is a different function identity.
        assert again.structural_signature() != \
            systems[2].structural_signature()
        finals = [system.rhs()(0.0, np.array([1.0]))[0]
                  for system in systems]
        assert finals == [-1.0, -2.0, -3.0]

    def test_per_seed_closures_run_per_instance(self):
        result = run_ensemble(_per_seed_function_graph, range(3),
                              (0.0, 1.0), n_points=40, cache=None)
        assert result.batches == []
        assert result.serial_indices == [0, 1, 2]
        finals = [traj.final("x") for traj in result]
        np.testing.assert_allclose(
            finals, [math.exp(-(seed + 1.0)) for seed in range(3)],
            rtol=1e-4)

