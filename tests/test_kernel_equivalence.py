"""The stepping loops against a reference built from the public API.

The reference advances one validated public call per step: energies
from ``synth_energies`` (or a ``QueryGenerator``), then ``gdca_step``,
``fa_step`` or ``la_step``.  ``run_simulation`` and ``lattice_forward``
share one private kernel, build their weights once per run and their
synthetic energies in blocks; their output must equal the reference
bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from duralign import attention, simulate
from duralign.attention import (
    StepOptions,
    fa_step,
    gdca_step,
    init_alignment,
    la_step,
    lattice_forward,
    normalize_energies,
)
from duralign.evaluate import MECHANISM_CONFIGS, adversarial_spec
from duralign.simulate import QueryGenerator, SimConfig, SynthEnergySpec, run_simulation, synth_energies
from duralign.tokens import TransitionTokens, oracle_tokens

BLOCK = attention._BLOCK


def public_step(dist, tokens, e, opts):
    if opts.mechanism == "gdca":
        return gdca_step(dist, tokens, e, opts)
    if opts.mechanism == "fa":
        return fa_step(dist, e, opts)
    return la_step(e, dist, opts)


def reference_simulation(d, tokens, cfg, energy_row=synth_energies):
    """(probs, stop_step, stopped_by) with one public call per step;
    ``energy_row`` stands in for ``synth_energies`` (same arguments)."""
    n = d.size
    qgen = QueryGenerator(n, cfg.seed) if cfg.energy.mode == "from_query_generator" else None
    dist = init_alignment(n)
    rows, parked = [], 0
    limit = cfg.fixed_steps if cfg.fixed_steps is not None else cfg.max_steps
    for t in range(limit):
        e = qgen.energies(dist) if qgen is not None else energy_row(d, cfg.energy, cfg.seed, t)
        dist = public_step(dist, tokens, e, cfg.opts)
        rows.append(dist.p)
        if cfg.fixed_steps is None:
            parked = parked + 1 if int(np.argmax(dist.p)) == n - 1 else 0
            if parked >= cfg.stop_patience:
                return np.vstack(rows), len(rows), "parked"
    return np.vstack(rows), len(rows), "fixed" if cfg.fixed_steps is not None else "max_steps"


def assert_matches_reference(d, tokens, cfg, energy_row=synth_energies):
    result = run_simulation(d, tokens, cfg)
    probs, stop_step, stopped_by = reference_simulation(d, tokens, cfg, energy_row)
    assert np.array_equal(result.alignment.probs, probs)
    assert (result.stop_step, result.stopped_by) == (stop_step, stopped_by)
    return result


def every_mechanism(**opts):
    for _, mechanism, filtered in MECHANISM_CONFIGS:
        yield StepOptions(mechanism=mechanism, filter_enabled=filtered, **opts)


def tokens_for(opts, d):
    return oracle_tokens(d) if opts.mechanism == "gdca" else None


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("stop_rule", [False, True])
def test_six_configurations_on_adversarial_instances(adversarial_instances, k, stop_rule):
    inst = adversarial_instances[k]
    d = np.array(inst["d"], dtype=np.float64)
    total = int(d.sum())
    steps = {"max_steps": 2 * total} if stop_rule else {"fixed_steps": total}
    stopped = set()
    for opts in every_mechanism():
        cfg = SimConfig(opts=opts, energy=adversarial_spec(inst), seed=inst["seed"], **steps)
        stopped.add(assert_matches_reference(d, tokens_for(opts, d), cfg).stopped_by)
    assert stopped <= ({"parked", "max_steps"} if stop_rule else {"fixed"})


@pytest.mark.parametrize("stop_rule", [False, True])
def test_noisy_diagonal(stop_rule):
    d = np.array([6.0, 9.0, 4.0, 12.0, 7.0, 5.0])
    spec = SynthEnergySpec(mode="noisy_diagonal", noise_sigma=0.8)
    steps = {"max_steps": 120} if stop_rule else {"fixed_steps": 60}
    for opts in every_mechanism(window_width=2):
        assert_matches_reference(d, tokens_for(opts, d), SimConfig(opts=opts, energy=spec, seed=5, **steps))


@pytest.mark.parametrize("stop_rule", [False, True])
def test_from_query_generator(stop_rule):
    d = np.full(7, 5.0)
    spec = SynthEnergySpec(mode="from_query_generator")
    steps = {"max_steps": 80} if stop_rule else {"fixed_steps": 40}
    for opts in every_mechanism(window_width=4):
        assert_matches_reference(d, tokens_for(opts, d), SimConfig(opts=opts, energy=spec, seed=2, **steps))


@pytest.mark.parametrize("filtered", [False, True])
def test_eq3_literal_convention(filtered):
    d = np.array([3.0, 8.0, 5.0, 6.0, 4.0])
    tokens = TransitionTokens(q=np.array([0.7, 0.9, 0.6, 0.8, 0.75]))
    opts = StepOptions(convention="eq3-literal", filter_enabled=filtered, window_width=2)
    spec = SynthEnergySpec(mode="noisy_diagonal", noise_sigma=0.3)
    assert_matches_reference(d, tokens, SimConfig(opts=opts, energy=spec, seed=9, fixed_steps=40))


def test_triangular_windows(adversarial_instances):
    inst = adversarial_instances[1]
    d = np.array(inst["d"], dtype=np.float64)
    for opts in every_mechanism(window_width=6, window_shape="triangular"):
        cfg = SimConfig(opts=opts, energy=adversarial_spec(inst), seed=inst["seed"], fixed_steps=int(d.sum()))
        assert_matches_reference(d, tokens_for(opts, d), cfg)


def test_run_longer_than_two_energy_blocks():
    d = np.array([float(BLOCK), 40.0, 60.0, 50.0, 30.0])
    # spikes on both sides of every block boundary, one of them twice
    schedule = ((BLOCK - 1, 3), (BLOCK, 4), (BLOCK, 4), (2 * BLOCK, 2), (2 * BLOCK + 5, 1), (3, 4))
    spec = SynthEnergySpec(
        mode="adversarial_spike", noise_sigma=0.4, spike_magnitude=6.0, spike_schedule=schedule
    )
    for opts in every_mechanism(window_width=2):
        cfg = SimConfig(opts=opts, energy=spec, seed=13, fixed_steps=2 * BLOCK + 17)
        assert_matches_reference(d, tokens_for(opts, d), cfg)


def test_stop_rule_builds_no_block_past_the_stop_step(monkeypatch):
    built = []
    rows = simulate._SynthRows.rows

    def recording_rows(self, t0, t1):
        built.append((t0, t1))
        return rows(self, t0, t1)

    monkeypatch.setattr(simulate._SynthRows, "rows", recording_rows)
    d = np.full(4, 10.0)
    result = run_simulation(d, oracle_tokens(d), SimConfig(max_steps=10000))
    assert result.stopped_by == "parked"
    assert built and all(t0 < result.stop_step for t0, _ in built)
    assert all(t1 - t0 <= BLOCK for t0, t1 in built)


def test_out_of_range_spike_rejected_before_the_first_step():
    spec = SynthEnergySpec(mode="adversarial_spike", spike_schedule=((9999, 7),))
    with pytest.raises(ValueError, match="phoneme 7 out of range"):
        run_simulation(np.array([5.0, 5.0]), None, SimConfig(opts=StepOptions(mechanism="la"), energy=spec))


@pytest.mark.parametrize("convention", ["prose", "eq3-literal"])
def test_lattice_cache_matches_stepping_reference(convention):
    rng = np.random.default_rng(21)
    n, t_steps = 9, 50
    q = rng.uniform(0.05, 1.0, n)
    energies = np.vstack([normalize_energies(rng.normal(0.0, 2.0, n)) for _ in range(t_steps)])
    opts = StepOptions(convention=convention)
    mat = lattice_forward(TransitionTokens(q=q), energies, opts, keep_cache=True)

    prose = convention == "prose"
    stay = 1.0 - q if prose else q.copy()
    stay[-1] = 1.0
    move = q[:-1] if prose else 1.0 - q[:-1]
    dist = init_alignment(n)
    assert np.array_equal(mat.probs[0], dist.p)
    for t in range(t_steps):
        a = stay * dist.p
        a[1:] += move * dist.p[:-1]
        assert mat.cache.sums[t] == (a * energies[t]).sum()
        dist = gdca_step(dist, TransitionTokens(q=q), energies[t], opts)
        assert np.array_equal(mat.probs[t + 1], dist.p)
    assert {f.name for f in dataclasses.fields(mat.cache)} == {"q", "energies", "p_rows", "sums", "convention"}
    assert np.array_equal(mat.cache.p_rows, mat.probs)
    assert np.array_equal(mat.cache.energies, energies)


def test_lattice_forward_matches_stepping_reference_for_every_mechanism():
    rng = np.random.default_rng(22)
    n, t_steps = 12, 40
    tokens = TransitionTokens(q=rng.uniform(0.05, 1.0, n))
    energies = np.vstack([normalize_energies(rng.normal(0.0, 2.0, n)) for _ in range(t_steps)])
    for shape in ("rectangular", "triangular"):
        for opts in every_mechanism(window_width=4, window_shape=shape):
            mat = lattice_forward(tokens if opts.mechanism == "gdca" else None, energies, opts)
            dist = init_alignment(n)
            for t in range(t_steps):
                dist = public_step(dist, tokens, energies[t], opts)
                assert np.array_equal(mat.probs[t + 1], dist.p)
