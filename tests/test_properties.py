"""Invariant checks over randomized inputs."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from duralign.attention import (
    AlignmentDistribution,
    AlignmentMatrix,
    StepOptions,
    dynamic_filter,
    fa_step,
    gdca_step,
    la_step,
    normalize_energies,
)
from duralign.tokens import DurationEncoderParams, DurationFeatures, encoder_forward, oracle_tokens
from duralign.score import NoteEvent, Score, expand_to_phonemes, frames_for
from duralign.evaluate import _run_monotonicity, duration_error, monotonicity_score, sharpness_score
from duralign.simulate import SimConfig, SynthEnergySpec, realized_durations, run_simulation
from duralign.tokens import TransitionTokens

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def energy_vectors(draw, min_size=2, max_size=24):
    vals = draw(st.lists(finite, min_size=min_size, max_size=max_size))
    return np.array(vals, dtype=np.float64)


@st.composite
def step_instances(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    raw_p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    p = raw_p / raw_p.sum()
    q = np.array(draw(st.lists(st.floats(1e-4, 1.0), min_size=n, max_size=n)))
    raw_e = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    return p, q, normalize_energies(raw_e)


@given(energy_vectors())
def test_normalized_energies_form_a_distribution(raw):
    e = normalize_energies(raw)
    assert np.all(e > 0)
    assert abs(e.sum() - 1.0) <= 1e-9


@given(energy_vectors(), st.floats(-200.0, 200.0))
def test_normalization_is_shift_invariant(raw, shift):
    assert np.allclose(normalize_energies(raw), normalize_energies(raw + shift), atol=1e-12)


@settings(max_examples=200)
@given(step_instances(), st.sampled_from(["prose", "eq3-literal"]))
def test_every_step_returns_a_distribution(instance, convention):
    p, q, e = instance
    prev = AlignmentDistribution(p=p)
    opts = StepOptions(convention=convention)
    for result in (
        gdca_step(prev, TransitionTokens(q=q), e, opts),
        fa_step(prev, e),
        la_step(e, prev),
    ):
        assert np.all(result.p >= 0)
        assert abs(result.p.sum() - 1.0) <= 1e-9


@settings(max_examples=200)
@given(step_instances())
def test_support_advances_by_at_most_one(instance):
    p, q, e = instance
    result = gdca_step(AlignmentDistribution(p=p), TransitionTokens(q=q), e)
    support_prev = np.nonzero(p)[0]
    support_next = np.nonzero(result.p)[0]
    assert support_next.max() <= min(support_prev.max() + 1, p.size - 1)
    assert support_next.min() >= support_prev.min()


@settings(max_examples=100)
@given(step_instances())
def test_forced_march_ignores_content(instance):
    p, _, e = instance
    n = p.size
    delta = np.zeros(n)
    start = int(np.argmax(p))
    delta[start] = 1.0
    result = gdca_step(AlignmentDistribution(p=delta), TransitionTokens(q=np.ones(n)), e)
    expected = np.zeros(n)
    expected[min(start + 1, n - 1)] = 1.0
    assert np.array_equal(result.p, expected)


@settings(max_examples=200)
@given(
    st.integers(min_value=2, max_value=60),
    st.sampled_from([2, 4, 8, 16]),
    st.sampled_from(["rectangular", "triangular"]),
    st.randoms(use_true_random=False),
)
def test_filter_support_and_argmax(n, width, shape, rnd):
    p = np.array([rnd.random() + 1e-6 for _ in range(n)])
    p = p / p.sum()
    out = dynamic_filter(p, width=width, shape=shape)
    assert np.count_nonzero(out) <= width + 1
    assert int(np.argmax(out)) == int(np.argmax(p))
    assert out.sum() <= p.sum() + 1e-12


@given(st.lists(st.integers(min_value=1, max_value=100000), min_size=1, max_size=40))
def test_oracle_tokens_are_antitone_and_bounded(durations):
    d = np.array(durations, dtype=np.float64)
    q = oracle_tokens(d).q
    assert np.all((q >= 1e-4) & (q <= 1.0))
    order = np.argsort(d)
    assert np.all(np.diff(q[order]) <= 1e-15)


@given(
    st.integers(min_value=0, max_value=2**31),
    st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(30.0, 300.0), st.floats(0.0, 8.0)), min_size=1, max_size=12),
)
def test_encoder_output_is_inside_open_interval(seed, rows):
    params = DurationEncoderParams.init(seed)
    feats = DurationFeatures(rows=np.array(rows))
    q = encoder_forward(params, feats).q
    assert np.all((q > 0.0) & (q < 1.0))


@given(
    st.lists(
        st.tuples(st.floats(0.05, 4.0), st.floats(40.0, 240.0), st.integers(min_value=1, max_value=4)),
        min_size=1,
        max_size=10,
    )
)
def test_expansion_conserves_note_budgets(raw_notes):
    notes = tuple(
        NoteEvent(
            syllable=f"s{i}",
            phonemes=tuple(f"p{i}_{j}" for j in range(k)),
            pitch=60,
            duration_beats=beats,
            tempo_bpm=bpm,
        )
        for i, (beats, bpm, k) in enumerate(raw_notes)
    )
    score = Score(default_tempo_bpm=120, notes=notes)
    seq = expand_to_phonemes(score)
    assert all(f >= 1 for f in seq.target_frames)
    if not seq.clamped:
        assert sum(seq.target_frames) == sum(frames_for(n, 120) for n in notes)


@settings(max_examples=50)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=150))
def test_slow_floor_bound_under_uniform_content(n, t_steps):
    # q = q_min with uniform energies: p_t(0) >= 1 - t * q_min
    q_min = 1e-4
    p = AlignmentDistribution(p=np.eye(n)[0])
    q = TransitionTokens(q=np.full(n, q_min))
    e = np.full(n, 1.0 / n)
    for t in range(1, t_steps + 1):
        p = gdca_step(p, q, e)
        assert p.p[0] >= 1.0 - t * q_min - 1e-12


@st.composite
def lengthened_scores(draw):
    """Frame targets, a phoneme index and the targets with that phoneme
    lengthened by 1 to 9 frames."""
    d = np.array(draw(st.lists(st.integers(1, 29), min_size=2, max_size=11)), dtype=np.float64)
    k = draw(st.integers(0, d.size - 1))
    longer = d.copy()
    longer[k] += draw(st.integers(1, 9))
    return d, k, longer


@settings(max_examples=25, deadline=None)
@given(lengthened_scores(), st.integers(0, 2**16), st.sampled_from([2.0, 0.2]))
def test_lengthening_a_phoneme_never_shortens_its_dwell(instance, seed, sharpness):
    # at sharpness 0.2 the content term is weak enough that gdca's dwell
    # follows its tokens, so the check covers the duration control too
    d, k, longer = instance
    for mechanism in ("gdca", "fa", "la"):
        for filter_enabled in (False, True):
            for energy in (
                SynthEnergySpec(sharpness=sharpness),
                SynthEnergySpec(mode="noisy_diagonal", noise_sigma=0.5, sharpness=sharpness),
            ):
                cfg = SimConfig(StepOptions(mechanism, filter_enabled), energy, seed=seed, max_steps=2000)
                before = run_simulation(d, oracle_tokens(d), cfg).realized_frames[k]
                after = run_simulation(longer, oracle_tokens(longer), cfg).realized_frames[k]
                assert after >= before, (mechanism, filter_enabled, energy.mode)


@st.composite
def alignments(draw):
    """(T, N) rows: one or two steps, or up to 3000; with integer weights,
    so that rows tie for their argmax, or Dirichlet rows."""
    t = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 3000)))
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.integers(1, 4, (t, n)).astype(np.float64) if draw(st.booleans()) else rng.dirichlet(np.ones(n), t)
    return AlignmentMatrix(probs=raw / raw.sum(axis=1, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(alignments(), st.integers(0, 2**32 - 1))
def test_metrics_equal_their_np_mean_expressions_bit_for_bit(alignment, seed):
    path = np.argmax(alignment.probs, axis=1)
    counts, monotone = realized_durations(alignment)
    assert np.array_equal(counts, np.bincount(path, minlength=alignment.n_phonemes))
    assert monotone == bool(np.all(np.diff(path) >= 0))
    assert sharpness_score(alignment) == float(np.mean(alignment.probs.max(axis=1)))
    mono = float(np.mean(np.diff(path) >= 0)) if alignment.n_steps >= 2 else 1.0
    if alignment.n_steps >= 2:
        assert monotonicity_score(alignment) == mono
    assert _run_monotonicity(SimpleNamespace(alignment=alignment, monotone=monotone)) == mono
    target = np.random.default_rng(seed).uniform(0.5, 40.0, alignment.n_phonemes)
    abs_err = np.abs(counts - target)
    assert duration_error(counts, target) == (float(np.mean(abs_err)), float(np.mean(abs_err / target)))
