"""The block-seeded noise generators against NumPy's per-step seeding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duralign import _seeds
from duralign.attention import normalize_energies
from duralign.simulate import SynthEnergySpec, _SynthRows, synth_energies

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]
# starts that touch t = 0, cross 2**32 and 2**64 (t gains a digit), or sit past them
STARTS = [0, 3, 2**32 - 70, 2**32 - 1, 2**32 + 11, 2**64 - 5, 2**64 + 2]


def reference_noise(seed, t0, t1, sigma, n):
    return [np.random.default_rng([seed, t]).normal(0.0, sigma, n) for t in range(t0, t1)]


def block_noise(seed, t0, t1, sigma, n):
    return [rng.normal(0.0, sigma, n) for rng in _seeds.step_generators(seed, t0, t1)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("t0", STARTS)
@pytest.mark.parametrize("length, n", [(1, 14), (2, 1), (128, 14), (77, 128)])
def test_rows_equal_default_rng(seed, t0, length, n):
    got, want = block_noise(seed, t0, t0 + length, 0.7, n), reference_noise(seed, t0, t0 + length, 0.7, n)
    assert len(got) == length
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**200)),
    t0=st.one_of(st.integers(0, 300), st.integers(2**32 - 130, 2**32 + 5), st.integers(2**64 - 130, 2**64 + 5)),
    length=st.integers(1, 128),
    n=st.sampled_from([1, 14, 128]),
)
def test_rows_equal_default_rng_for_drawn_seeds(seed, t0, length, n):
    got, want = block_noise(seed, t0, t0 + length, 1.3, n), reference_noise(seed, t0, t0 + length, 1.3, n)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("seed", [*SEEDS, 2**96 - 1, 2**200 + 17])
def test_state_words_equal_seed_sequence(seed):
    """Entropy of two to nine words: the pool's extra mixing rounds run from five on."""
    for t0, t1 in [(0, 9), (2**32 - 4, 2**32), (2**32, 2**32 + 4), (2**64 + 3, 2**64 + 6)]:
        want = [np.random.SeedSequence([seed, t]).generate_state(4, np.uint64) for t in range(t0, t1)]
        assert np.array_equal(_seeds.state_words(seed, t0, t1), want)


def test_empty_range_yields_nothing():
    assert list(_seeds.step_generators(5, 9, 9)) == []


def test_words_serve_only_pcg64s_request():
    words = _seeds._Words(_seeds.state_words(0, 0, 1)[0])
    with pytest.raises(ValueError, match="only PCG64's request"):
        words.generate_state(8)


@pytest.mark.parametrize("t0", [0, 2**32 - 60])
def test_noisy_block_equals_per_step_rows(t0):
    """A noisy block across 2**32 equals rows built with one default_rng per step."""
    d = np.array([4.0, 7.0, 3.0, 5.0])
    spec = SynthEnergySpec(mode="noisy_diagonal", noise_sigma=0.6, sharpness=1.5)
    rows = _SynthRows(d, spec, 7).rows(t0, t0 + 128)
    target = np.minimum(np.searchsorted(np.cumsum(d), np.arange(t0, t0 + 128), side="right"), d.size - 1)
    raw = -1.5 * np.abs(np.arange(d.size) - target[:, None]).astype(np.float64)
    raw += np.array(reference_noise(7, t0, t0 + 128, 0.6, d.size))
    assert np.array_equal(rows, normalize_energies(raw))
    assert np.array_equal(rows[-1], synth_energies(d, spec, seed=7, t=t0 + 127))
