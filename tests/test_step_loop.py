"""The per-run step kernel and the simulator's block loop, against the
public-API reference of ``test_kernel_equivalence``: the stop rule at the
edges of a row block, whole-block normalization for la without the
filter, and the window table behind every step's mask."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duralign.attention import StepOptions, dynamic_filter, window_mask
from duralign.simulate import SimConfig, SynthEnergySpec
from test_kernel_equivalence import BLOCK, assert_matches_reference, every_mechanism, reference_simulation, tokens_for

# the last phoneme starts at frame 100 and the diagonal stays on it past 2 * BLOCK
PARK_D = np.array([20.0, 25.0, 30.0, 25.0, 2.0 * BLOCK])


def parked_from(probs):
    """First step of the final run of the argmax on the last phoneme."""
    off = np.flatnonzero(probs.argmax(axis=1) != probs.shape[1] - 1)
    return int(off[-1]) + 1 if off.size else 0


@pytest.mark.parametrize("stop_step", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("opts", list(every_mechanism()), ids=lambda o: f"{o.mechanism}-{o.filter_enabled}")
def test_stop_rule_at_the_block_edges(opts, stop_step):
    tokens = tokens_for(opts, PARK_D)
    probs, _, _ = reference_simulation(PARK_D, tokens, SimConfig(opts=opts, fixed_steps=2 * BLOCK))
    start = parked_from(probs)
    assert 0 < start < stop_step
    cfg = SimConfig(opts=opts, max_steps=4 * BLOCK, stop_patience=stop_step - start)
    result = assert_matches_reference(PARK_D, tokens, cfg)
    assert (result.stop_step, result.stopped_by) == (stop_step, "parked")


SPECS = {
    "noisy": SynthEnergySpec(mode="noisy_diagonal", noise_sigma=0.9),
    "spikes": SynthEnergySpec(
        mode="adversarial_spike", noise_sigma=0.3, spike_magnitude=7.0,
        spike_schedule=((0, 0), (BLOCK - 1, 0), (BLOCK, 0), (BLOCK, 0), (2 * BLOCK, 0)),
    ),
}


@pytest.mark.parametrize("stop_rule", [False, True])
@pytest.mark.parametrize("spec", list(SPECS))
@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 256])
def test_whole_block_la(n, spec, stop_rule):
    d = np.random.default_rng(n).integers(1, 5, n).astype(np.float64)
    d[0] += 2 * BLOCK  # more than two blocks of rows, whatever n
    total = int(d.sum())
    steps = {"max_steps": total + 20} if stop_rule else {"fixed_steps": total}
    cfg = SimConfig(opts=StepOptions(mechanism="la"), energy=SPECS[spec], seed=n, **steps)
    result = assert_matches_reference(d, None, cfg)
    assert result.stopped_by == ("parked" if stop_rule else "fixed")


def literal_mask(n, center, width, shape):
    half = width // 2
    mask = np.zeros(n)
    for i in range(max(0, center - half), min(n, center + half + 1)):
        mask[i] = 1.0 if shape == "rectangular" else 1.0 - abs(i - center) / (half + 1)
    return mask


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 48),
    half=st.integers(1, 30),
    shape=st.sampled_from(["rectangular", "triangular"]),
)
def test_window_table_slices_equal_the_literal_mask(n, half, shape):
    for center in range(n):
        assert np.array_equal(window_mask(n, center, 2 * half, shape), literal_mask(n, center, 2 * half, shape))


@pytest.mark.parametrize(
    "args, match",
    [
        ((6, 2, 4, "bogus"), "unknown window shape 'bogus'"),
        ((6, 2, 3), "even integer"),
        ((6, 2, 0), "even integer"),
        ((6, 6, 4), r"window center 6 outside \[0, 6\)"),
        ((6, -1, 4), r"window center -1 outside \[0, 6\)"),
    ],
)
def test_window_mask_rejects_bad_windows_by_name(args, match):
    with pytest.raises(ValueError, match=match):
        window_mask(*args)


@pytest.mark.parametrize("width, shape", [(4, "bogus"), (3, "rectangular"), (0, "triangular")])
def test_dynamic_filter_rejects_bad_windows_by_name(width, shape):
    with pytest.raises(ValueError, match="window shape|even integer"):
        dynamic_filter(np.array([0.2, 0.5, 0.3]), width, shape)
