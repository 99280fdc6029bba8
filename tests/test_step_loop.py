"""The per-run step kernel and the simulator's block loop, against the
public-API reference of ``test_kernel_equivalence``: the stop rule at the
edges of a row block, with synthetic and query energies, and before an
underflow later in the block; la stepped a block at a time by
``_Kernel.run`` with and without the filter; and the window table behind
every step's mask."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duralign import simulate
from duralign.attention import StepOptions, _Kernel, dynamic_filter, la_step, lattice_forward, normalize_energies, window_mask
from duralign.simulate import SimConfig, SynthEnergySpec, run_simulation, synth_energies
from test_kernel_equivalence import BLOCK, assert_matches_reference, every_mechanism, reference_simulation, tokens_for

# the last phoneme starts at frame 100 and the diagonal stays on it past 2 * BLOCK
PARK_D = np.array([20.0, 25.0, 30.0, 25.0, 2.0 * BLOCK])


def parked_from(probs):
    """First step of the final run of the argmax on the last phoneme."""
    off = np.flatnonzero(probs.argmax(axis=1) != probs.shape[1] - 1)
    return int(off[-1]) + 1 if off.size else 0


def assert_parks_at(stop_step, opts, energy=SynthEnergySpec(), seed=0):
    """Set the patience so that the run parks at ``stop_step``, and check it against the reference."""
    tokens = tokens_for(opts, PARK_D)
    probs, _, _ = reference_simulation(PARK_D, tokens, SimConfig(opts=opts, energy=energy, seed=seed, fixed_steps=2 * BLOCK))
    start = parked_from(probs)
    assert 0 < start < stop_step
    cfg = SimConfig(opts=opts, energy=energy, seed=seed, max_steps=4 * BLOCK, stop_patience=stop_step - start)
    result = assert_matches_reference(PARK_D, tokens, cfg)
    assert (result.stop_step, result.stopped_by) == (stop_step, "parked")


@pytest.mark.parametrize("stop_step", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("opts", list(every_mechanism()), ids=lambda o: f"{o.mechanism}-{o.filter_enabled}")
def test_stop_rule_at_the_block_edges(opts, stop_step):
    assert_parks_at(stop_step, opts)


@pytest.mark.parametrize("stop_step", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("opts", list(every_mechanism()), ids=lambda o: f"{o.mechanism}-{o.filter_enabled}")
def test_stop_rule_at_the_block_edges_with_query_energies(opts, stop_step):
    # with seed 46 the query generator's argmax settles on the last phoneme before step BLOCK - 1
    # (at step 2, 6 or 67) under every mechanism; the simulator steps a block whole from the lazy energies
    assert_parks_at(stop_step, opts, SynthEnergySpec(mode="from_query_generator"), seed=46)


SPECS = {
    "noisy": SynthEnergySpec(mode="noisy_diagonal", noise_sigma=0.9),
    "spikes": SynthEnergySpec(
        mode="adversarial_spike", noise_sigma=0.3, spike_magnitude=7.0,
        spike_schedule=((0, 0), (BLOCK - 1, 0), (BLOCK, 0), (BLOCK, 0), (2 * BLOCK, 0)),
    ),
}


LA_OPTS = [StepOptions(mechanism="la")] + [
    StepOptions(mechanism="la", filter_enabled=True, window_width=width, window_shape=shape)
    for shape in ("rectangular", "triangular")
    for width in (2, 4, 16)
]


@functools.lru_cache(maxsize=None)
def _synth_row(d_bytes, spec, seed, t):
    row = synth_energies(np.frombuffer(d_bytes), spec, seed, t)
    row.flags.writeable = False
    return row


def shared_synth_energies(d, spec, seed, t):
    """``synth_energies`` memoised per (durations, spec, seed, t): the 14
    cases of each (n, spec) below read the same rows.  Only their
    reference uses it, so a test that patches the rows reads none."""
    return _synth_row(d.tobytes(), spec, seed, t)


@pytest.mark.parametrize("opts", LA_OPTS, ids=lambda o: f"{o.window_shape}-{o.window_width}" if o.filter_enabled else "unfiltered")
@pytest.mark.parametrize("stop_rule", [False, True])
@pytest.mark.parametrize("spec", list(SPECS))
@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 256])
def test_whole_block_la(n, spec, stop_rule, opts):
    d = np.random.default_rng(n).integers(1, 5, n).astype(np.float64)
    d[0] += 2 * BLOCK  # more than two blocks of rows, whatever n
    total = int(d.sum())
    steps = {"max_steps": total + 20} if stop_rule else {"fixed_steps": total}
    cfg = SimConfig(opts=opts, energy=SPECS[spec], seed=n, **steps)
    result = assert_matches_reference(d, None, cfg, shared_synth_energies)
    assert result.stopped_by == ("parked" if stop_rule else "fixed")


@pytest.mark.parametrize("n", [9, 64])
def test_la_over_column_major_energies_sums_each_row_alone(n):
    # numpy sums a column-major block's rows across its columns, not pairwise, so run steps them row by row
    energies = np.asfortranarray(normalize_energies(np.random.default_rng(n).normal(0.0, 2.0, (40, n))))
    probs = lattice_forward(None, energies, StepOptions(mechanism="la")).probs
    assert all(np.array_equal(probs[t + 1], la_step(row).p) for t, row in enumerate(energies))


# la with the filter over 8 phonemes of 5 frames: the argmax parks on the last phoneme at
# step 38, and the spike on phoneme 0 at step 45, outside the window, underflows the normalizer
SPIKE_AFTER_PARKING = {
    "opts": StepOptions(mechanism="la", filter_enabled=True, window_width=4),
    "energy": SynthEnergySpec(mode="adversarial_spike", spike_magnitude=1000.0, spike_schedule=((45, 0),)),
}


def test_la_block_parks_before_a_later_underflow_in_its_block():
    result = assert_matches_reference(np.full(8, 5.0), None, SimConfig(max_steps=100, **SPIKE_AFTER_PARKING))
    assert (result.stopped_by, result.stop_step) == ("parked", 38)


def test_la_block_underflow_without_the_stop_rule_raises():
    with pytest.raises(FloatingPointError, match="normalizer underflowed at step 45$"):
        run_simulation(np.full(8, 5.0), None, SimConfig(fixed_steps=100, **SPIKE_AFTER_PARKING))


# the same run under gdca with the filter: the block from step 0 is stepped whole up to the spike's
# underflow, and its argmax path has parked by then
GDCA_SPIKE_AFTER_PARKING = {**SPIKE_AFTER_PARKING, "opts": StepOptions(filter_enabled=True, window_width=4)}


def test_gdca_parks_before_a_later_underflow_in_its_block():
    d = np.full(8, 5.0)
    tokens = tokens_for(GDCA_SPIKE_AFTER_PARKING["opts"], d)
    result = assert_matches_reference(d, tokens, SimConfig(max_steps=100, **GDCA_SPIKE_AFTER_PARKING))
    assert (result.stopped_by, result.stop_step) == ("parked", 38)
    with pytest.raises(FloatingPointError, match="normalizer underflowed at step 45$"):
        run_simulation(d, tokens, SimConfig(fixed_steps=100, **GDCA_SPIKE_AFTER_PARKING))


# raw argmax 2, but the two middle entries divide to one double, so the normalized argmax is 1
TIE_ROW = [0.9274239286245599, 1.9491212299909904, 1.9491212299909906, 0.8636400902455758]


def test_la_block_re_steps_a_row_whose_argmax_moves_when_normalized(monkeypatch):
    # row 0 moves the centre to phoneme 1, whose window of width 4 keeps all of TIE_ROW; row 2's
    # window is then centred on 1 (phonemes 0-3), not on the raw argmax 2 (phonemes 0-4)
    block = np.array([[0.0, 1.0, 0.0, 0.0, 0.0, 0.0], TIE_ROW + [0.0, 0.0], [1.0] * 6])
    opts = SPIKE_AFTER_PARKING["opts"]
    rows = np.eye(4, 6)  # row 0, the one-hot row, is stepped from; the kernel writes the rest
    assert _Kernel(None, opts, (6,)).run(rows, block)[1] == 3
    assert rows[2].argmax() == 1 and rows[3, 4] == 0.0
    monkeypatch.setattr(simulate._SynthRows, "rows", lambda self, t0, t1: block[t0:t1])
    result = assert_matches_reference(np.full(6, 1.0), None, SimConfig(opts=opts, fixed_steps=3))
    assert result.alignment.probs[1].argmax() == 1 and result.alignment.probs[2, 4] == 0.0


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
