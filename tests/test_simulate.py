import json

import numpy as np
import pytest

from duralign.attention import StepOptions
from duralign.simulate import (
    QueryGenerator,
    SimConfig,
    SynthEnergySpec,
    phoneme_at_frame,
    realized_durations,
    run_simulation,
    synth_energies,
)
from duralign.attention import (
    AlignmentMatrix,
    content_energies,
    context_vector,
    init_alignment,
    normalize_energies,
)
from duralign.tokens import TrainConfig, TransitionTokens, oracle_tokens


class TestPhonemeAtFrame:
    def test_intervals(self):
        d = np.array([3.0, 2.0, 4.0])
        assert [phoneme_at_frame(d, t) for t in (0, 2, 3, 4, 5, 8)] == [0, 0, 1, 1, 2, 2]

    def test_past_end_clamps(self):
        assert phoneme_at_frame(np.array([3.0, 2.0]), 99) == 1

    @pytest.mark.parametrize(
        "d, message",
        [([], "^empty durations"), ([3.0, np.nan], "^non-finite durations$"), ([np.inf, 2.0], "^non-finite durations$")],
    )
    def test_rejects_empty_or_non_finite_durations(self, d, message):
        with pytest.raises(ValueError, match=message):
            phoneme_at_frame(np.array(d), 0)

    @pytest.mark.parametrize(
        "t, message",
        [(-5, "^t must be >= 0$"), (np.nan, "^t must be an integer"), (1.5, "^t must be an integer"), (True, "^t must be an integer")],
    )
    def test_rejects_negative_or_non_integer_frame(self, t, message):
        with pytest.raises(ValueError, match=message):
            phoneme_at_frame(np.array([3.0, 2.0]), t)


class TestSynthEnergies:
    def test_oracle_diagonal_peaks_on_schedule(self):
        d = np.array([10.0, 10.0, 10.0])
        spec = SynthEnergySpec(sharpness=2.0)
        for t, target in ((0, 0), (9, 0), (10, 1), (25, 2)):
            e = synth_energies(d, spec, seed=0, t=t)
            assert int(np.argmax(e)) == target
            assert e.sum() == pytest.approx(1.0)

    def test_sharpness_limit_is_one_hot(self):
        d = np.array([5.0, 5.0, 5.0])
        e = synth_energies(d, SynthEnergySpec(sharpness=50.0), seed=0, t=7)
        assert e[1] == pytest.approx(1.0, abs=1e-20)

    def test_zero_sigma_noisy_equals_oracle(self):
        d = np.array([5.0, 5.0, 5.0])
        clean = synth_energies(d, SynthEnergySpec(), seed=3, t=4)
        noisy = synth_energies(d, SynthEnergySpec(mode="noisy_diagonal", noise_sigma=0.0), seed=3, t=4)
        assert np.array_equal(clean, noisy)

    def test_noise_is_deterministic_per_seed_and_step(self):
        d = np.array([5.0, 5.0, 5.0])
        spec = SynthEnergySpec(mode="noisy_diagonal", noise_sigma=1.0)
        a = synth_energies(d, spec, seed=3, t=4)
        b = synth_energies(d, spec, seed=3, t=4)
        c = synth_energies(d, spec, seed=3, t=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spike_applies_only_at_scheduled_step(self):
        d = np.array([5.0, 5.0, 5.0])
        spec = SynthEnergySpec(mode="adversarial_spike", spike_magnitude=20.0, spike_schedule=((2, 2),))
        spiked = synth_energies(d, spec, seed=0, t=2)
        plain = synth_energies(d, spec, seed=0, t=3)
        assert int(np.argmax(spiked)) == 2
        assert int(np.argmax(plain)) == 0

    def test_repeated_spike_adds_each_time(self):
        d = np.array([5.0, 5.0, 5.0])
        twice = SynthEnergySpec(mode="adversarial_spike", spike_magnitude=3.0, spike_schedule=((2, 2), (2, 2)))
        double = SynthEnergySpec(mode="adversarial_spike", spike_magnitude=6.0, spike_schedule=((2, 2),))
        assert np.allclose(synth_energies(d, twice, 0, 2), synth_energies(d, double, 0, 2), rtol=0, atol=1e-15)

    def test_spike_out_of_range_rejected(self):
        d = np.array([5.0, 5.0])
        spec = SynthEnergySpec(mode="adversarial_spike", spike_schedule=((0, 9),))
        with pytest.raises(ValueError, match="out of range"):
            synth_energies(d, spec, seed=0, t=0)

    @pytest.mark.parametrize(
        "schedule", [((1.7, 2),), ((-3, 2),), ((2, 1.5),), ((True, 2),), ((2, np.False_),), ((2,),), ((1, 2, 3),)]
    )
    def test_spike_schedule_rejects_non_integer_pairs_and_negative_steps(self, schedule):
        with pytest.raises(ValueError, match=r"^spike_schedule entries must be integer \(step >= 0, phoneme\) pairs"):
            SynthEnergySpec(mode="adversarial_spike", spike_schedule=schedule)

    def test_spike_schedule_takes_numpy_integers_as_ints(self):
        spec = SynthEnergySpec(mode="adversarial_spike", spike_schedule=[(np.int64(2), np.uint8(1)), [0, 0]])
        assert spec.spike_schedule == ((2, 1), (0, 0))
        assert all(type(v) is int for pair in spec.spike_schedule for v in pair)

    @pytest.mark.parametrize("mode", ["oracle_diagonal", "noisy_diagonal"])
    @pytest.mark.parametrize(
        "seed, t, message",
        [
            (-1, 0, "^seed must be >= 0$"),
            (0, -1, "^t must be >= 0$"),
            (0, 1.5, "^t must be an integer"),
            (2.0, 0, "^seed must be an integer"),
            (True, 0, "^seed must be an integer"),
        ],
    )
    def test_rejects_bad_seed_or_step_by_name(self, mode, seed, t, message):
        spec = SynthEnergySpec(mode=mode, noise_sigma=1.0)
        with pytest.raises(ValueError, match=message):
            synth_energies(np.array([5.0, 5.0]), spec, seed=seed, t=t)

    def test_takes_numpy_integers(self):
        d, spec = np.array([5.0, 5.0]), SynthEnergySpec(mode="noisy_diagonal", noise_sigma=1.0)
        assert np.array_equal(synth_energies(d, spec, np.uint64(3), np.int32(4)), synth_energies(d, spec, 3, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -3.0])
    def test_rejects_bad_durations(self, bad):
        with pytest.raises(ValueError, match="^durations must be finite and positive$"):
            synth_energies(np.array([5.0, bad]), SynthEnergySpec(), seed=0, t=0)

    def test_query_mode_needs_generator(self):
        with pytest.raises(ValueError):
            synth_energies(np.array([5.0]), SynthEnergySpec(mode="from_query_generator"), 0, 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthEnergySpec(mode="nope")
        with pytest.raises(ValueError):
            SynthEnergySpec(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            SynthEnergySpec(sharpness=0.0)

    @pytest.mark.parametrize("field", ["noise_sigma", "spike_magnitude", "sharpness"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_spec_rejects_nonfinite(self, field, bad):
        with pytest.raises(ValueError, match=f"non-finite {field}"):
            SynthEnergySpec(**{field: bad})


class TestQueryGenerator:
    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (0, 0, "^n_phonemes must be >= 1$"),
            (2.0, 0, "^n_phonemes must be an integer"),
            (3, -1, "^seed must be >= 0$"),
            (3, 0.5, "^seed must be an integer"),
        ],
    )
    def test_rejects_bad_size_or_seed_by_name(self, n, seed, message):
        with pytest.raises(ValueError, match=message):
            QueryGenerator(n, seed)

    def test_deterministic(self):
        p = init_alignment(5)
        e1 = QueryGenerator(5, seed=7).energies(p)
        e2 = QueryGenerator(5, seed=7).energies(p)
        e3 = QueryGenerator(5, seed=8).energies(p)
        assert np.array_equal(e1, e2)
        assert not np.array_equal(e1, e3)
        assert e1.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 14, 128])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_matches_the_validating_loop(self, n, seed):
        """The generator projects its keys once; each step still equals
        the public normalize_energies(content_energies(...)) it replaces."""
        gen, ref = QueryGenerator(n, seed), QueryGenerator(n, seed)
        p = init_alignment(n).p
        for _ in range(500):
            e = gen.energies(p)
            ref.m = np.tanh(ref.A @ ref.m + ref.B @ context_vector(p, ref.keys))
            assert np.array_equal(e, normalize_energies(content_energies(ref.params, ref.m, ref.keys)))
            p = e


class TestRunSimulation:
    def test_oracle_tracking_fixed_horizon(self):
        # fixed horizon = total frames; stop-rule runs cut the final
        # phoneme short, so duration checks use this mode.
        d = np.array([10.0, 10.0, 10.0])
        cfg = SimConfig(fixed_steps=30)
        result = run_simulation(d, oracle_tokens(d), cfg)
        assert result.stopped_by == "fixed"
        assert result.stop_step == 30
        assert result.monotone
        assert np.all(np.abs(result.realized_frames - d) <= 2)

    def test_stop_rule_parks_at_end(self):
        d = np.array([10.0, 10.0, 10.0])
        result = run_simulation(d, oracle_tokens(d), SimConfig())
        assert result.stopped_by == "parked"
        path = result.alignment.argmax_path()
        assert np.all(path[-3:] == 2)
        assert path[-4] != 2  # fired as soon as patience elapsed

    def test_stepped_rows_only(self):
        d = np.array([4.0, 4.0])
        result = run_simulation(d, oracle_tokens(d), SimConfig(fixed_steps=8))
        assert result.alignment.n_steps == 8
        assert int(result.realized_frames.sum()) == 8

    def test_max_steps_flagged_not_raised(self):
        # a slow floor never parks within a tiny budget
        d = np.array([10.0, 10.0, 10.0])
        tokens = TransitionTokens(q=np.full(3, 1e-4))
        result = run_simulation(d, tokens, SimConfig(max_steps=5))
        assert result.stopped_by == "max_steps"
        assert result.stop_step == 5

    def test_forced_march_with_fixed_steps(self):
        d = np.array([1.0, 1.0, 1.0, 1.0])
        result = run_simulation(d, TransitionTokens(q=np.ones(4)), SimConfig(fixed_steps=4))
        assert np.array_equal(result.alignment.argmax_path(), [1, 2, 3, 3])

    def test_la_visits_adversarial_spike(self):
        d = np.full(6, 5.0)
        spec = SynthEnergySpec(mode="adversarial_spike", spike_magnitude=25.0, spike_schedule=((3, 5),))
        cfg = SimConfig(
            opts=StepOptions(mechanism="la"), energy=spec, fixed_steps=10
        )
        result = run_simulation(d, None, cfg)
        path = result.alignment.argmax_path()
        assert path[3] == 5
        assert not result.monotone

    def test_gdca_needs_matching_tokens(self):
        with pytest.raises(ValueError):
            run_simulation(np.array([5.0, 5.0]), None, SimConfig())
        with pytest.raises(ValueError):
            run_simulation(np.array([5.0, 5.0]), TransitionTokens(q=np.array([0.5])), SimConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -3.0])
    @pytest.mark.parametrize("mechanism", ["gdca", "fa"])
    def test_rejects_bad_durations(self, bad, mechanism):
        d = np.array([5.0, bad, 5.0])
        tokens = TransitionTokens(q=np.full(3, 0.2)) if mechanism == "gdca" else None
        cfg = SimConfig(opts=StepOptions(mechanism=mechanism), fixed_steps=5)
        with pytest.raises(ValueError, match="durations must be finite and positive"):
            run_simulation(d, tokens, cfg)

    def test_rejects_batched_tokens(self):
        d = np.array([5.0, 5.0])
        with pytest.raises(ValueError, match=r"one non-empty \(N,\) vector"):
            run_simulation(d, TransitionTokens(q=np.full((1, 2), 0.2)), SimConfig(fixed_steps=3))

    @pytest.mark.parametrize("fixed_steps", [0, -2])
    def test_fixed_steps_must_be_positive(self, fixed_steps):
        with pytest.raises(ValueError, match="fixed_steps must be >= 1"):
            SimConfig(fixed_steps=fixed_steps)

    def test_bit_identical_reruns(self):
        d = np.array([8.0, 12.0, 6.0])
        cfg = SimConfig(energy=SynthEnergySpec(mode="noisy_diagonal", noise_sigma=0.5), seed=11)
        r1 = run_simulation(d, oracle_tokens(d), cfg)
        r2 = run_simulation(d, oracle_tokens(d), cfg)
        assert np.array_equal(r1.alignment.probs, r2.alignment.probs)
        assert r1.to_json() == r2.to_json()

    def test_query_generator_mode_runs(self):
        d = np.full(5, 6.0)
        cfg = SimConfig(energy=SynthEnergySpec(mode="from_query_generator"), fixed_steps=20, seed=2)
        result = run_simulation(d, oracle_tokens(d), cfg)
        assert result.alignment.n_steps == 20
        assert np.allclose(result.alignment.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_json_report_fields(self):
        d = np.array([5.0, 5.0])
        result = run_simulation(d, oracle_tokens(d), SimConfig())
        doc = json.loads(result.to_json())
        assert doc["mechanism"] == "gdca"
        assert doc["stopped_by"] == "parked"
        assert doc["realized_frames"] == [int(v) for v in result.realized_frames]


class TestRealizedDurations:
    def test_counts(self):
        probs = np.array([[0.9, 0.1, 0.0], [0.6, 0.4, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]])
        counts, monotone = realized_durations(AlignmentMatrix(probs=probs))
        assert np.array_equal(counts, [2, 1, 1])
        assert monotone

    def test_backward_step_flagged(self):
        probs = np.array([[0.1, 0.9], [0.9, 0.1]])
        _, monotone = realized_durations(AlignmentMatrix(probs=probs))
        assert not monotone

    def test_unvisited_phonemes_count_zero(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        counts, _ = realized_durations(AlignmentMatrix(probs=probs))
        assert np.array_equal(counts, [1, 0, 0])

    def test_rejects_a_batch(self):
        probs = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(ValueError, match=r"one \(T, N\) array"):
            realized_durations(AlignmentMatrix(probs=probs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_nonfinite_alignment(self, bad):
        # a NaN row would otherwise count toward phoneme 0
        probs = np.array([[0.9, 0.1], [bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^non-finite alignment probability$"):
            realized_durations(AlignmentMatrix(probs=probs))


@pytest.mark.parametrize(
    "settings, field, value",
    [
        (SimConfig, "max_steps", np.nan),
        (SimConfig, "max_steps", 1.5),
        (SimConfig, "max_steps", True),
        (SimConfig, "fixed_steps", 2.5),
        (SimConfig, "stop_patience", 2.5),
        (SimConfig, "seed", 1.5),
        (SimConfig, "seed", np.float64(2.0)),
        (StepOptions, "window_width", 2.0),
        (StepOptions, "window_width", np.nan),
        (StepOptions, "window_width", True),
        (TrainConfig, "epochs", 1.5),
        (TrainConfig, "batch_size", False),
        (TrainConfig, "seed", np.inf),
    ],
)
def test_settings_reject_non_integer_fields_by_name(settings, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer; got {value}$"):
        settings(**{field: value})


@pytest.mark.parametrize(
    "settings, field, value, kind",
    [
        (TrainConfig, "learning_rate", True, "a real number"),
        (TrainConfig, "learning_rate", "2.0", "a real number"),
        (SynthEnergySpec, "noise_sigma", True, "a real number"),
        (SynthEnergySpec, "sharpness", True, "a real number"),
        (SynthEnergySpec, "spike_magnitude", True, "a real number"),
        (SynthEnergySpec, "spike_magnitude", np.True_, "a real number"),
        (SynthEnergySpec, "spike_magnitude", None, "a real number"),
        (StepOptions, "filter_enabled", "no", "a bool"),
        (StepOptions, "filter_enabled", 1, "a bool"),
        (StepOptions, "filter_enabled", None, "a bool"),
        (SimConfig, "seed", np.True_, "an integer"),
        # an int too large for a double is a real number, but not a finite one
        pytest.param(TrainConfig, "learning_rate", 10**400, None, id="TrainConfig-learning_rate-10**400"),
        pytest.param(SynthEnergySpec, "noise_sigma", 10**400, None, id="SynthEnergySpec-noise_sigma-10**400"),
    ],
)
def test_settings_reject_wrongly_typed_fields_by_name(settings, field, value, kind):
    message = f"non-finite {field}" if kind is None else f"{field} must be {kind}; got {value}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        settings(**{field: value})


@pytest.mark.parametrize(
    "settings, field, value, stored",
    [
        (TrainConfig, "learning_rate", np.float64(0.5), 0.5),
        (TrainConfig, "learning_rate", 2, 2.0),
        (SynthEnergySpec, "noise_sigma", np.float32(0.25), 0.25),
        (SynthEnergySpec, "sharpness", np.int64(3), 3.0),
        (StepOptions, "filter_enabled", np.True_, True),
        (StepOptions, "filter_enabled", np.False_, False),
    ],
)
def test_settings_store_numpy_and_integer_values_as_their_field_type(settings, field, value, stored):
    made = getattr(settings(**{field: value}), field)
    assert type(made) is type(stored) and made == stored


@pytest.mark.parametrize(
    "settings, field",
    [
        (SimConfig, "seed"),
        (SimConfig, "max_steps"),
        (SimConfig, "fixed_steps"),
        (SimConfig, "stop_patience"),
        (StepOptions, "window_width"),
        (TrainConfig, "epochs"),
        (TrainConfig, "batch_size"),
        (TrainConfig, "seed"),
    ],
)
def test_settings_accept_numpy_integers_as_ints(settings, field):
    made = settings(**{field: np.int64(4)})
    assert type(getattr(made, field)) is int
    assert made == settings(**{field: 4})
