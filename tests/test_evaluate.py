import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duralign.attention import AlignmentMatrix, StepOptions
from duralign.evaluate import (
    MECHANISM_CONFIGS,
    adversarial_family,
    adversarial_spec,
    compare_mechanisms,
    duration_error,
    monotonicity_score,
    sharpness_score,
    tempo_sweep,
    token_profile,
)
from duralign import evaluate, simulate
from duralign.score import PhonemeEvent, PhonemeSequence, expand_to_phonemes, parse_score_native
from duralign.simulate import SimConfig, SynthEnergySpec, run_simulation
from duralign.tokens import TransitionTokens, oracle_tokens
from pinned import X86_V2, X86_V3, X86_V4, assert_pinned


class TestMetrics:
    def test_monotonicity(self):
        probs = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.9, 0.1, 0.0], [0.0, 0.1, 0.9]])
        # pairs: up, down, up -> 2/3
        assert monotonicity_score(AlignmentMatrix(probs=probs)) == pytest.approx(2 / 3)

    def test_monotonicity_rejects_a_batch(self):
        probs = np.random.default_rng(0).random((3, 5, 4))
        with pytest.raises(ValueError, match=r"one non-empty \(T, N\) array"):
            monotonicity_score(AlignmentMatrix(probs=probs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", [monotonicity_score, sharpness_score])
    def test_metrics_reject_a_nonfinite_alignment(self, metric, bad):
        # the alignment refuses it when built, so no metric sees the value
        with pytest.raises(ValueError, match="^non-finite alignment probability$"):
            metric(AlignmentMatrix(probs=np.array([[0.9, 0.1], [bad, 0.0], [0.0, 1.0]])))

    def test_monotonicity_needs_two_steps(self):
        with pytest.raises(ValueError):
            monotonicity_score(AlignmentMatrix(probs=np.array([[1.0, 0.0]])))

    def test_sharpness(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert sharpness_score(AlignmentMatrix(probs=probs)) == pytest.approx(0.75)

    def test_sharpness_rejects_a_batch(self):
        probs = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.2, 0.8], [0.6, 0.4]]])
        with pytest.raises(ValueError, match=r"one non-empty \(T, N\) array"):
            sharpness_score(AlignmentMatrix(probs=probs))

    def test_duration_error(self):
        mae, rel = duration_error(np.array([9.0, 12.0]), np.array([10.0, 10.0]))
        assert mae == pytest.approx(1.5)
        assert rel == pytest.approx(0.15)

    def test_duration_error_zero_on_match(self):
        d = np.array([3.0, 7.0, 11.0])
        assert duration_error(d, d) == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["realized", "target"])
    def test_duration_error_rejects_nonfinite_input_by_name(self, name, bad):
        args = {"realized": np.array([9.0, 12.0]), "target": np.array([10.0, 10.0])}
        args[name][1] = bad
        with pytest.raises(ValueError, match=f"^non-finite {name}$"):
            duration_error(**args)

    def test_duration_error_rejects_empty_frame_counts(self):
        # the mean of no frame counts would be (nan, nan)
        with pytest.raises(ValueError, match=r"^realized/target shapes must match and be non-empty; got \(0,\) and \(0,\)$"):
            duration_error(np.array([]), np.array([]))

    @pytest.mark.parametrize("target", [[10.0, 0.0], [-1.0, 10.0]])
    def test_duration_error_rejects_a_non_positive_target(self, target):
        with pytest.raises(ValueError, match="^non-positive target$"):
            duration_error(np.array([9.0, 12.0]), np.array(target))


class TestCompareMechanisms:
    def test_oracle_energies_keep_gdca_monotone(self):
        d = np.array([10.0, 14.0, 8.0, 12.0, 9.0])
        report = compare_mechanisms(d, oracle_tokens(d), SimConfig())
        assert [r.label for r in report.rows] == [label for label, _, _ in MECHANISM_CONFIGS]
        for label in ("GDCA", "GDCA+DF", "FA", "FA+DF"):
            row = report.row(label)
            assert row.monotonicity == 1.0
            assert not row.failed

    def test_runs_each_configuration_once_in_order(self, monkeypatch):
        calls = []
        inner = evaluate.run_simulation

        def recording(seq, tokens, cfg):
            calls.append((cfg.opts.mechanism, cfg.opts.filter_enabled))
            return inner(seq, tokens, cfg)

        monkeypatch.setattr(evaluate, "run_simulation", recording)
        d = np.array([4.0, 6.0, 5.0])
        report = compare_mechanisms(d, oracle_tokens(d), SimConfig(fixed_steps=15))
        assert calls == [(mechanism, filtered) for _, mechanism, filtered in MECHANISM_CONFIGS]
        assert [row.label for row in report.rows] == [label for label, _, _ in MECHANISM_CONFIGS]

    def test_unknown_label_raises(self):
        d = np.array([5.0, 5.0])
        report = compare_mechanisms(d, oracle_tokens(d), SimConfig(fixed_steps=10))
        with pytest.raises(KeyError):
            report.row("nope")

    def test_json_and_text_render(self):
        d = np.array([5.0, 5.0])
        report = compare_mechanisms(d, oracle_tokens(d), SimConfig(fixed_steps=10))
        doc = json.loads(report.to_json())
        assert len(doc) == 6
        assert {"label", "monotonicity", "failed"} <= set(doc[0])
        text = report.to_text()
        assert text.splitlines()[0].startswith("system")
        assert len(text.splitlines()) == 7

    def test_deterministic(self):
        d = np.array([6.0, 9.0, 7.0])
        cfg = SimConfig(seed=4)
        assert compare_mechanisms(d, oracle_tokens(d), cfg) == compare_mechanisms(d, oracle_tokens(d), cfg)


def _sharing_cases(instances):
    """(d, cfg) of the frozen family, a noisy diagonal under the stop rule
    and a query-generator run."""
    for inst in instances:
        d = np.array(inst["d"], dtype=np.float64)
        yield d, SimConfig(energy=adversarial_spec(inst), seed=inst["seed"], fixed_steps=int(d.sum()))
    d = np.array([30.0, 45.0, 20.0, 60.0, 35.0, 50.0])
    yield d, SimConfig(energy=SynthEnergySpec(mode="noisy_diagonal", noise_sigma=0.8), seed=11)
    yield d, SimConfig(energy=SynthEnergySpec(mode="from_query_generator"), seed=3, fixed_steps=150)


def _built_blocks(monkeypatch):
    """Record each block ``_SynthRows.rows`` builds: ((t0, t1), rows)."""
    built = []
    inner = simulate._SynthRows.rows

    def recording(self, t0, t1):
        built.append(((t0, t1), inner(self, t0, t1)))
        return built[-1][1]

    monkeypatch.setattr(simulate._SynthRows, "rows", recording)
    return built


class TestSharedEnergies:
    def test_results_equal_standalone_runs(self, monkeypatch, adversarial_instances):
        inner = evaluate.run_simulation
        for d, cfg in _sharing_cases(adversarial_instances):
            tokens = oracle_tokens(d)
            captured = []

            def one_simulation(seq, toks, sim_cfg):  # as the benchmark harness wraps it
                captured.append((sim_cfg, inner(seq, toks, sim_cfg)))
                return captured[-1][1]

            monkeypatch.setattr(evaluate, "run_simulation", one_simulation)
            report = compare_mechanisms(d, tokens, cfg)
            monkeypatch.setattr(evaluate, "run_simulation", inner)
            assert len(captured) == 6
            rows = []
            for (label, _, _), (sim_cfg, shared) in zip(MECHANISM_CONFIGS, captured):
                alone = run_simulation(d, tokens, sim_cfg)
                assert np.array_equal(shared.alignment.probs, alone.alignment.probs)
                assert np.array_equal(shared.realized_frames, alone.realized_frames)
                assert (shared.stop_step, shared.stopped_by) == (alone.stop_step, alone.stopped_by)
                rows.append(evaluate._row_from_result(label, alone, d))
            assert report == evaluate.MechanismReport(rows=tuple(rows))

    @pytest.mark.parametrize("case", [0, 20])  # a frozen instance; the noisy diagonal under the stop rule
    def test_each_block_is_built_once_and_read_only(self, monkeypatch, adversarial_instances, case):
        d, cfg = list(_sharing_cases(adversarial_instances))[case]
        built = _built_blocks(monkeypatch)
        report = compare_mechanisms(d, oracle_tokens(d), cfg)
        spans = [span for span, _ in built]
        longest = max(row.stop_step for row in report.rows)
        assert spans == [(t0, min(t0 + 128, cfg.fixed_steps or cfg.max_steps)) for t0 in range(0, longest, 128)]
        for _, rows in built:
            assert not rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0

    @pytest.mark.parametrize("case", [0, 20, 21])  # a frozen instance; the noisy diagonal; the query generator
    def test_a_comparison_builds_one_energy_source(self, monkeypatch, adversarial_instances, case):
        d, cfg = list(_sharing_cases(adversarial_instances))[case]
        sources, scopes = [], []
        init, inner = simulate._SynthRows.__init__, evaluate.run_simulation

        def recording_init(self, *args):
            sources.append(self)
            init(self, *args)

        def one_simulation(seq, toks, sim_cfg):
            scopes.append(simulate._SHARED.get())
            return inner(seq, toks, sim_cfg)

        monkeypatch.setattr(simulate._SynthRows, "__init__", recording_init)
        monkeypatch.setattr(evaluate, "run_simulation", one_simulation)
        compare_mechanisms(d, oracle_tokens(d), cfg)
        query = cfg.energy.mode == "from_query_generator"
        assert [type(source) for source in sources] == ([] if query else [simulate._KeptRows])
        assert scopes == [None if query else sources[0]] * 6

    def test_nothing_is_kept_after_a_comparison(self, monkeypatch, adversarial_instances):
        d, cfg = list(_sharing_cases(adversarial_instances))[0]
        built = _built_blocks(monkeypatch)
        compare_mechanisms(d, oracle_tokens(d), cfg)
        assert simulate._SHARED.get() is None
        before = len(built)
        run_simulation(d, oracle_tokens(d), cfg)
        assert len(built) == before + 2
        assert all(rows.flags.writeable for _, rows in built[before:])

    def test_nothing_is_kept_after_a_comparison_raises(self, monkeypatch):
        # a magnitude-1000 spike: LA builds the blocks, then LA+Window's normalizer underflows
        d = np.full(40, 10.0)
        spike = SynthEnergySpec(mode="adversarial_spike", spike_magnitude=1000.0, spike_schedule=((5, 30),))
        cfg = SimConfig(energy=spike, fixed_steps=200)
        built = _built_blocks(monkeypatch)
        with pytest.raises(FloatingPointError):
            compare_mechanisms(d, oracle_tokens(d), cfg)
        assert simulate._SHARED.get() is None
        before = len(built)
        assert before == 2
        run_simulation(d, None, dataclasses.replace(cfg, opts=StepOptions(mechanism="la")))  # la does not underflow
        assert [span for span, _ in built[before:]] == [(0, 128), (128, 200)]


class TestTempoSweep:
    def test_halving_tempo_doubles_length(self, ten_notes_text):
        score = parse_score_native(ten_notes_text)
        sweep = tempo_sweep(score, [60.0, 120.0, 180.0], SimConfig())
        assert sweep.ratios[0] == 1.0
        assert sweep.ratios[1] == pytest.approx(0.5, rel=0.05)
        assert sweep.ratios[2] == pytest.approx(1 / 3, rel=0.05)
        assert all(r.stopped_by == "parked" for r in sweep.results)

    def test_json_render(self, ten_notes_text):
        score = parse_score_native(ten_notes_text)
        sweep = tempo_sweep(score, [120.0], SimConfig())
        doc = json.loads(sweep.to_json())
        assert doc["tempos"] == [120.0]
        assert doc["ratios"] == [1.0]

    def test_empty_tempos_rejected(self, ten_notes_text):
        with pytest.raises(ValueError):
            tempo_sweep(parse_score_native(ten_notes_text), [], SimConfig())


class TestTokenProfile:
    def test_oracle_is_antitone(self, ten_notes_text):
        score = parse_score_native(ten_notes_text)
        seq = expand_to_phonemes(score)
        profile = token_profile(seq, oracle_tokens(seq))
        assert profile["antitone"]
        assert profile["antitone_violations"] == 0
        assert len(profile["rows"]) == len(seq)
        assert profile["rows"][0]["tempo_bpm"] == 120

    def test_violation_detected(self, ten_notes_text):
        seq = expand_to_phonemes(parse_score_native(ten_notes_text))
        q = oracle_tokens(seq).q.copy()
        q[0] = min(1.0, q[0] * 1.5)  # same duration as the rest, larger token
        profile = token_profile(seq, TransitionTokens(q=q))
        assert not profile["antitone"]
        assert profile["antitone_violations"] > 0

    def test_rejects_batched_tokens(self, ten_notes_text):
        seq = expand_to_phonemes(parse_score_native(ten_notes_text))
        with pytest.raises(ValueError, match=r"one non-empty \(N,\) vector"):
            token_profile(seq, TransitionTokens(q=np.tile(oracle_tokens(seq).q, (2, 1))))


def _looped_violations(d, q):
    return sum(
        1 for i in range(len(d)) for j in range(len(d)) if d[i] >= d[j] and q[i] > q[j] + 1e-12
    )


# Few distinct values so that durations and tokens tie often; the token
# pairs 0.5 / 0.5 + 5e-13 / 0.5 + 2e-12 sit on both sides of the 1e-12 slack.
_TOKENS = (0.1, 0.25, 0.5, 0.5 + 5e-13, 0.5 + 2e-12, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.sampled_from(_TOKENS)), min_size=1, max_size=40),
    st.sampled_from([1, 3, 7, 512]),
)
def test_token_profile_counts_like_the_double_loop(pairs, block):
    d = [f for f, _ in pairs]
    q = np.array([t for _, t in pairs])
    events = tuple(
        PhonemeEvent(phoneme=f"p{i}", pitch=60, duration_s=0.01 * f, target_frames=f, note_index=i)
        for i, f in enumerate(d)
    )
    old_block = evaluate._PROFILE_BLOCK
    evaluate._PROFILE_BLOCK = block  # exercise row blocks smaller than N
    try:
        profile = token_profile(PhonemeSequence(events=events), TransitionTokens(q=q))
    finally:
        evaluate._PROFILE_BLOCK = old_block
    expected = _looped_violations(np.array(d, dtype=np.float64), q)
    assert profile["antitone_violations"] == expected
    assert profile["antitone"] == (expected == 0)


class TestAdversarialFamily:
    def test_matches_archived_fixture(self, adversarial_instances):
        regenerated = json.loads(json.dumps(adversarial_family()))
        assert regenerated == adversarial_instances

    def test_spec_round_trip(self, adversarial_instances):
        spec = adversarial_spec(adversarial_instances[0])
        assert spec.mode == "adversarial_spike"
        assert spec.spike_magnitude == adversarial_instances[0]["spike_magnitude"]
        assert list(spec.spike_schedule) == [tuple(p) for p in adversarial_instances[0]["spike_schedule"]]

    def test_spikes_sit_ahead_of_the_diagonal(self, adversarial_instances):
        from duralign.simulate import phoneme_at_frame

        inst = adversarial_instances[0]
        d = np.array(inst["d"], dtype=np.float64)
        for step, phoneme in inst["spike_schedule"]:
            expected = phoneme_at_frame(d, step)
            assert phoneme >= expected

    # sha256 of the six-way reports of the frozen family, per exp kernel (``pinned``)
    REPORT_DIGESTS = {
        X86_V4: "0614d8d95c73852bdbc23f0ce909ef788b0e707e602981de7ae889d11de7dfcd",
        X86_V3: "107c2c3c95346c36f255ba6eea3ca5c1e451da031f3f8f1246a14cdc23d6ff89",
        X86_V2: "107c2c3c95346c36f255ba6eea3ca5c1e451da031f3f8f1246a14cdc23d6ff89",
    }

    def test_reports_are_pinned(self, adversarial_instances):
        # the six-way reports of the frozen family, run as criterion 08 runs them;
        # any change to a report's bytes (values, field order, JSON layout) shows here
        digest = hashlib.sha256()
        for inst in adversarial_instances:
            d = np.array(inst["d"], dtype=np.float64)
            cfg = SimConfig(energy=adversarial_spec(inst), seed=inst["seed"], fixed_steps=int(d.sum()))
            digest.update(compare_mechanisms(d, oracle_tokens(d), cfg).to_json().encode())
        assert_pinned(self.REPORT_DIGESTS, digest.hexdigest())
