import hashlib
import json
import math

import numpy as np
import pytest

from duralign.score import Score, NoteEvent, expand_to_phonemes
from duralign.tokens import (
    DurationEncoderParams,
    DurationFeatures,
    TrainConfig,
    TrainingDiverged,
    TransitionTokens,
    duration_features,
    encoder_backward,
    encoder_forward,
    oracle_tokens,
    params_from_text,
    params_to_text,
    tokens_to_csv,
    train_encoder,
)
import duralign.tokens as tokens_mod
from pinned import X86_V2, X86_V3, X86_V4, assert_pinned


class TestOracle:
    def test_reciprocal(self):
        q = oracle_tokens(np.array([50.0, 1.0, 4.0])).q
        assert np.allclose(q, [0.02, 1.0, 0.25], atol=0, rtol=0)

    def test_floor(self):
        q = oracle_tokens(np.array([20000.0])).q
        assert q[0] == 1e-4

    def test_custom_floor(self):
        q = oracle_tokens(np.array([1000.0]), q_min=0.01).q
        assert q[0] == 0.01

    def test_rejects_sub_frame_targets(self):
        with pytest.raises(ValueError):
            oracle_tokens(np.array([0.5]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_frame_targets(self, bad):
        with pytest.raises(ValueError, match="^non-finite durations$"):
            oracle_tokens(np.array([5.0, bad]))

    # an int beyond the largest double is not finite as a float
    @pytest.mark.parametrize("q_min", [True, np.True_, "0.1", np.nan, 1.5, -(10**400), 10**400])
    def test_rejects_bad_floor(self, q_min):
        with pytest.raises(ValueError, match=r"^q_min must be finite and <= 1; got "):
            oracle_tokens(np.array([5.0, 3.0]), q_min=q_min)

    def test_antitone(self):
        d = np.arange(1.0, 300.0)
        q = oracle_tokens(d).q
        assert np.all(np.diff(q) <= 0)

    def test_from_sequence(self):
        score = Score(default_tempo_bpm=60, notes=(NoteEvent("ni", ("n", "i"), 62, 1.0),))
        seq = expand_to_phonemes(score)
        q = oracle_tokens(seq).q
        assert np.allclose(q, [0.02, 0.02])


class TestTokenContainer:
    @pytest.mark.parametrize("bad", [[0.0, 0.5], [0.5, 1.0001], [-0.1], [np.nan]])
    def test_range_enforced(self, bad):
        with pytest.raises(ValueError):
            TransitionTokens(q=np.array(bad))

    def test_len(self):
        assert len(TransitionTokens(q=np.array([0.5, 0.25]))) == 2


def zero_params(hidden):
    return DurationEncoderParams(np.zeros((hidden, 3)), np.zeros(hidden), np.zeros(hidden), 0.0)


class TestEncoderForward:
    def test_zero_params_give_half(self):
        params = zero_params(4)
        feats = DurationFeatures(rows=np.array([[0.5, 120.0, 3.0], [1.0, 60.0, 4.0]]))
        q = encoder_forward(params, feats).q
        assert np.all(q == 0.5)

    def test_large_bias_saturates_inside_open_interval(self):
        params = zero_params(4)
        feats = DurationFeatures(rows=np.array([[0.5, 120.0, 3.0]]))
        for b2, target in ((40.0, 1.0), (-40.0, 0.0)):
            params.b2 = b2
            q = encoder_forward(params, feats).q
            assert abs(q[0] - target) < 1e-6
            assert 0.0 < q[0] < 1.0  # clip keeps the open interval

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(11)
        params = DurationEncoderParams.init(3, hidden=2)
        row = np.array([0.7, 95.0, 2.4])
        q = encoder_forward(params, DurationFeatures(rows=row[None, :])).q[0]
        x = row * np.array([1.0, 0.01, 0.25])
        pre = 0.0
        for j in range(2):
            h = math.tanh(sum(params.w1[j, k] * x[k] for k in range(3)) + params.b1[j])
            pre += params.w2[j] * h
        expected = 1.0 / (1.0 + math.exp(-(pre + params.b2)))
        assert abs(q - expected) < 1e-14

    def test_rejects_nonfinite_params(self):
        params = zero_params(2)
        params.b1[0] = np.inf
        feats = DurationFeatures(rows=np.array([[0.5, 120.0, 3.0]]))
        with pytest.raises(ValueError):
            encoder_forward(params, feats)


class TestEncoderBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = DurationEncoderParams.init(5, hidden=4)
        feats = DurationFeatures(rows=np.array([[0.5, 120.0, 3.0], [1.0, 60.0, 4.0]]))
        g = encoder_backward(params, feats, np.zeros(2))
        assert np.all(g.w1 == 0) and np.all(g.b1 == 0) and np.all(g.w2 == 0) and g.b2 == 0.0
        assert isinstance(g, DurationEncoderParams)

    def test_duplicated_rows_double_gradient(self):
        params = DurationEncoderParams.init(5, hidden=4)
        row = np.array([[0.5, 120.0, 3.0]])
        single = encoder_backward(params, DurationFeatures(rows=row), np.ones(1))
        double = encoder_backward(params, DurationFeatures(rows=np.vstack([row, row])), np.ones(2))
        assert np.allclose(double.w1, 2.0 * single.w1)
        assert double.b2 == pytest.approx(2.0 * single.b2)

    def test_rejects_nonfinite_params(self):
        params = DurationEncoderParams.init(0, hidden=4)
        params.w1[0, 0] = np.nan
        feats = DurationFeatures(rows=np.array([[0.5, 120.0, 3.0], [1.0, 60.0, 4.0]]))
        with pytest.raises(ValueError, match="non-finite encoder parameter"):
            encoder_backward(params, feats, np.ones(2))

    def test_rejects_a_feature_dimension_mismatch(self):
        params = DurationEncoderParams(w1=np.zeros((4, 2)), b1=np.zeros(4), w2=np.zeros(4), b2=0.0)
        feats = DurationFeatures(rows=np.array([[0.5, 120.0, 3.0]]))
        with pytest.raises(ValueError, match="parameter/feature dimension mismatch"):
            encoder_forward(params, feats)
        with pytest.raises(ValueError, match="parameter/feature dimension mismatch"):
            encoder_backward(params, feats, np.ones(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_upstream(self, bad):
        params = DurationEncoderParams.init(5, hidden=4)
        feats = DurationFeatures(rows=np.array([[0.5, 120.0, 3.0], [1.0, 60.0, 4.0]]))
        with pytest.raises(ValueError, match="non-finite upstream gradient"):
            encoder_backward(params, feats, np.array([1.0, bad]))


class TestTraining:
    @staticmethod
    def dataset(seed=0, n=80):
        rng = np.random.default_rng(seed)
        d = rng.integers(2, 101, n).astype(np.float64)
        rows = np.column_stack([d * 0.01, rng.uniform(60.0, 180.0, n), np.log(d)])
        return DurationFeatures(rows=rows), oracle_tokens(d)

    def test_loss_decreases(self):
        feats, targets = self.dataset()
        cfg = TrainConfig(epochs=200)
        _, history = train_encoder(feats, targets, cfg)
        assert history[-1] < history[0] / 10

    def test_deterministic_given_seed(self):
        feats, targets = self.dataset()
        cfg = TrainConfig(epochs=50)
        p1, h1 = train_encoder(feats, targets, cfg)
        p2, h2 = train_encoder(feats, targets, cfg)
        assert h1 == h2
        assert np.array_equal(p1.w1, p2.w1) and p1.b2 == p2.b2

    def test_divergence_raises_with_epoch(self, monkeypatch):
        feats, targets = self.dataset(n=8)
        real = tokens_mod._forward_parts

        def poisoned(params, batch):
            x, h, y = real(params, batch)
            return x, h, np.full_like(y, np.nan)

        monkeypatch.setattr(tokens_mod, "_forward_parts", poisoned)
        with pytest.raises(TrainingDiverged) as exc:
            train_encoder(feats, targets, TrainConfig(epochs=5))
        assert exc.value.epoch == 0

    @staticmethod
    def reference_training(feats, targets, cfg):
        """train_encoder's loop with the gradients from the public
        encoder_backward, which reruns the forward pass."""
        params = DurationEncoderParams.init(cfg.seed, hidden=16, scale=0.2)
        rng = np.random.default_rng(cfg.seed)
        n = feats.rows.shape[0]
        history = []
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                batch = DurationFeatures(rows=feats.rows[idx])
                err = tokens_mod._forward_parts(params, batch.rows)[2] - targets.q[idx]
                batch_losses.append(float(np.mean(err * err)))
                grads = encoder_backward(params, batch, 2.0 * err / idx.size)
                params.w1 -= cfg.learning_rate * grads.w1
                params.b1 -= cfg.learning_rate * grads.b1
                params.w2 -= cfg.learning_rate * grads.w2
                params.b2 -= cfg.learning_rate * grads.b2
            history.append(float(np.mean(batch_losses)))
        return params, history

    @pytest.mark.parametrize("batch_size", [128, 7])
    def test_equals_reference_loop(self, batch_size):
        feats, targets = self.dataset(seed=3)
        cfg = TrainConfig(epochs=30, batch_size=batch_size, seed=4)
        params, history = train_encoder(feats, targets, cfg)
        ref_params, ref_history = self.reference_training(feats, targets, cfg)
        assert history == ref_history
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(params, name), getattr(ref_params, name))

    # sha256 of the history (as float64) and then w1, b1, w2, b2 from train_encoder on
    # dataset(), per exp kernel (``pinned``), with numpy 2.4.6 on x86-64: one batch per
    # epoch, then 12 batches per epoch.  The X86_V4 kernel's were recorded before the
    # epoch loop dropped np.mean and the masked sigmoid.
    TRAINED_DIGESTS = [
        (128, {
            X86_V4: "3b92b0a2d897a19efc7379f6db7d7ad6c72441d6a1a2cc54db70d6384bd09bf3",
            X86_V3: "43a50352a54e87ffb82ece8dfc2b2de49cbd38e3399a7b97e0f25bff08095139",
            X86_V2: "1480a80b2a6d24bf7d82dd91bf3102d10d1c2aa758975fe2abeabf677c53d63b",
        }),
        (7, {
            X86_V4: "ee8ed0be9ef2a43e9f48014a3d269055a9039187c897e40ccd45914736ea1ee9",
            X86_V3: "2984422f12f4cca4f2259c3de519b1939411cbd7c87a7db6a4091289fb8140d1",
            X86_V2: "93cddbbe042e1c90126ef2c765941749f8d97c9f22c1843d9e9638580e4c54f2",
        }),
    ]

    @pytest.mark.parametrize("batch_size, digests", TRAINED_DIGESTS, ids=["128", "7"])
    def test_trained_bits_are_pinned(self, batch_size, digests):
        feats, targets = self.dataset()
        params, history = train_encoder(feats, targets, TrainConfig(batch_size=batch_size))
        h = hashlib.sha256(np.array(history, dtype=np.float64).tobytes())
        for value in (params.w1, params.b1, params.w2, params.b2):
            h.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
        assert_pinned(digests, h.hexdigest())

    def test_zero_lr_keeps_history_constant(self):
        feats, targets = self.dataset(n=16)
        _, history = train_encoder(feats, targets, TrainConfig(learning_rate=0.0, epochs=5, batch_size=128))
        # permutation reorders the mean's summands, so allow fp-level slack
        assert history == pytest.approx([history[0]] * 5, rel=1e-12)


def test_sigmoid_equals_the_two_branch_form():
    x = np.concatenate([
        [np.inf, -np.inf, 0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, np.nan],
        np.random.default_rng(0).normal(size=10_000) * 50.0,
    ])
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    assert np.array_equal(tokens_mod._sigmoid(x), expected, equal_nan=True)


def param_text(edit=None) -> str:
    """A hidden-4 parameter file, its JSON object first given to ``edit``."""
    obj = json.loads(params_to_text(DurationEncoderParams.init(0, hidden=4)))
    return json.dumps(edit(obj) if edit else obj)


# (id, parameter-file text, the message it is rejected with: what json says, or the key at fault)
BAD_PARAMETER_FILES = [
    ("empty", "", "Expecting value"),
    ("not-json", "garbage\n", "Expecting value"),
    ("truncated", param_text()[:-20], "Expecting "),
    ("text-after", param_text() + " {}", "Extra data"),
    ("old-layout", "hidden 4\nw1 2 2\n1.0 2.0\n", "Expecting value"),
    ("deep-nesting", "[" * 100_000, "bad parameter file: maximum recursion depth exceeded"),
    ("array", "[1.0, 2.0]", "bad parameter file: expected one JSON object, got list$"),
    ("unknown", param_text(lambda o: {**o, "zz": 0.5}), "bad parameter file: unknown key 'zz'$"),
    ("missing", param_text(lambda o: {k: v for k, v in o.items() if k != "b2"}), "bad parameter file: missing key 'b2'$"),
    ("repeated", param_text()[:-1] + ', "b1": [1, 2, 3, 4]}', "bad parameter file: repeated key 'b1'$"),
    ("empty-b1", param_text(lambda o: {**o, "b1": []}), "bad parameter file: 'b1' must be a non-empty list$"),
    ("number-b1", param_text(lambda o: {**o, "b1": 4}), "bad parameter file: 'b1' must be a non-empty list$"),
    ("w1-columns", param_text(lambda o: {**o, "w1": [[0.5, 0.5]] * 4}), "bad parameter file: 'w1' must be 4 rows of 3 numbers$"),
    ("w1-ragged", param_text(lambda o: {**o, "w1": o["w1"][:3] + [[0.5] * 4]}),
     "bad parameter file: 'w1' must be 4 rows of 3 numbers$"),
    ("w1-flat", param_text(lambda o: {**o, "w1": [0.5] * 12}), "bad parameter file: 'w1' must be 4 rows of 3 numbers$"),
    ("longer-b1", param_text(lambda o: {**o, "b1": o["b1"] + [0.5]}), "bad parameter file: 'w1' must be 5 rows of 3 numbers$"),
    ("short-w2", param_text(lambda o: {**o, "w2": o["w2"][:3]}), "bad parameter file: 'w2' must be 4 numbers$"),
    ("list-b2", param_text(lambda o: {**o, "b2": [o["b2"]]}), "bad parameter file: 'b2' must be a number$"),
    ("bool-w1", param_text(lambda o: {**o, "w1": [[True, 0.5, 0.5]] + o["w1"][1:]}),
     "bad parameter file: 'w1' must be 4 rows of 3 numbers$"),
    ("string-b1", param_text(lambda o: {**o, "b1": ["0.5"] + o["b1"][1:]}), "bad parameter file: 'b1' must be 4 numbers$"),
    ("null-w2", param_text(lambda o: {**o, "w2": o["w2"][:3] + [None]}), "bad parameter file: 'w2' must be 4 numbers$"),
    ("bool-b2", param_text(lambda o: {**o, "b2": False}), "bad parameter file: 'b2' must be a number$"),
    ("nan", param_text(lambda o: {**o, "w1": [[math.nan, 0.5, 0.5]] + o["w1"][1:]}), "non-finite encoder parameter$"),
    ("infinity", param_text(lambda o: {**o, "b2": -math.inf}), "non-finite encoder parameter$"),
    ("int-beyond-the-doubles", param_text(lambda o: {**o, "w2": o["w2"][:3] + [10**400]}), "non-finite encoder parameter$"),
    ("number-beyond-the-doubles", param_text(lambda o: {**o, "b2": "@"}).replace('"@"', "1e400"), "non-finite encoder parameter$"),
]


class TestSerialization:
    @pytest.mark.parametrize("hidden", [1, 2, 5, 16, 33])
    def test_round_trip_exact(self, hidden):
        params = DurationEncoderParams.init(9, hidden=hidden)
        # the largest doubles, the smallest subnormal and negative zeros
        params.w1[0] = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324]
        params.b1[0], params.w2[-1], params.b2 = -0.0, -5e-324, -0.0
        text = params_to_text(params)
        back = params_from_text(text)
        for key in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(back, key), getattr(params, key))
        assert np.signbit(back.b1[0]) and math.copysign(1.0, back.b2) == -1.0
        assert params_to_text(back) == text

    def test_the_file_is_one_json_object(self):
        params = DurationEncoderParams.init(0, hidden=2)
        assert json.loads(params_to_text(params)) == {
            "w1": params.w1.tolist(), "b1": params.b1.tolist(), "w2": params.w2.tolist(), "b2": params.b2,
        }

    def test_arrays_of_different_hidden_sizes_are_rejected(self):
        params = DurationEncoderParams(np.zeros((4, 3)), np.zeros(4), np.zeros(5), 0.0)
        with pytest.raises(ValueError, match="^bad parameter file: 'w2' must be 4 numbers$"):
            params_from_text(params_to_text(params))

    @pytest.mark.parametrize("text, message", [row[1:] for row in BAD_PARAMETER_FILES], ids=[row[0] for row in BAD_PARAMETER_FILES])
    def test_only_the_written_layout_is_read(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            params_from_text(text)

    def test_csv_layout(self):
        score = Score(default_tempo_bpm=60, notes=(NoteEvent("ni", ("n", "i"), 62, 1.0),))
        seq = expand_to_phonemes(score)
        csv = tokens_to_csv(seq, oracle_tokens(seq))
        lines = csv.splitlines()
        assert lines[0] == "index,phoneme,d_frames,q"
        assert lines[1] == "0,n,50,0.02"
        assert lines[2] == "1,i,50,0.02"

    def test_csv_rejects_batched_tokens(self):
        score = Score(default_tempo_bpm=60, notes=(NoteEvent("ni", ("n", "i"), 62, 1.0),))
        seq = expand_to_phonemes(score)
        with pytest.raises(ValueError, match=r"one non-empty \(N,\) vector"):
            tokens_to_csv(seq, TransitionTokens(q=np.full((2, 2), 0.5)))


def test_duration_features_from_score():
    score = Score(
        default_tempo_bpm=120,
        notes=(NoteEvent("ni", ("n", "i"), 62, 1.0), NoteEvent("a", ("a",), 64, 1.0, tempo_bpm=60)),
    )
    seq = expand_to_phonemes(score)
    feats = duration_features(seq)
    assert feats.rows.shape == (3, 3)
    assert feats.rows[0, 1] == 120.0
    assert feats.rows[2, 1] == 60.0
    assert feats.rows[2, 2] == pytest.approx(np.log(seq.target_frames[2]))
