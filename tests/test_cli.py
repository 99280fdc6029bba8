import json

import numpy as np
import pytest

from duralign import cli
from duralign.cli import _sim_config, build_parser, main
from duralign.musicxml import parse_musicxml
from duralign.score import expand_to_phonemes, parse_lexicon
from duralign.simulate import SimConfig
from duralign.tokens import (
    Q_MIN_DEFAULT,
    DurationEncoderParams,
    TrainConfig,
    TrainingDiverged,
    oracle_tokens,
    params_from_text,
    params_to_text,
    tokens_to_csv,
)
from test_gradients import corrupt_every_backward

TEN = "tests/fixtures/ten_notes.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_native_round_trip(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "parse", str(fixtures_dir / "ten_notes.json"))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["notes"]) == 10

    def test_musicxml(self, capsys, fixtures_dir):
        path = fixtures_dir / "musicxml" / "melody.musicxml"
        expected = (fixtures_dir / "musicxml" / "melody.expected.json").read_text()
        code, out, _ = run(capsys, "parse", str(path), "--format", "musicxml")
        assert code == 0
        assert out == expected

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse", "no/such/file.json")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_score_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert "error:" in err

    def test_non_finite_tempo_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"tempo_bpm": NaN, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1}]}')
        code, out, err = run(capsys, "parse", str(bad))
        assert (code, out) == (2, "")
        assert "non-finite default_tempo_bpm" in err

    def test_tempo_beyond_the_double_range_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "huge.json"
        bad.write_text('{"tempo_bpm": 1%s, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1}]}' % ("0" * 400))
        code, out, err = run(capsys, "parse", str(bad))
        assert (code, out, err) == (2, "", f"error: {bad}: non-finite default_tempo_bpm\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('<sound tempo="60"/>', '<sound tempo="fast"/>', "<sound tempo> is not a number: 'fast'"),
            ("<divisions>1</divisions>", "<divisions>one</divisions>", "<divisions> is not a number: 'one'"),
        ],
    )
    def test_musicxml_word_for_a_number_is_usage_error(self, capsys, fixtures_dir, tmp_path, old, new, message):
        xml = (fixtures_dir / "musicxml" / "single_note.musicxml").read_text()
        assert xml.count(old) == 1
        bad = tmp_path / "bad.musicxml"
        bad.write_text(xml.replace(old, new))
        code, out, err = run(capsys, "parse", str(bad), "--format", "musicxml")
        assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestTokens:
    def test_oracle_csv(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "tokens", str(fixtures_dir / "ten_notes.json"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,phoneme,d_frames,q"
        assert lines[1] == "0,c,25,0.04"
        assert len(lines) == 21

    def test_out_file(self, capsys, fixtures_dir, tmp_path):
        dest = tmp_path / "tokens.csv"
        code, out, _ = run(capsys, "tokens", str(fixtures_dir / "ten_notes.json"), "--out", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().startswith("index,phoneme,d_frames,q\n")

    def test_encoder_source_requires_params(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "tokens", str(fixtures_dir / "ten_notes.json"), "--source", "encoder")
        assert code == 2
        assert "--params" in err

    def test_encoder_source_with_trained_params(self, capsys, fixtures_dir, tmp_path):
        params = tmp_path / "params.txt"
        code, _, _ = run(capsys, "train-encoder", "--epochs", "5", "--out", str(params))
        assert code == 0
        code, out, _ = run(
            capsys,
            "tokens",
            str(fixtures_dir / "ten_notes.json"),
            "--source",
            "encoder",
            "--params",
            str(params),
        )
        assert code == 0
        q = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        assert all(0.0 < v < 1.0 for v in q)


    def test_lexicon_file(self, capsys, fixtures_dir):
        score = str(fixtures_dir / "musicxml" / "melody.musicxml")
        code, out, _ = run(capsys, "tokens", score, "--format", "musicxml", "--lexicon", str(fixtures_dir / "lexicon.txt"))
        seq = expand_to_phonemes(parse_musicxml((fixtures_dir / "musicxml" / "melody.musicxml").read_text()),
                                 parse_lexicon((fixtures_dir / "lexicon.txt").read_text()))
        assert (code, out) == (0, tokens_to_csv(seq, oracle_tokens(seq)))
        assert out.splitlines()[1:3] == ["0,n,30,0.03333333333333333", "1,i,30,0.03333333333333333"]

    def test_malformed_lexicon_file_is_usage_error(self, capsys, tmp_path):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("la l:0.5 a:0.6\n")
        code, out, err = run(capsys, "tokens", TEN, "--lexicon", str(lexicon))
        assert (code, out, err) == (2, "", f"error: {lexicon}: lexicon line 1: ratios sum to 1.1, expected 1\n")


class TestSimulate:
    def test_outputs_and_determinism(self, capsys, fixtures_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, msg, _ = run(
                capsys, "simulate", str(fixtures_dir / "ten_notes.json"), "--out", str(out_dir), "--seed", "3"
            )
            assert code == 0
            assert "stopped_by=parked" in msg
            outs.append(
                tuple((out_dir / f).read_bytes() for f in ("report.json", "alignment.csv", "alignment.pgm"))
            )
        assert outs[0] == outs[1]

    def test_report_contents(self, capsys, fixtures_dir, tmp_path):
        out_dir = tmp_path / "sim"
        run(capsys, "simulate", str(fixtures_dir / "ten_notes.json"), "--out", str(out_dir))
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["mechanism"] == "gdca"
        assert doc["window_width"] == 16  # default filter width
        assert doc["stopped_by"] == "parked"
        pgm = (out_dir / "alignment.pgm").read_bytes()
        assert pgm.startswith(b"P5\n20 ")

    def test_max_steps_failure_exit_code(self, capsys, fixtures_dir, tmp_path):
        code, _, err = run(
            capsys,
            "simulate",
            str(fixtures_dir / "ten_notes.json"),
            "--out",
            str(tmp_path / "x"),
            "--max-steps",
            "5",
        )
        assert code == 1
        assert "stop rule" in err

    def test_odd_window_width_is_usage_error(self, capsys, fixtures_dir, tmp_path):
        code, _, err = run(
            capsys,
            "simulate",
            str(fixtures_dir / "ten_notes.json"),
            "--out",
            str(tmp_path / "x"),
            "--L",
            "7",
        )
        assert code == 2
        assert "window width" in err

    def test_zero_fixed_steps_is_usage_error(self, capsys, fixtures_dir, tmp_path):
        code, _, err = run(
            capsys,
            "simulate",
            str(fixtures_dir / "ten_notes.json"),
            "--out",
            str(tmp_path / "x"),
            "--fixed-steps",
            "0",
        )
        assert code == 2
        assert err.startswith("error:")
        assert "fixed_steps must be >= 1" in err

    @pytest.mark.parametrize("flag,field", [("--noise-sigma", "noise_sigma"), ("--sharpness", "sharpness")])
    def test_nan_energy_parameter_is_usage_error(self, capsys, fixtures_dir, tmp_path, flag, field):
        code, _, err = run(
            capsys,
            "simulate",
            str(fixtures_dir / "ten_notes.json"),
            "--out",
            str(tmp_path / "x"),
            "--energy",
            "noisy_diagonal",
            flag,
            "nan",
        )
        assert code == 2
        assert err.startswith("error:")
        assert f"non-finite {field}" in err
        assert not (tmp_path / "x").exists()


class TestSweep:
    def test_outputs(self, capsys, fixtures_dir, tmp_path):
        out_dir = tmp_path / "sweep"
        code, msg, _ = run(
            capsys,
            "sweep",
            str(fixtures_dir / "ten_notes.json"),
            "--tempos",
            "120,240",
            "--out",
            str(out_dir),
        )
        assert code == 0
        doc = json.loads((out_dir / "sweep.json").read_text())
        assert doc["tempos"] == [120.0, 240.0]
        assert doc["ratios"][0] == 1.0
        assert (out_dir / "alignment_120.csv").exists()
        assert (out_dir / "alignment_240.csv").exists()
        assert "tempo=120" in msg

    def test_bad_tempo_list(self, capsys, fixtures_dir, tmp_path):
        code, _, err = run(
            capsys,
            "sweep",
            str(fixtures_dir / "ten_notes.json"),
            "--tempos",
            "fast",
            "--out",
            str(tmp_path / "x"),
        )
        assert code == 2
        assert "tempos" in err


    def test_a_run_that_never_stops_is_an_experiment_failure(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, err = run(capsys, "sweep", TEN, "--tempos", "120,60", "--max-steps", "300", "--out", str(out_dir))
        assert (code, err) == (1, "sweep failed: some run never stopped\n")
        assert out == "tempo=120 stop_step=300 ratio=1.0000\ntempo=60 stop_step=300 ratio=1.0000\n"
        assert json.loads((out_dir / "sweep.json").read_text())["stop_steps"] == [300, 300]

    def test_unknown_syllable_is_usage_error(self, capsys, fixtures_dir, tmp_path):
        score = str(fixtures_dir / "musicxml" / "accidentals.musicxml")
        for command in ("simulate", "sweep"):
            tempos = ["--tempos", "60,120"] if command == "sweep" else []
            code, _, err = run(capsys, command, score, "--format", "musicxml", *tempos, "--out", str(tmp_path / command))
            assert code == 2
            assert err.startswith("error: unknown syllable")

    @pytest.mark.parametrize(
        "tempos, message",
        [("0,120", "non-positive default tempo"), ("nan", "non-finite default_tempo_bpm"), ("inf,120", "non-finite default_tempo_bpm"),
         (",", "empty tempo list")],
    )
    def test_bad_tempo_value_is_usage_error(self, capsys, fixtures_dir, tmp_path, tempos, message):
        out_dir = tmp_path / "x"
        code, _, err = run(capsys, "sweep", str(fixtures_dir / "ten_notes.json"), "--tempos", tempos, "--out", str(out_dir))
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", TEN, "--seed", "-1", "--energy", "noisy_diagonal"], "seed must be >= 0"),
        (["simulate", TEN, "--seed", "-1", "--energy", "from_query_generator"], "seed must be >= 0"),
        (["train-encoder", "--seed", "-1"], "seed must be >= 0"),
        (["gradcheck", "--seed", "-1"], "seed must be >= 0"),
        (["simulate", TEN, "--q-min", "nan"], "q_min must be finite and <= 1; got nan"),
        (["tokens", TEN, "--q-min", "nan"], "q_min must be finite and <= 1; got nan"),
        (["sweep", TEN, "--tempos", "120", "--q-min", "inf"], "q_min must be finite and <= 1; got inf"),
        (["simulate", TEN, "--q-min", "1.5"], "q_min must be finite and <= 1; got 1.5"),
        (["train-encoder", "--epochs", "0"], "epochs must be >= 1"),
        (["train-encoder", "--lr", "nan"], "non-finite learning_rate"),
    ],
)
def test_out_of_range_flag_is_usage_error(capsys, tmp_path, argv, message):
    out = tmp_path / "out"
    if argv[0] in ("simulate", "sweep", "train-encoder"):
        argv = [*argv, "--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def _params_file(tmp_path, w1) -> str:
    """An encoder parameter file of four hidden units with first layer ``w1``."""
    path = tmp_path / "params.txt"
    path.write_text(params_to_text(DurationEncoderParams(w1, np.zeros(4), np.zeros(4), 0.0)))
    return str(path)


def _score_file(tmp_path, tempo: str) -> str:
    """A native score of one one-beat note at ``tempo`` (JSON text)."""
    path = tmp_path / "score.json"
    path.write_text('{"tempo_bpm": %s, "notes": [{"syllable": "a", "phonemes": ["a"], "midi_pitch": 60, "duration_beats": 1}]}' % tempo)
    return str(path)


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp: ["tokens", TEN, "--source", "encoder", "--params", _params_file(tmp, np.zeros((4, 2)))],
         "{tmp}/params.txt: bad parameter file: expected 'w1 4 3' under 'hidden 4', got 'w1 4 2'"),
        (lambda tmp: ["tokens", TEN, "--source", "encoder", "--params", _params_file(tmp, np.full((4, 3), np.nan))],
         "{tmp}/params.txt: non-finite encoder parameter"),
        (lambda tmp: ["simulate", TEN, "--out", str(tmp / "out"), "--energy", "noisy_diagonal", "--noise-sigma", "1e308",
                      "--seed", "3"],
         "non-finite energy"),
        (lambda tmp: ["sweep", TEN, "--tempos", "1e-320", "--out", str(tmp / "out")],
         "frame budget of 1.0 beats at 1e-320 bpm is not finite"),
        (lambda tmp: ["tokens", _score_file(tmp, "1e-320")], "frame budget of 1.0 beats at 1e-320 bpm is not finite"),
    ],
    ids=["mis-shaped-params", "nan-params", "overflowing-noise", "sweep-overflowing-budget", "tokens-overflowing-budget"],
)
def test_library_rejection_is_one_line_usage_error(capsys, tmp_path, argv, message):
    """A value the library rejects (parameters that do not fit the
    encoder or are not finite, under the parameter file's path; noise
    that overflows the energies; a tempo whose frame budget overflows)
    is one error line and exit 2, not a traceback."""
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out, err) == (2, "", f"error: {message.format(tmp=tmp_path)}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_underflow_is_one_line_experiment_failure(capsys, tmp_path, command):
    out = tmp_path / "out"
    tempos = ["--tempos", "120"] if command == "sweep" else []
    argv = [command, TEN, *tempos, "--out", str(out), "--energy", "noisy_diagonal", "--noise-sigma", "800", "--seed", "3"]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err == "simulation failed: alignment normalizer underflowed; inconsistent filter/energy combination\n"
    assert not out.exists()


class TestDefaults:
    """A flag left out takes the library's own default."""

    @pytest.mark.parametrize("extra", [[], ["--tempos", "120"]], ids=["simulate", "sweep"])
    def test_simulation_flags(self, extra):
        command = "sweep" if extra else "simulate"
        args = build_parser().parse_args([command, TEN, *extra, "--out", "d"])
        assert _sim_config(args) == SimConfig()
        assert args.q_min == Q_MIN_DEFAULT

    def test_tokens_flags(self):
        assert build_parser().parse_args(["tokens", TEN]).q_min == Q_MIN_DEFAULT

    def test_train_encoder_flags(self):
        args = build_parser().parse_args(["train-encoder", "--out", "p"])
        cfg = TrainConfig()
        assert (args.lr, args.epochs, args.seed) == (cfg.learning_rate, cfg.epochs, cfg.seed)


class TestGradcheck:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for target, line in zip(("energies", "encoder", "lattice"), lines):
            assert line.startswith(f"{target}: pass max_rel_err=")

    def test_single_target(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--which", "encoder")
        assert code == 0
        assert out.splitlines() == [out.splitlines()[0]]
        assert out.startswith("encoder: pass")

    def test_corrupt_negative_control(self, capsys, monkeypatch):
        corrupt_every_backward(monkeypatch)
        code, out, _ = run(capsys, "gradcheck")
        assert code == 1
        assert "FAIL" in out
        assert all(": FAIL max_rel_err=" in line for line in out.splitlines())


class TestTrainEncoder:
    def test_writes_params_and_history(self, capsys, tmp_path):
        params_path = tmp_path / "params.txt"
        hist_path = tmp_path / "loss.csv"
        code, out, _ = run(
            capsys,
            "train-encoder",
            "--epochs",
            "30",
            "--out",
            str(params_path),
            "--loss-history",
            str(hist_path),
        )
        assert code == 0
        assert "final loss" in out
        params = params_from_text(params_path.read_text())
        assert params.hidden == 16
        lines = hist_path.read_text().splitlines()
        assert lines[0] == "epoch,loss"
        losses = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(losses) == 30
        # full-batch descent: the first epochs decrease monotonically
        assert all(b < a for a, b in zip(losses[:5], losses[1:6]))

    def test_divergence_is_an_experiment_failure(self, capsys, tmp_path, monkeypatch):
        def diverging(feats, targets, cfg):
            raise TrainingDiverged(3)

        monkeypatch.setattr(cli, "train_encoder", diverging)
        code, out, err = run(capsys, "train-encoder", "--out", str(tmp_path / "p.txt"))
        assert (code, out, err) == (1, "", "training diverged: non-finite loss at epoch 3\n")
        assert not (tmp_path / "p.txt").exists()

    def test_deterministic(self, capsys, tmp_path):
        blobs = []
        for name in ("p1.txt", "p2.txt"):
            path = tmp_path / name
            code, _, _ = run(capsys, "train-encoder", "--epochs", "10", "--out", str(path))
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
