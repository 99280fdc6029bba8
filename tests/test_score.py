import json
import math
import re

import numpy as np
import pytest

from duralign.score import (
    NoteEvent,
    Score,
    ScoreError,
    _split_frames,
    expand_to_phonemes,
    frames_for,
    parse_lexicon,
    parse_score_native,
    serialize_native,
    with_uniform_tempo,
)


def note(syllable="ni", phonemes=("n", "i"), pitch=62, beats=1.0, tempo=None):
    return NoteEvent(syllable=syllable, phonemes=tuple(phonemes), pitch=pitch, duration_beats=beats, tempo_bpm=tempo)


class TestParseNative:
    def test_single_note(self):
        doc = {
            "tempo_bpm": 120,
            "notes": [{"syllable": "ni", "phonemes": ["n", "i"], "midi_pitch": 62, "duration_beats": 1.0}],
        }
        score = parse_score_native(json.dumps(doc))
        assert len(score.notes) == 1
        n = score.notes[0]
        assert n.syllable == "ni"
        assert n.phonemes == ("n", "i")
        assert n.pitch == 62
        assert n.effective_tempo(score.default_tempo_bpm) == 120

    def test_zero_duration_rejected(self):
        doc = {"tempo_bpm": 120, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 0}]}
        with pytest.raises(ScoreError, match="non-positive duration at note 0"):
            parse_score_native(json.dumps(doc))

    def test_tempo_override(self):
        doc = {
            "tempo_bpm": 120,
            "notes": [
                {"syllable": "a", "midi_pitch": 60, "duration_beats": 1},
                {"syllable": "b", "midi_pitch": 62, "duration_beats": 1, "tempo_bpm": 60},
            ],
        }
        score = parse_score_native(json.dumps(doc))
        tempos = [n.effective_tempo(score.default_tempo_bpm) for n in score.notes]
        assert tempos == [120, 60]

    def test_rest_gets_sil(self):
        doc = {"tempo_bpm": 120, "notes": [{"syllable": "", "midi_pitch": None, "duration_beats": 1}]}
        score = parse_score_native(json.dumps(doc))
        assert score.notes[0].phonemes == ("sil",)

    @pytest.mark.parametrize(
        "doc",
        [
            "not json at all",
            json.dumps({"notes": []}),
            json.dumps({"tempo_bpm": 120}),
            json.dumps({"tempo_bpm": -1, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1}]}),
            json.dumps({"tempo_bpm": 120, "notes": [{"syllable": "a", "duration_beats": 1}]}),
            json.dumps({"tempo_bpm": 120, "notes": [{"syllable": "a", "midi_pitch": 200, "duration_beats": 1}]}),
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(ScoreError):
            parse_score_native(doc)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"tempo_bpm": NaN, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1}]}', "default_tempo_bpm"),
            ('{"tempo_bpm": Infinity, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1}]}', "default_tempo_bpm"),
            ('{"tempo_bpm": 120, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": Infinity}]}', "duration_beats"),
            ('{"tempo_bpm": 120, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1, "tempo_bpm": NaN}]}', "tempo_bpm"),
        ],
    )
    def test_non_finite_values_rejected(self, doc, field):
        where = "" if field == "default_tempo_bpm" else " at note 0"  # a per-note value names its note
        with pytest.raises(ScoreError, match=f"^non-finite {field}{where}$"):
            parse_score_native(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"tempo_bpm": True, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1}]}, "default_tempo_bpm is not a number"),
            (
                {"tempo_bpm": 120, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": True}]},
                "duration_beats is not a number at note 0",
            ),
            (
                {"tempo_bpm": 120, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1, "tempo_bpm": True}]},
                "tempo_bpm is not a number at note 0",
            ),
            ({"tempo_bpm": 120, "notes": [{"syllable": "a", "midi_pitch": True, "duration_beats": 1}]}, "invalid pitch True at note 0"),
        ],
    )
    def test_booleans_are_not_numbers(self, doc, message):
        with pytest.raises(ScoreError, match=f"^{re.escape(message)}$"):
            parse_score_native(json.dumps(doc))

    @pytest.mark.parametrize("field", ["duration_beats", "tempo_bpm"])
    def test_non_finite_note_value_names_its_note(self, field):
        notes = [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1} for _ in range(3)]
        notes[1][field] = math.nan
        with pytest.raises(ScoreError, match=f"^non-finite {field} at note 1$"):
            parse_score_native(json.dumps({"tempo_bpm": 120, "notes": notes}))

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([{"tempo_bpm": 120}], "top level must be an object"),
            ({"tempo_bpm": 120, "notes": []}, "score has no notes"),
            ({"tempo_bpm": 120, "notes": {"syllable": "a"}}, "'notes' must be a list"),
            ({"tempo_bpm": 120, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1}, "a"]}, "note 1 is not an object"),
        ],
    )
    def test_a_misshapen_document_is_named(self, doc, message):
        with pytest.raises(ScoreError, match=f"^{re.escape(message)}$"):
            parse_score_native(json.dumps(doc))

    def test_a_pitched_sil_note_keeps_its_phoneme(self):
        score = Score(default_tempo_bpm=120, notes=(note("", ("sil",), 60),))
        text = serialize_native(score)
        assert json.loads(text)["notes"][0]["phonemes"] == ["sil"]
        assert parse_score_native(text) == score

    def test_round_trip_identity(self):
        doc = {
            "tempo_bpm": 96.5,
            "title": "demo",
            "notes": [
                {"syllable": "ni", "phonemes": ["n", "i"], "midi_pitch": 62, "duration_beats": 1.5},
                {"syllable": "", "midi_pitch": None, "duration_beats": 0.5},
                {"syllable": "hao", "midi_pitch": 64, "duration_beats": 2, "tempo_bpm": 80},
            ],
        }
        score = parse_score_native(json.dumps(doc))
        text = serialize_native(score)
        assert parse_score_native(text) == score
        # canonical output is idempotent byte-for-byte
        assert serialize_native(parse_score_native(text)) == text


class TestFiniteValues:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_note_fields(self, value):
        with pytest.raises(ScoreError, match="non-finite duration_beats"):
            note(beats=value)
        with pytest.raises(ScoreError, match="non-finite tempo_bpm"):
            note(tempo=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_score_and_uniform_tempo(self, value):
        with pytest.raises(ScoreError, match="non-finite default_tempo_bpm"):
            Score(default_tempo_bpm=value, notes=(note(),))
        with pytest.raises(ScoreError, match="non-finite default_tempo_bpm"):
            with_uniform_tempo(Score(default_tempo_bpm=120, notes=(note(),)), value)


class TestFramesFor:
    def test_one_beat_at_60(self):
        assert frames_for(note(beats=1.0, tempo=60), 120) == 100

    def test_one_beat_at_180(self):
        assert frames_for(note(beats=1.0, tempo=180), 120) == 33

    def test_minimum_clamp(self):
        assert frames_for(note(beats=0.001, tempo=200), 120) == 1

    def test_decreasing_in_tempo_until_clamp(self):
        values = [frames_for(note(beats=1.0, tempo=t), 120) for t in (30, 60, 120, 240, 480)]
        assert values == sorted(values, reverse=True)
        clamped = False
        for a, b in zip(values, values[1:]):
            if a == 1:
                clamped = True
            if not clamped:
                assert b < a


    @pytest.mark.parametrize(
        "beats, tempo, default, message",
        [
            (1e308, None, 1e-10, "frame budget of 1e+308 beats at 1e-10 bpm is not finite"),
            (1.0, 1e-320, 120, "frame budget of 1.0 beats at 1e-320 bpm is not finite"),
            (1.0, None, 1e-320, "frame budget of 1.0 beats at 1e-320 bpm is not finite"),
        ],
    )
    def test_an_overflowing_budget_is_rejected_by_name(self, beats, tempo, default, message):
        with pytest.raises(ScoreError, match=f"^{re.escape(message)}$"):
            frames_for(note(beats=beats, tempo=tempo), default)

    def test_expansion_rejects_an_overflowing_budget(self):
        with pytest.raises(ScoreError, match=r"^frame budget of 1\.0 beats at 1e-320 bpm is not finite$"):
            expand_to_phonemes(Score(default_tempo_bpm=1e-320, notes=(note(),)))


class TestExpansion:
    def test_each_phoneme_carries_its_notes_tempo(self):
        score = Score(default_tempo_bpm=120, notes=(note(), note("a", ("a",), tempo=60)))
        seq = expand_to_phonemes(score)
        assert [ev.tempo_bpm for ev in seq.events] == [120.0, 120.0, 60.0]

    def test_equal_split(self):
        score = Score(default_tempo_bpm=60, notes=(note(beats=1.0),))
        seq = expand_to_phonemes(score)
        assert seq.target_frames == (50, 50)

    def test_a_hand_built_rest_holds_sil(self):
        rest = NoteEvent("", (), None, 1.0)
        assert rest.phonemes == ("sil",)
        score = Score(default_tempo_bpm=120, notes=(rest,))
        seq = expand_to_phonemes(score)
        assert (seq.phonemes, seq.target_frames, seq.events[0].duration_s) == (("sil",), (50,), 0.5)
        assert json.loads(serialize_native(score))["notes"] == [{"syllable": "", "midi_pitch": None, "duration_beats": 1}]
        assert parse_score_native(serialize_native(score)) == score

    def test_sil_note(self):
        score = Score(default_tempo_bpm=120, notes=(note("", ("sil",), None, 0.5),))
        seq = expand_to_phonemes(score)
        assert seq.target_frames == (25,)
        assert seq.phonemes == ("sil",)

    def test_lexicon_ratios(self):
        lex = parse_lexicon("zhong zh:0.3 ong:0.7\n")
        score = Score(default_tempo_bpm=60, notes=(NoteEvent("zhong", (), 60, 1.0),))
        seq = expand_to_phonemes(score, lex)
        assert seq.target_frames == (30, 70)
        assert seq.phonemes == ("zh", "ong")

    def test_unknown_syllable_without_phonemes(self):
        score = Score(default_tempo_bpm=60, notes=(NoteEvent("xyz", (), 60, 1.0),))
        with pytest.raises(ScoreError, match="unknown syllable 'xyz' at note 0"):
            expand_to_phonemes(score)

    def test_budget_smaller_than_phonemes_clamps(self):
        tiny = NoteEvent("abc", ("a", "b", "c"), 60, 0.001, tempo_bpm=200)
        score = Score(default_tempo_bpm=200, notes=(tiny,))
        seq = expand_to_phonemes(score)
        assert seq.clamped
        assert seq.target_frames == (1, 1, 1)

    def test_frame_budget_conserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            notes = []
            for i in range(int(rng.integers(1, 8))):
                k = int(rng.integers(1, 5))
                notes.append(
                    NoteEvent(
                        syllable=f"s{i}",
                        phonemes=tuple(f"p{j}" for j in range(k)),
                        pitch=60,
                        duration_beats=float(rng.uniform(0.25, 3.0)),
                        tempo_bpm=float(rng.uniform(40, 220)),
                    )
                )
            score = Score(default_tempo_bpm=120, notes=tuple(notes))
            seq = expand_to_phonemes(score)
            if seq.clamped:
                continue
            budgets = sum(frames_for(n, 120) for n in notes)
            assert sum(seq.target_frames) == budgets

    def test_explicit_phonemes_that_disagree_with_the_lexicon_split_equally(self):
        lex = parse_lexicon("ni n:0.2 i:0.8\n")
        score = Score(default_tempo_bpm=60, notes=(note(phonemes=("n", "i", "y")),))
        seq = expand_to_phonemes(score, lex)
        assert (seq.phonemes, seq.target_frames) == (("n", "i", "y"), (33, 33, 34))

    def test_rounding_that_starves_the_last_share_steals_from_the_largest(self):
        # shares 2, 2, 2 of a budget of 5 leave -1: the first two largest give one frame each
        assert _split_frames(5, [0.3, 0.3, 0.3, 0.1]) == ([1, 1, 2, 1], False)

    def test_every_phoneme_at_least_one_frame(self):
        skew = NoteEvent("s", ("a", "b"), 60, 0.02, tempo_bpm=60)  # 2-frame budget
        score = Score(default_tempo_bpm=60, notes=(skew,))
        seq = expand_to_phonemes(score)
        assert all(f >= 1 for f in seq.target_frames)
        assert sum(seq.target_frames) == 2


class TestLexicon:
    def test_parse(self):
        lex = parse_lexicon("# comment\nni n:0.5 i:0.5\n\nhao h:0.3 ao:0.7\n")
        assert lex["ni"] == (("n", 0.5), ("i", 0.5))
        assert lex["hao"] == (("h", 0.3), ("ao", 0.7))

    def test_ratio_sum_enforced(self):
        with pytest.raises(ScoreError, match="ratios sum"):
            parse_lexicon("bad a:0.5 b:0.6\n")

    def test_bad_ratio_format(self):
        with pytest.raises(ScoreError):
            parse_lexicon("bad a\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("ni n:0.5 i:0.5\nbad\n", "lexicon line 2: expected syllable and phonemes"),
            ("bad a:half\n", "lexicon line 1: bad ratio 'half'"),
            ("bad a:0 b:1\n", "lexicon line 1: non-positive ratio"),
        ],
    )
    def test_a_malformed_line_is_named(self, text, message):
        with pytest.raises(ScoreError, match=f"^{re.escape(message)}$"):
            parse_lexicon(text)
