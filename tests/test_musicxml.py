import json
import re

import pytest

from duralign.musicxml import parse_musicxml
from duralign.score import ScoreError, expand_to_phonemes, parse_lexicon, parse_score_native, serialize_native

GOOD = ("single_note", "rest", "accidentals", "tempo_change", "melody", "octaves")
BAD = {
    "bad_missing_divisions": "divisions",
    "bad_chord": "chord",
    "bad_no_tempo": "tempo",
    "bad_step": "step",
    "bad_tie": "tie",
}


@pytest.mark.parametrize("name", GOOD)
def test_fixture_byte_compare(fixtures_dir, name):
    xml = (fixtures_dir / "musicxml" / f"{name}.musicxml").read_text()
    expected = (fixtures_dir / "musicxml" / f"{name}.expected.json").read_text()
    assert serialize_native(parse_musicxml(xml)) == expected


@pytest.mark.parametrize("name", sorted(BAD))
def test_malformed_fixture_raises(fixtures_dir, name):
    xml = (fixtures_dir / "musicxml" / f"{name}.musicxml").read_text()
    with pytest.raises(ScoreError, match=BAD[name]):
        parse_musicxml(xml)


@pytest.mark.parametrize(
    "old, new, field",
    [
        # NaN != NaN, so the first note also takes it as a tempo change
        ('<sound tempo="60"/>', '<sound tempo="nan"/>', "tempo_bpm"),
        ('<sound tempo="60"/>', '<sound tempo="inf"/>', "default_tempo_bpm"),
        ("<duration>1</duration>", "<duration>inf</duration>", "duration_beats"),
    ],
)
def test_non_finite_values_rejected(fixtures_dir, old, new, field):
    xml = (fixtures_dir / "musicxml" / "single_note.musicxml").read_text()
    assert xml.count(old) == 1
    with pytest.raises(ScoreError, match=f"non-finite {field}"):
        parse_musicxml(xml.replace(old, new))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('<sound tempo="60"/>', '<sound tempo="fast"/>', "<sound tempo> is not a number: 'fast'"),
        ("<divisions>1</divisions>", "<divisions>one</divisions>", "<divisions> is not a number: 'one'"),
        ("<divisions>1</divisions>", "<divisions>1.5</divisions>", "<divisions> is not a number: '1.5'"),
        ("<octave>4</octave>", "<octave>four</octave>", "<octave> is not a number: 'four'"),
        ("<octave>4</octave>", "<octave>4</octave><alter>sharp</alter>", "<alter> is not a number: 'sharp'"),
        ("<octave>4</octave>", "<octave>4</octave><alter>inf</alter>", "<alter> is not a number: 'inf'"),
        ("<duration>1</duration>", "<duration></duration>", "<duration> is not a number: ''"),
    ],
)
def test_word_for_a_number_names_the_element(fixtures_dir, old, new, message):
    xml = (fixtures_dir / "musicxml" / "single_note.musicxml").read_text()
    assert xml.count(old) == 1
    with pytest.raises(ScoreError, match=f"^{re.escape(message)}$"):
        parse_musicxml(xml.replace(old, new))


@pytest.mark.parametrize(
    "old, new, field, value, message",
    [
        ("<step>C</step><octave>4</octave>", "<step>G</step><alter>1</alter><octave>9</octave>", "midi_pitch", 128,
         "invalid pitch 128 at note 0"),
        ("<duration>1</duration>", "<duration>0</duration>", "duration_beats", 0, "non-positive duration at note 0"),
        ("<duration>1</duration>", "<duration>-2</duration>", "duration_beats", -2, "non-positive duration at note 0"),
    ],
)
def test_both_readers_reject_a_note_with_the_same_text(fixtures_dir, old, new, field, value, message):
    """Each reader leaves the note's rules to ``NoteEvent`` and adds the note's index."""
    xml = (fixtures_dir / "musicxml" / "single_note.musicxml").read_text()
    assert xml.count(old) == 1
    native = {"tempo_bpm": 60, "notes": [{"syllable": "a", "midi_pitch": 60, "duration_beats": 1, field: value}]}
    with pytest.raises(ScoreError, match=f"^{message}$"):
        parse_musicxml(xml.replace(old, new))
    with pytest.raises(ScoreError, match=f"^{message}$"):
        parse_score_native(json.dumps(native))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("<step>C</step>", "", "pitch element missing step or octave"),
        ('<sound tempo="60"/>', "<words>dolce</words>", "no tempo directive and no caller-supplied default"),
        ("</note>", "", "malformed XML: mismatched tag: line 15, column 6"),
        ("<divisions>1</divisions>", "<divisions>0</divisions>", "non-positive divisions"),
        ("<duration>1</duration>", "", "note 0 has no duration"),
        ("<pitch><step>C</step><octave>4</octave></pitch>", "", "note 0 has neither pitch nor rest"),
    ],
    ids=["pitch-without-step", "direction-without-tempo", "malformed-xml", "zero-divisions", "no-duration", "no-pitch-or-rest"],
)
def test_a_malformed_note_or_document_is_named(fixtures_dir, old, new, message):
    xml = (fixtures_dir / "musicxml" / "single_note.musicxml").read_text()
    assert xml.count(old) == 1
    with pytest.raises(ScoreError, match=f"^{re.escape(message)}$"):
        parse_musicxml(xml.replace(old, new))


def test_a_score_without_notes_is_rejected():
    xml = """<score-partwise><part id="P1"><measure number="1">
      <attributes><divisions>1</divisions></attributes>
      <direction><sound tempo="120"/></direction>
    </measure></part></score-partwise>"""
    with pytest.raises(ScoreError, match="^no notes found$"):
        parse_musicxml(xml)


def test_rest_becomes_sil(fixtures_dir):
    score = parse_musicxml((fixtures_dir / "musicxml" / "rest.musicxml").read_text())
    rests = [n for n in score.notes if n.pitch is None]
    assert rests and all(n.phonemes == ("sil",) for n in rests)


def test_tempo_change_overrides(fixtures_dir):
    score = parse_musicxml((fixtures_dir / "musicxml" / "tempo_change.musicxml").read_text())
    tempos = [n.effective_tempo(score.default_tempo_bpm) for n in score.notes]
    assert len(set(tempos)) > 1
    assert tempos[0] == score.default_tempo_bpm


def test_default_tempo_fallback():
    xml = """<score-partwise><part id="P1"><measure number="1">
      <attributes><divisions>2</divisions></attributes>
      <note><pitch><step>C</step><octave>4</octave></pitch>
        <duration>2</duration><lyric><text>la</text></lyric></note>
    </measure></part></score-partwise>"""
    with pytest.raises(ScoreError, match="tempo"):
        parse_musicxml(xml)
    score = parse_musicxml(xml, default_tempo_bpm=90.0)
    assert score.default_tempo_bpm == 90.0
    assert score.notes[0].pitch == 60


def test_not_score_partwise():
    with pytest.raises(ScoreError, match="score-partwise"):
        parse_musicxml("<score-timewise></score-timewise>")


def test_two_parts_rejected():
    xml = """<score-partwise><part id="P1"/><part id="P2"/></score-partwise>"""
    with pytest.raises(ScoreError, match="one part"):
        parse_musicxml(xml)


def test_grace_and_tuplet_rejected():
    head = """<score-partwise><part id="P1"><measure number="1">
      <attributes><divisions>1</divisions></attributes>
      <direction><sound tempo="120"/></direction>"""
    tail = "</measure></part></score-partwise>"
    grace = head + """<note><grace/><pitch><step>C</step><octave>4</octave></pitch>
        <duration>1</duration><lyric><text>a</text></lyric></note>""" + tail
    tuplet = head + """<note><pitch><step>C</step><octave>4</octave></pitch>
        <duration>1</duration><time-modification><actual-notes>3</actual-notes>
        <normal-notes>2</normal-notes></time-modification>
        <lyric><text>a</text></lyric></note>""" + tail
    with pytest.raises(ScoreError, match="grace"):
        parse_musicxml(grace)
    with pytest.raises(ScoreError, match="tuplet"):
        parse_musicxml(tuplet)


def test_missing_lyric_rejected():
    xml = """<score-partwise><part id="P1"><measure number="1">
      <attributes><divisions>1</divisions></attributes>
      <direction><sound tempo="120"/></direction>
      <note><pitch><step>C</step><octave>4</octave></pitch><duration>1</duration></note>
    </measure></part></score-partwise>"""
    with pytest.raises(ScoreError, match="lyric"):
        parse_musicxml(xml)


def test_equivalent_native_score_expands_identically(fixtures_dir, lexicon_text):
    """A melody entered via MusicXML or via the native format must yield
    the same phoneme sequence."""
    xml = (fixtures_dir / "musicxml" / "melody.musicxml").read_text()
    native_text = (fixtures_dir / "musicxml" / "melody.expected.json").read_text()
    lexicon = parse_lexicon(lexicon_text)
    seq_xml = expand_to_phonemes(parse_musicxml(xml), lexicon)
    seq_native = expand_to_phonemes(parse_score_native(native_text), lexicon)
    assert seq_xml == seq_native
