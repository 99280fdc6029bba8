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
