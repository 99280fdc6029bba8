"""Minimal MusicXML (score-partwise) reader.

Supports a deliberately small subset: a single part, plain notes and
rests with divisions-based durations, lyric text per note, and sound
tempo directives.  Chords, ties, tuplets, grace notes, and multiple
parts are parse errors, not silent skips.
"""

from __future__ import annotations

from xml.etree import ElementTree as ET

from .score import REST, SIL_PHONEME, NoteEvent, Score, ScoreError

__all__ = ["parse_musicxml"]

_STEP_SEMITONES = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


def _number(name: str, text: str | None, kind=float):
    """The number in an element's text (or attribute), read by ``kind``;
    a ScoreError naming the element and its text if it is not one."""
    raw = (text or "").strip()
    try:
        return kind(raw)
    except (ValueError, OverflowError):
        raise ScoreError(f"<{name}> is not a number: '{raw}'") from None


def _pitch_to_midi(pitch_el: ET.Element) -> int:
    step_el = pitch_el.find("step")
    octave_el = pitch_el.find("octave")
    if step_el is None or octave_el is None:
        raise ScoreError("pitch element missing step or octave")
    step = (step_el.text or "").strip()
    if step not in _STEP_SEMITONES:
        raise ScoreError(f"unsupported pitch step '{step}'")
    octave = _number("octave", octave_el.text, int)
    alter_el = pitch_el.find("alter")
    alter = _number("alter", alter_el.text or "0", lambda s: int(float(s))) if alter_el is not None else 0
    midi = 12 * (octave + 1) + _STEP_SEMITONES[step] + alter
    if not 0 <= midi <= 127:
        raise ScoreError(f"pitch out of MIDI range: {midi}")
    return midi


def _find_tempo(el: ET.Element) -> float | None:
    for sound in el.iter("sound"):
        tempo = sound.get("tempo")
        if tempo is not None:
            value = _number("sound tempo", tempo)
            if value <= 0:
                raise ScoreError("non-positive tempo directive")
            return value
    return None


def parse_musicxml(text: str, default_tempo_bpm: float | None = None) -> Score:
    """Parse score-partwise MusicXML into a Score.

    duration_beats = note duration / divisions; pitch converts
    step/octave/alter to MIDI; lyric text becomes the syllable (phoneme
    resolution happens later via the lexicon); rests become rest notes
    with the silence phoneme.  A sound tempo directive is required
    unless ``default_tempo_bpm`` is given.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ScoreError(f"malformed XML: {exc}") from exc
    if root.tag != "score-partwise":
        raise ScoreError(f"expected score-partwise root, got '{root.tag}'")

    parts = root.findall("part")
    if len(parts) != 1:
        raise ScoreError(f"expected exactly one part, found {len(parts)}")
    part = parts[0]

    title = None
    work = root.find("work/work-title")
    if work is not None and work.text:
        title = work.text.strip()

    divisions: int | None = None
    score_tempo: float | None = None
    current_tempo: float | None = None
    notes: list[NoteEvent] = []

    for measure in part.findall("measure"):
        for el in measure:
            if el.tag == "attributes":
                div_el = el.find("divisions")
                if div_el is not None:
                    divisions = _number("divisions", div_el.text, int)
                    if divisions <= 0:
                        raise ScoreError("non-positive divisions")
            elif el.tag in ("direction", "sound"):
                tempo = _find_tempo(el)
                if tempo is not None:
                    if score_tempo is None:
                        score_tempo = tempo
                    current_tempo = tempo
            elif el.tag == "note":
                notes.append(_parse_note(el, divisions, score_tempo, current_tempo, len(notes)))

    if not notes:
        raise ScoreError("no notes found")
    if score_tempo is None:
        if default_tempo_bpm is None:
            raise ScoreError("no tempo directive and no caller-supplied default")
        score_tempo = default_tempo_bpm
    return Score(default_tempo_bpm=score_tempo, notes=tuple(notes), title=title)


def _parse_note(
    el: ET.Element,
    divisions: int | None,
    score_tempo: float | None,
    current_tempo: float | None,
    index: int,
) -> NoteEvent:
    if el.find("chord") is not None:
        raise ScoreError(f"chords are not supported (note {index})")
    if el.find("grace") is not None:
        raise ScoreError(f"grace notes are not supported (note {index})")
    if el.find("tie") is not None or el.find("notations/tied") is not None:
        raise ScoreError(f"ties are not supported (note {index})")
    if el.find("time-modification") is not None:
        raise ScoreError(f"tuplets are not supported (note {index})")
    if divisions is None:
        raise ScoreError("missing divisions before first note")

    dur_el = el.find("duration")
    if dur_el is None:
        raise ScoreError(f"note {index} has no duration")
    duration = _number("duration", dur_el.text)
    if duration <= 0:
        raise ScoreError(f"non-positive duration at note {index}")
    beats = duration / divisions

    # Per-note tempo override when a later directive changed the tempo.
    override = None
    if current_tempo is not None and score_tempo is not None and current_tempo != score_tempo:
        override = current_tempo

    if el.find("rest") is not None:
        return NoteEvent(
            syllable="",
            phonemes=(SIL_PHONEME,),
            pitch=REST,
            duration_beats=beats,
            tempo_bpm=override,
        )

    pitch_el = el.find("pitch")
    if pitch_el is None:
        raise ScoreError(f"note {index} has neither pitch nor rest")
    midi = _pitch_to_midi(pitch_el)

    lyric_el = el.find("lyric/text")
    if lyric_el is None or not (lyric_el.text or "").strip():
        raise ScoreError(f"pitched note {index} has no lyric text")
    syllable = lyric_el.text.strip()

    return NoteEvent(
        syllable=syllable,
        phonemes=(),
        pitch=midi,
        duration_beats=beats,
        tempo_bpm=override,
    )
