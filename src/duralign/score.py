"""Musical score model: notes, phoneme expansion, and the native JSON format.

A score is an ordered list of notes; each note carries a syllable, an
optional explicit phoneme list, a MIDI pitch (or None for a rest), a
duration in beats, and an optional per-note tempo override.  Expansion
converts the score to a flat phoneme sequence with per-phoneme frame
targets on a frame grid fixed at 10 ms (``FRAME_SHIFT_S``).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, replace

__all__ = [
    "FRAME_SHIFT_S",
    "REST",
    "SIL_PHONEME",
    "NoteEvent",
    "Score",
    "PhonemeEvent",
    "PhonemeSequence",
    "ScoreError",
    "parse_score_native",
    "serialize_native",
    "parse_lexicon",
    "frames_for",
    "expand_to_phonemes",
    "with_uniform_tempo",
]

FRAME_SHIFT_S = 0.010  # seconds per decoder frame
REST = None  # pitch value for rests
SIL_PHONEME = "sil"


class ScoreError(ValueError):
    """Malformed score document or score that violates an invariant."""


def _positive_number(name: str, noun: str, value) -> float:
    """The one rule of a duration or tempo: a real number that is not a
    bool, finite and above zero, returned as a float.  The range test
    also rejects an int beyond the largest double, which ``float`` would
    meet with an OverflowError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScoreError(f"{name} is not a number")
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ScoreError(f"non-finite {name}")
    if value <= 0:
        raise ScoreError(f"non-positive {noun}")
    return float(value)


@dataclass(frozen=True)
class NoteEvent:
    """One note: a syllable sung at a pitch for a duration in beats.

    ``phonemes`` may be empty, in which case the syllable must be
    resolvable through the lexicon at expansion time.  ``pitch`` is a
    MIDI note number (an int in 0-127), or None for a rest.  The readers
    leave every rule of a note to this type and add the note's index to
    its message.
    """

    syllable: str
    phonemes: tuple[str, ...]
    pitch: int | None
    duration_beats: float
    tempo_bpm: float | None = None  # per-note override; None = score default

    def __post_init__(self):
        if self.pitch is not None and (type(self.pitch) is not int or not 0 <= self.pitch <= 127):
            raise ScoreError(f"invalid pitch {self.pitch!r}")
        object.__setattr__(self, "duration_beats", _positive_number("duration_beats", "duration", self.duration_beats))
        if self.tempo_bpm is not None:
            object.__setattr__(self, "tempo_bpm", _positive_number("tempo_bpm", "tempo", self.tempo_bpm))

    def effective_tempo(self, default_bpm: float) -> float:
        return self.tempo_bpm if self.tempo_bpm is not None else default_bpm


@dataclass(frozen=True)
class Score:
    default_tempo_bpm: float
    notes: tuple[NoteEvent, ...]
    title: str | None = None

    def __post_init__(self):
        tempo = _positive_number("default_tempo_bpm", "default tempo", self.default_tempo_bpm)
        object.__setattr__(self, "default_tempo_bpm", tempo)
        if not self.notes:
            raise ScoreError("score has no notes")


@dataclass(frozen=True)
class PhonemeEvent:
    phoneme: str
    pitch: int | None
    duration_s: float
    target_frames: int
    note_index: int
    tempo_bpm: float | None = None  # the note's effective tempo, as expand_to_phonemes sets it


@dataclass(frozen=True)
class PhonemeSequence:
    events: tuple[PhonemeEvent, ...]
    clamped: bool = False  # True if some note's frame budget was < its phoneme count

    def __len__(self) -> int:
        return len(self.events)

    @property
    def target_frames(self) -> tuple[int, ...]:
        return tuple(ev.target_frames for ev in self.events)

    @property
    def phonemes(self) -> tuple[str, ...]:
        return tuple(ev.phoneme for ev in self.events)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def frames_for(note: NoteEvent, default_bpm: float) -> int:
    """Frame budget of a note: round(beats * 60/bpm / FRAME_SHIFT_S),
    minimum 1.  A budget beyond the double range is rejected by name."""
    bpm = note.effective_tempo(default_bpm)
    frames = note.duration_beats * 60.0 / bpm / FRAME_SHIFT_S
    if not math.isfinite(frames):
        raise ScoreError(f"frame budget of {note.duration_beats} beats at {bpm} bpm is not finite")
    return max(1, _round_half_away(frames))


# ---------------------------------------------------------------------------
# Native JSON format


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScoreError(f"missing required field '{key}' in {where}")
    return obj[key]


def parse_score_native(text: str) -> Score:
    """Parse the native JSON score format.

    Top-level object: ``{"tempo_bpm": number, "title": optional string,
    "notes": [{"syllable", "phonemes"?, "midi_pitch", "duration_beats",
    "tempo_bpm"?}]}``.  ``midi_pitch`` null means a rest.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScoreError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScoreError("top level must be an object")
    tempo = _require(doc, "tempo_bpm", "score")
    raw_notes = _require(doc, "notes", "score")
    if not isinstance(raw_notes, list) or not raw_notes:
        raise ScoreError("'notes' must be a non-empty list")
    notes = []
    for i, raw in enumerate(raw_notes):
        if not isinstance(raw, dict):
            raise ScoreError(f"note {i} is not an object")
        syllable = _require(raw, "syllable", f"note {i}")
        pitch = _require(raw, "midi_pitch", f"note {i}")
        beats = _require(raw, "duration_beats", f"note {i}")
        phonemes = tuple(raw.get("phonemes") or ())
        if pitch is None and not phonemes:
            phonemes = (SIL_PHONEME,)
        try:
            notes.append(
                NoteEvent(str(syllable), phonemes, pitch, duration_beats=beats, tempo_bpm=raw.get("tempo_bpm"))
            )
        except ScoreError as exc:
            raise ScoreError(f"{exc} at note {i}") from None
    return Score(default_tempo_bpm=tempo, notes=tuple(notes), title=doc.get("title"))


def _num(x: float):
    """Render a float as an int when exact, for stable canonical output."""
    if float(x).is_integer():
        return int(x)
    return x


def serialize_native(score: Score) -> str:
    """Canonical native serialization; idempotent byte-for-byte."""
    doc: dict = {"tempo_bpm": _num(score.default_tempo_bpm)}
    if score.title is not None:
        doc["title"] = score.title
    doc["notes"] = []
    for note in score.notes:
        raw: dict = {"syllable": note.syllable}
        if note.phonemes and note.phonemes != (SIL_PHONEME,):
            raw["phonemes"] = list(note.phonemes)
        elif note.phonemes == (SIL_PHONEME,) and note.pitch is not None:
            raw["phonemes"] = list(note.phonemes)
        raw["midi_pitch"] = note.pitch
        raw["duration_beats"] = _num(note.duration_beats)
        if note.tempo_bpm is not None:
            raw["tempo_bpm"] = _num(note.tempo_bpm)
        doc["notes"].append(raw)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Lexicon


def parse_lexicon(text: str) -> dict[str, tuple[tuple[str, float], ...]]:
    """Parse a lexicon: one ``syllable phoneme:ratio ...`` entry per line.

    Ratios of each entry must sum to 1 within 1e-6.  Blank lines and
    ``#`` comments are ignored.
    """
    table: dict[str, tuple[tuple[str, float], ...]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ScoreError(f"lexicon line {lineno}: expected syllable and phonemes")
        syllable, entries = parts[0], []
        for part in parts[1:]:
            if ":" not in part:
                raise ScoreError(f"lexicon line {lineno}: expected phoneme:ratio, got '{part}'")
            ph, ratio_s = part.rsplit(":", 1)
            try:
                ratio = float(ratio_s)
            except ValueError:
                raise ScoreError(f"lexicon line {lineno}: bad ratio '{ratio_s}'") from None
            if ratio <= 0:
                raise ScoreError(f"lexicon line {lineno}: non-positive ratio")
            entries.append((ph, ratio))
        total = sum(r for _, r in entries)
        if abs(total - 1.0) > 1e-6:
            raise ScoreError(f"lexicon line {lineno}: ratios sum to {total}, expected 1")
        table[syllable] = tuple(entries)
    return table


# ---------------------------------------------------------------------------
# Expansion


def _split_frames(budget: int, ratios: list[float]) -> tuple[list[int], bool]:
    """Split a frame budget by ratios; exact total, every share >= 1.

    Returns (shares, clamped).  If the budget is smaller than the number
    of shares, every share is clamped to 1 and the total exceeds the
    budget (flagged).
    """
    k = len(ratios)
    if budget < k:
        return [1] * k, True
    shares = [_round_half_away(budget * r) for r in ratios[:-1]]
    shares = [max(1, s) for s in shares]
    last = budget - sum(shares)
    # Steal from the largest earlier share if rounding starved the last one.  While
    # last < 1 the k - 1 earlier shares sum to more than budget - 1 >= k - 1, so the
    # largest is at least 2.
    while last < 1:
        j = max(range(k - 1), key=lambda i: shares[i])
        shares[j] -= 1
        last += 1
    return shares + [last], False


def _phonemes_and_ratios(
    note: NoteEvent,
    lexicon: dict[str, tuple[tuple[str, float], ...]] | None,
    note_index: int,
) -> tuple[list[str], list[float]]:
    if note.pitch is REST and note.phonemes in ((), (SIL_PHONEME,)):
        return [SIL_PHONEME], [1.0]
    if lexicon and note.syllable in lexicon:
        entry = lexicon[note.syllable]
        phonemes = [ph for ph, _ in entry]
        if note.phonemes and list(note.phonemes) != phonemes:
            # Explicit phonemes win; lexicon ratios only apply when they agree.
            return list(note.phonemes), [1.0 / len(note.phonemes)] * len(note.phonemes)
        return phonemes, [r for _, r in entry]
    if note.phonemes:
        n = len(note.phonemes)
        return list(note.phonemes), [1.0 / n] * n
    raise ScoreError(
        f"unknown syllable '{note.syllable}' at note {note_index} with no explicit phonemes"
    )


def expand_to_phonemes(
    score: Score,
    lexicon: dict[str, tuple[tuple[str, float], ...]] | None = None,
) -> PhonemeSequence:
    """Expand a score into per-phoneme frame targets.

    Each note's frame budget is split across its phonemes by lexicon
    ratios (equal split by default); shares are rounded with the residual
    assigned to the last phoneme so the per-note total is exact, and
    every phoneme gets at least one frame.
    """
    events: list[PhonemeEvent] = []
    clamped = False
    for i, note in enumerate(score.notes):
        phonemes, ratios = _phonemes_and_ratios(note, lexicon, i)
        budget = frames_for(note, score.default_tempo_bpm)
        shares, was_clamped = _split_frames(budget, ratios)
        clamped = clamped or was_clamped
        bpm = note.effective_tempo(score.default_tempo_bpm)
        note_seconds = note.duration_beats * 60.0 / bpm
        for ph, ratio, share in zip(phonemes, ratios, shares):
            events.append(
                PhonemeEvent(
                    phoneme=ph,
                    pitch=note.pitch,
                    duration_s=ratio * note_seconds,
                    target_frames=share,
                    note_index=i,
                    tempo_bpm=bpm,
                )
            )
    return PhonemeSequence(events=tuple(events), clamped=clamped)


def with_uniform_tempo(score: Score, tempo_bpm: float) -> Score:
    """Copy of the score with every note forced to one tempo."""
    notes = tuple(replace(n, tempo_bpm=None) for n in score.notes)
    return Score(default_tempo_bpm=tempo_bpm, notes=notes, title=score.title)
