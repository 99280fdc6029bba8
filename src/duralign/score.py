"""Musical score model: notes, phoneme expansion, and the native JSON format.

A score is an ordered list of notes; each note carries a syllable, an
optional explicit phoneme list, a MIDI pitch (or None for a rest), a
duration in beats, and an optional per-note tempo override; the types
own every rule of them, and the readers only convert text.  Expansion
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

    ``phonemes`` (non-empty strings) may be empty, in which case the
    syllable must be resolvable through the lexicon at expansion time.
    ``pitch`` is a MIDI note number (an int in 0-127), or None for a rest,
    which holds the silence phoneme if given no phonemes.  The readers
    build notes through ``_note``, which adds the note's index.
    """

    syllable: str
    phonemes: tuple[str, ...]
    pitch: int | None
    duration_beats: float
    tempo_bpm: float | None = None  # per-note override; None = score default

    def __post_init__(self):
        if not isinstance(self.syllable, str):
            raise ScoreError("syllable is not a string")
        if not isinstance(self.phonemes, tuple) or not all(isinstance(ph, str) and ph for ph in self.phonemes):
            raise ScoreError("phonemes is not a tuple of non-empty strings")
        if self.pitch is not None and (type(self.pitch) is not int or not 0 <= self.pitch <= 127):
            raise ScoreError(f"invalid pitch {self.pitch!r}")
        if self.pitch is REST and not self.phonemes:
            object.__setattr__(self, "phonemes", (SIL_PHONEME,))
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
        if not isinstance(self.title, (str, type(None))):
            raise ScoreError("title is not a string")


def _note(index: int, *fields) -> NoteEvent:
    """A reader's ``NoteEvent(*fields)``; a rejection names the note's index."""
    try:
        return NoteEvent(*fields)
    except ScoreError as exc:
        raise ScoreError(f"{exc} at note {index}") from None


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
    minimum 1.  ``default_bpm`` is checked by the rule ``Score`` applies
    to its default tempo, and a budget beyond the double range is
    rejected by name."""
    bpm = note.effective_tempo(_positive_number("default_bpm", "default tempo", default_bpm))
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
    "tempo_bpm"?}]}``.  ``midi_pitch`` null means a rest.  The reader
    checks the document's shape and passes each value on unconverted.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep for the decoder
        raise ScoreError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScoreError("top level must be an object")
    tempo = _require(doc, "tempo_bpm", "score")
    raw_notes = _require(doc, "notes", "score")
    if not isinstance(raw_notes, list):
        raise ScoreError("'notes' must be a list")
    notes = []
    for i, raw in enumerate(raw_notes):
        if not isinstance(raw, dict):
            raise ScoreError(f"note {i} is not an object")
        syllable = _require(raw, "syllable", f"note {i}")
        pitch = _require(raw, "midi_pitch", f"note {i}")
        beats = _require(raw, "duration_beats", f"note {i}")
        phonemes = raw.get("phonemes", [])
        if not isinstance(phonemes, list):
            raise ScoreError(f"'phonemes' must be a list at note {i}")
        notes.append(_note(i, syllable, tuple(phonemes), pitch, beats, raw.get("tempo_bpm")))
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
        if note.phonemes != ((SIL_PHONEME,) if note.pitch is REST else ()):  # what the reader would fill in
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

    Each entry must meet ``_lexicon_entry``'s rule, which
    ``expand_to_phonemes`` also applies to a lexicon built by hand.
    Blank lines and ``#`` comments are ignored.
    """
    table: dict[str, tuple[tuple[str, float], ...]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ScoreError(f"lexicon line {lineno}: expected syllable and phonemes")
        syllable, pairs = parts[0], []
        for part in parts[1:]:
            if ":" not in part:
                raise ScoreError(f"lexicon line {lineno}: expected phoneme:ratio, got '{part}'")
            ph, ratio_s = part.rsplit(":", 1)
            try:
                pairs.append((ph, float(ratio_s)))
            except ValueError:
                raise ScoreError(f"lexicon line {lineno}: bad ratio '{ratio_s}'") from None
        table[syllable] = _lexicon_entry(pairs, f"lexicon line {lineno}")
    return table


def _lexicon_entry(pairs, where: str) -> tuple[tuple[str, float], ...]:
    """The one rule of a lexicon entry, read or built by hand: one or more
    (phoneme, ratio) pairs, each phoneme a non-empty string and each ratio
    a positive number (``_positive_number``), the ratios summing to 1
    within 1e-6.  Returns the pairs as a tuple with float ratios, or raises
    a ScoreError prefixed with ``where``."""
    try:
        try:
            entry = [(ph, ratio) for ph, ratio in pairs]
        except (TypeError, ValueError):  # not iterable, or an item that is not a pair
            raise ScoreError("not a sequence of (phoneme, ratio) pairs") from None
        if not entry:
            raise ScoreError("no phonemes")
        for ph, _ in entry:
            if not isinstance(ph, str) or not ph:
                raise ScoreError("phoneme is not a non-empty string")
        entry = [(ph, _positive_number("ratio", "ratio", ratio)) for ph, ratio in entry]
        total = sum(r for _, r in entry)
        if abs(total - 1.0) > 1e-6:
            raise ScoreError(f"ratios sum to {total}, expected 1")
    except ScoreError as exc:
        raise ScoreError(f"{where}: {exc}") from None
    return tuple(entry)


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
    entry = (lexicon or {}).get(note.syllable)
    if entry is not None:
        entry = _lexicon_entry(entry, f"lexicon entry '{note.syllable}'")
    if entry is not None and note.phonemes in ((), tuple(ph for ph, _ in entry)):
        return [ph for ph, _ in entry], [r for _, r in entry]
    if note.phonemes:  # explicit phonemes win; lexicon ratios only apply when they agree
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
    every phoneme gets at least one frame.  A lexicon entry the expansion
    looks up must meet ``parse_lexicon``'s rule; a ScoreError names the
    syllable of one that does not.
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
