"""Seeded inputs for the benchmark workloads.

Nothing here imports duralign: the program only ever sees what these
functions produce.  Every generator is a pure function of its variant
number, and the total amount of work (phoneme counts, frame totals) is
the same for every variant, so run-to-run spread comes from the machine
and not from the inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Distinct input sets per seeded workload; --seed n selects variant n % VARIANTS.
# References for every variant are recorded in perfbench/refs/.
VARIANTS = 16


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# adversarial_compare: the frozen 20-instance family


ADVERSARIAL_FIXTURE = Path("tests") / "fixtures" / "adversarial_family.json"


def fixture_sha256(root: Path) -> str:
    return hashlib.sha256((root / ADVERSARIAL_FIXTURE).read_bytes()).hexdigest()


def load_adversarial(root: Path, expected_sha256: str | None) -> list[dict]:
    """The frozen adversarial family, refused if the file has changed
    since the references were recorded."""
    digest = fixture_sha256(root)
    if expected_sha256 is not None and digest != expected_sha256:
        raise ValueError(f"{ADVERSARIAL_FIXTURE} changed (sha256 {digest}); references no longer apply")
    return json.loads((root / ADVERSARIAL_FIXTURE).read_text())


def instance_order(seed: int, n_instances: int) -> list[int]:
    """Seeded order in which the frozen instances are run."""
    return [int(k) for k in np.random.default_rng([seed, 0xADD]).permutation(n_instances)]


# ---------------------------------------------------------------------------
# cli_long_score: one long song as native JSON, MusicXML and a lexicon

TEMPO_BPM = 120
# The CLI's own --seed (query-generator weights, energy noise) is the same
# for every variant, so variants differ only in the score.  That seed sets
# how diffuse the query-driven alignment is, and with it the size of the
# exported CSV and the peak memory of the run.
CLI_SEED = 0
DIVISIONS = 4  # MusicXML divisions per beat
# 16 notes each of 1..4 divisions: 40 beats, 2016 frames at 120 bpm
# (13 + 25 + 38 + 50 frames per group of four), 1008 frames at 240 bpm.
# The song is kept to this length so that one CLI command takes well under
# a second and a run repeats each command tens of times.
NOTE_DIVISIONS = (1, 2, 3, 4)
NOTES_PER_LENGTH = 16
# Every syllable expands to two phonemes, so N = 2 * 64 = 128.
LEXICON = {
    "la": (("l", 0.25), ("a", 0.75)),
    "na": (("n", 0.25), ("a", 0.75)),
    "mi": (("m", 0.5), ("i", 0.5)),
    "so": (("s", 0.375), ("o", 0.625)),
    "do": (("d", 0.25), ("o", 0.75)),
    "re": (("r", 0.5), ("e", 0.5)),
    "ti": (("t", 0.125), ("i", 0.875)),
    "fa": (("f", 0.375), ("a", 0.625)),
}
_PITCH_NAMES = (
    ("C", 0), ("C", 1), ("D", 0), ("D", 1), ("E", 0), ("F", 0),
    ("F", 1), ("G", 0), ("G", 1), ("A", 0), ("A", 1), ("B", 0),
)


@dataclass(frozen=True)
class LongScore:
    native: str
    musicxml: str
    lexicon: str
    frames: int  # total target frames at TEMPO_BPM


def long_score(variant: int) -> LongScore:
    """A 64-note, 128-phoneme song; the variant permutes note lengths
    and draws syllables and pitches."""
    rng = np.random.default_rng([variant, 0x5C0])
    divs = rng.permutation(np.repeat(NOTE_DIVISIONS, NOTES_PER_LENGTH))
    syllables = rng.choice(sorted(LEXICON), size=divs.size)
    pitches = rng.integers(55, 80, size=divs.size)
    notes = [
        (str(s), int(p), int(k)) for s, p, k in zip(syllables, pitches, divs)
    ]
    title = f"benchmark long score {variant}"

    native = {
        "tempo_bpm": TEMPO_BPM,
        "title": title,
        "notes": [
            {
                "syllable": s,
                "phonemes": [ph for ph, _ in LEXICON[s]],
                "midi_pitch": p,
                "duration_beats": k / DIVISIONS,
            }
            for s, p, k in notes
        ],
    }

    xml = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<score-partwise version="3.1">',
        f"  <work><work-title>{title}</work-title></work>",
        '  <part-list><score-part id="P1"><part-name>Voice</part-name></score-part></part-list>',
        '  <part id="P1">',
    ]
    for m in range(0, len(notes), 16):
        xml.append(f'    <measure number="{m // 16 + 1}">')
        if m == 0:
            xml.append(f"      <attributes><divisions>{DIVISIONS}</divisions></attributes>")
            xml.append(f'      <direction><sound tempo="{TEMPO_BPM}"/></direction>')
        for s, p, k in notes[m : m + 16]:
            step, alter = _PITCH_NAMES[p % 12]
            alter_el = f"<alter>{alter}</alter>" if alter else ""
            xml.append(
                f"      <note><pitch><step>{step}</step>{alter_el}<octave>{p // 12 - 1}</octave></pitch>"
                f"<duration>{k}</duration><lyric><text>{s}</text></lyric></note>"
            )
        xml.append("    </measure>")
    xml += ["  </part>", "</score-partwise>", ""]

    lexicon = "".join(
        f"{s} " + " ".join(f"{ph}:{r}" for ph, r in entry) + "\n"
        for s, entry in sorted(LEXICON.items())
    )
    frames_per_length = {1: 13, 2: 25, 3: 38, 4: 50}  # 120 bpm, 10 ms frames
    return LongScore(
        native=json.dumps(native, indent=1) + "\n",
        musicxml="\n".join(xml),
        lexicon=lexicon,
        frames=sum(frames_per_length[k] for _, _, k in notes),
    )


# ---------------------------------------------------------------------------
# train_grad: lattice cases, gradient-check seeds, encoder training data

LATTICE_SIZES = (14, 64, 256)
GRADCHECK_SEEDS_PER_RUN = 20


@dataclass(frozen=True)
class LatticeCase:
    d: np.ndarray  # frame targets, values in [8, 20)
    energies: np.ndarray  # (T, N) normalized rows, T = sum(d)

    @property
    def steps(self) -> int:
        return self.energies.shape[0]


def lattice_case(variant: int, n: int) -> LatticeCase:
    """Frame targets in [8, 20) with a fixed multiset (so T = sum(d) is the
    same for every variant), and a noisy diagonal of content energies."""
    rng = np.random.default_rng([variant, n, 0x1A7])
    d = rng.permutation(np.resize(np.arange(8, 20), n)).astype(np.float64)
    t_steps = int(d.sum())
    target = np.searchsorted(np.cumsum(d), np.arange(t_steps), side="right")
    raw = -1.5 * np.abs(np.arange(n)[None, :] - target[:, None]) + rng.normal(0.0, 0.5, (t_steps, n))
    raw -= raw.max(axis=1, keepdims=True)
    w = np.exp(raw)
    return LatticeCase(d=d, energies=w / w.sum(axis=1, keepdims=True))


def gradcheck_seeds(variant: int) -> list[int]:
    return [variant * GRADCHECK_SEEDS_PER_RUN + k for k in range(GRADCHECK_SEEDS_PER_RUN)]


def duration_sweep(variant: int) -> tuple[np.ndarray, np.ndarray]:
    """Encoder training rows (duration_s, tempo_bpm, log frames) for frame
    targets 2..100, and the targets themselves."""
    rng = np.random.default_rng([variant, 0x7EA])
    d = rng.permutation(np.arange(2, 101, dtype=np.float64))
    bpm = rng.uniform(60.0, 180.0, d.size)
    return np.column_stack([d * 0.01, bpm, np.log(d)]), d
