"""Duration-controlled monotonic alignment lattice for singing-voice decoding.

Subpackages:

* score    - score model, native JSON format, phoneme expansion
* musicxml - minimal MusicXML reader
* tokens   - transition tokens (oracle + trainable duration encoder)
* attention- the alignment lattice, baselines, dynamic filter, gradients
* simulate - decoding simulator with synthetic energies
* evaluate - alignment metrics and experiment drivers
* gradcheck- finite-difference verification of all analytic gradients
* cli      - command-line entry point
"""

from .score import (
    NoteEvent,
    PhonemeEvent,
    PhonemeSequence,
    Score,
    ScoreError,
    expand_to_phonemes,
    frames_for,
    parse_lexicon,
    parse_score_native,
    serialize_native,
)
from .musicxml import parse_musicxml
from .tokens import (
    DurationEncoderParams,
    DurationFeatures,
    TrainConfig,
    TransitionTokens,
    encoder_backward,
    encoder_forward,
    oracle_tokens,
    train_encoder,
)
from .attention import (
    AlignmentDistribution,
    AlignmentMatrix,
    EnergyParams,
    StepOptions,
    content_energies,
    context_vector,
    dynamic_filter,
    fa_step,
    gdca_step,
    init_alignment,
    la_step,
    lattice_backward,
    lattice_forward,
    normalize_energies,
    pure_lattice_occupancy,
)
from .simulate import SimConfig, SimResult, SynthEnergySpec, realized_durations, run_simulation
from .evaluate import (
    MechanismReport,
    compare_mechanisms,
    duration_error,
    monotonicity_score,
    sharpness_score,
    tempo_sweep,
    token_profile,
)

__all__ = [
    "NoteEvent",
    "PhonemeEvent",
    "PhonemeSequence",
    "Score",
    "ScoreError",
    "expand_to_phonemes",
    "frames_for",
    "parse_lexicon",
    "parse_score_native",
    "serialize_native",
    "parse_musicxml",
    "DurationEncoderParams",
    "DurationFeatures",
    "TrainConfig",
    "TransitionTokens",
    "encoder_backward",
    "encoder_forward",
    "oracle_tokens",
    "train_encoder",
    "AlignmentDistribution",
    "AlignmentMatrix",
    "EnergyParams",
    "StepOptions",
    "content_energies",
    "context_vector",
    "dynamic_filter",
    "fa_step",
    "gdca_step",
    "init_alignment",
    "la_step",
    "lattice_backward",
    "lattice_forward",
    "normalize_energies",
    "pure_lattice_occupancy",
    "SimConfig",
    "SimResult",
    "SynthEnergySpec",
    "realized_durations",
    "run_simulation",
    "MechanismReport",
    "compare_mechanisms",
    "duration_error",
    "monotonicity_score",
    "sharpness_score",
    "tempo_sweep",
    "token_profile",
]

__version__ = "0.1.0"
