"""The noise generators of a block of steps, seeded by one array hash.

Step t of a run with seed ``seed`` draws its noise from
``np.random.default_rng([seed, t])``.  NumPy seeds that generator's
PCG64 with ``SeedSequence([seed, t]).generate_state(4, np.uint64)``:
the entropy words (the base-2**32 digits of seed, then of t, low digit
first; 0 has one zero digit) are hashed into a pool of four uint32
words, and the pool is hashed into eight output words
(``hashmix``, ``mix`` and ``generate_state`` in NumPy's
``bit_generator.pyx``).  Every hash round is uint32 arithmetic on one
word, and the constants a round uses depend only on its position, so
the rounds run here as array operations over the steps of a block, one
column per step.  The constants are computed once at import, except
those of the extra rounds that entropy longer than the pool needs,
which are computed per block.  Within a block that crosses no multiple
of 2**32 only the low digit of t differs between the steps;
``step_generators`` splits a block at each such multiple.  Each step's generator is then a plain PCG64 built from its
precomputed words, through NumPy's seed-source interface
``ISeedSequence``, so its draws are bit for bit those of
``default_rng([seed, t])``.
"""

import numpy as np

_U32 = np.uint32
_MASK = 0xFFFFFFFF
_POOL = 4  # NumPy's DEFAULT_POOL_SIZE
_OUT = 8  # uint32 words of the four uint64 state words PCG64 asks for
_SHIFT = _U32(16)
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # rounds that fill and mix the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # rounds that hash the pool into the output


def _rounds(const: int, mult: int, count: int):
    """The (xor, multiply) uint32 constants of ``count`` hash rounds from
    ``const`` on, and the int constant the round after them starts from."""
    pairs = []
    for _ in range(count):
        after = const * mult & _MASK
        pairs.append((_U32(const), _U32(after)))
        const = after
    return pairs, const


_POOL_ROUNDS, _EXTRA_INIT = _rounds(_INIT_A, _MULT_A, _POOL * _POOL)  # fill, then mix each ordered pair
_OUT_ROUNDS, _ = _rounds(_INIT_B, _MULT_B, _OUT)


def _hashmix(value: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _SHIFT)


def _digits(n: int) -> list[int]:
    """n's base-2**32 digits, low first, as a SeedSequence reads an int."""
    digits = [n & _MASK]
    while n > _MASK:
        n >>= 32
        digits.append(n & _MASK)
    return digits


def state_words(seed: int, t0: int, t1: int) -> np.ndarray:
    """(t1 - t0, 4) uint64 array whose row i is
    ``SeedSequence([seed, t0 + i]).generate_state(4, np.uint64)``, for
    t0 <= t1 with no multiple of 2**32 in (t0, t1)."""
    seed_digits, t_digits = _digits(seed), _digits(t0)
    n_words = len(seed_digits) + len(t_digits)
    entropy = np.zeros((max(n_words, _POOL), t1 - t0), _U32)  # rows past the entropy hash zeros
    entropy[:n_words] = np.array(seed_digits + t_digits, _U32)[:, None]
    entropy[len(seed_digits)] += np.arange(t1 - t0, dtype=_U32)

    extra, _ = _rounds(_EXTRA_INIT, _MULT_A, _POOL * max(n_words - _POOL, 0))
    rounds = iter(_POOL_ROUNDS + extra)
    pool = [_hashmix(word, *next(rounds)) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(rounds)))
    for word in entropy[_POOL:]:  # entropy longer than the pool
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(rounds)))

    out = np.empty((t1 - t0, _OUT), _U32)
    for i, constants in enumerate(_OUT_ROUNDS):
        out[:, i] = _hashmix(pool[i % _POOL], *constants)
    return out.astype("<u4").view("<u8").astype(np.uint64)  # NumPy's word order on any host


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed source that hands PCG64 one step's precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve only PCG64's request for 4 uint64 words")
        return self.words


def step_generators(seed: int, t0: int, t1: int):
    """``np.random.default_rng([seed, t])`` for t in t0 .. t1-1, in order."""
    while t0 < t1:
        stop = min(t1, (t0 | _MASK) + 1)  # the next multiple of 2**32
        for words in state_words(seed, t0, stop):
            yield np.random.Generator(np.random.PCG64(_Words(words)))
        t0 = stop
