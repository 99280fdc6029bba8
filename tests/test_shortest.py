"""The array formatter behind alignment_to_csv writes exactly repr(float)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from duralign._shortest import WIDTH, repr_columns


def texts(values):
    columns = repr_columns(np.asarray(values, dtype=np.float64))
    assert columns.shape == (WIDTH, np.size(values)) and columns.dtype == np.uint8
    return [column[column != 0].tobytes().decode("ascii") for column in columns.T]


def reprs(values):
    return [repr(float(v)) for v in np.asarray(values, dtype=np.float64)]


def finite_from_bits(bits):
    values = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


@given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_matches_repr_on_any_finite_doubles(values):
    assert texts(values) == reprs(values)


def test_matches_repr_on_random_bit_patterns():
    rng = np.random.default_rng(20181)
    values = finite_from_bits(rng.integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False))
    assert texts(values) == reprs(values)


@pytest.mark.parametrize(
    "family",
    [
        # every binade's first double (its interval is lopsided), last
        # double, and the doubles either side of the first
        [np.ldexp(1.0, k) for k in range(-1074, 1024)],
        [np.nextafter(np.ldexp(1.0, k), np.inf) for k in range(-1074, 1023)],
        [np.nextafter(np.ldexp(1.0, k), 0.0) for k in range(-1073, 1024)],
        # the smallest subnormals, the largest ones and the smallest normals
        finite_from_bits(np.r_[1:2000, 2**52 - 2000 : 2**52 + 2000]),
        # powers of ten and short decimals across the whole range
        [float(f"{d}e{k}") for k in range(-323, 294) for d in (1, 2, 5, 9, 15, 123456789, 999999999999999)],
        # whole numbers around 2**53 and 10**16 (where repr turns to e+16),
        # and below 1e-4 (where it turns to e-05)
        np.ldexp(1.0, 53) + np.arange(-3000.0, 3000.0),
        1e16 + np.arange(-3000.0, 3000.0, 2.0),
        np.nextafter(1e-4, 0.0) * (1.0 + np.arange(-50, 50) * 2.0**-52),
        [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
    ],
    ids=["binade-first", "binade-second", "binade-last", "subnormals", "decimals", "near-2**53", "near-1e16", "near-1e-4", "extremes"],
)
def test_matches_repr_on_boundary_families(family):
    assert texts(family) == reprs(family)


def significant_digits(text):
    return len(text.lstrip("-").split("e")[0].replace(".", "").strip("0"))


def full_width_groups():
    """Negative doubles with 17 significant digits at every decimal point
    position repr writes positionally (0.000ddd to dddddddddddddddd.d), then
    in exponent form with exponents of one, two and three digits, each
    beside a one-digit mantissa there: the longest texts, which fill every
    row of the layout.  One group per position and per form."""
    rng = np.random.default_rng(29)
    groups = []
    for decpt in range(-3, 17):
        top = 10**17 if decpt < 16 else 1125 * 10**13  # below 2**50, where a 17th digit can be needed
        groups.append([-float(f"0.{m}e{decpt}") for m in rng.integers(10**16, top, 100)])
    for exp in (-5, -9, -10, 16, 99, -99, 100, -300, 308, -308):
        groups.append([-float(f"{m // 10**16}.{m % 10**16:016d}e{exp}") for m in rng.integers(10**16, 10**17, 100)])
        groups.append([-float(f"1e{exp}")])
    groups.append([-5e-324])
    return [[v for v in group if significant_digits(repr(v)) in (1, 17)] for group in groups]


def test_matches_repr_on_full_width_texts():
    groups = full_width_groups()
    assert all(groups)  # every position and form is there
    family = [v for group in groups for v in group]
    assert max(map(len, reprs(family))) == 24  # -d.dddddddddddddddde-XXX
    assert texts(family) == reprs(family)


def test_whole_numbers_with_digits_ending_in_five_round_to_even():
    # Doubles above 2**54 whose shortest digits are decided by a tie.
    values = np.ldexp(np.arange(2**52, 2**52 + 20_000, dtype=np.float64), np.arange(20_000) % 16 + 2)
    assert texts(values) == reprs(values)


def test_signed_zeros():
    assert texts([0.0, -0.0, 0.0]) == ["0.0", "-0.0", "0.0"]


def test_empty():
    assert repr_columns(np.zeros(0)).shape == (WIDTH, 0)
