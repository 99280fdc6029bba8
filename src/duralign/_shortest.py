"""The text ``repr`` writes for a float64, built for a whole array at once.

``repr_columns(x)`` returns one column of ASCII codes per value, with
zero bytes between and after the characters, so that
``column[column != 0].tobytes().decode()`` equals ``repr(float(v))``.
The digits are the shortest that read back to the same double and, of
those, the closest to it (ties to even): the Ryu algorithm (Adams, PLDI
2018; the ``d2d`` routine of its reference implementation), with its
64x128-bit products done in 32-bit limbs.  They are laid out as
``float.__repr__`` lays them out: positional while the decimal point
position ``decpt`` is in [-3, 16], else ``d.ddde±XX``, in 29 rows:
the sign, ``0.``, up to three zeros after it, 17 digits with one slot
for the decimal point among them, and one suffix, ``.0`` for a whole
number or the exponent (see ``_layout``).  The work is a
fixed sequence of array operations plus a digit-dropping loop of a few
passes, so the cost per value hardly depends on the values; a Python
``repr`` call per value costs several times more.
"""

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_TEN = _U(10)
_BITS = 125  # bit length of every 5-power multiplier below
WIDTH = 29  # rows of a repr_columns result
_NEG = 292  # column of 5**0 among the multipliers for e2 < 0


def _multipliers() -> np.ndarray:
    """Ryu's multipliers as (4, 618) 32-bit limbs, low first.  For a
    binary exponent e2 >= 0, column q holds
    floor(2**(bitlen(5**q) - 1 + 125) / 5**q) + 1; for e2 < 0, column
    _NEG + i holds the leading 125 bits of 5**i."""
    values, power = [], 1
    for _ in range(_NEG):
        values.append((1 << (power.bit_length() - 1 + _BITS)) // power + 1)
        power *= 5
    power = 1
    for _ in range(326):
        shift = power.bit_length() - _BITS
        values.append(power >> shift if shift >= 0 else power << -shift)
        power *= 5
    raw = b"".join(v.to_bytes(16, "little") for v in values)
    return np.frombuffer(raw, dtype="<u4").reshape(-1, 4).T.astype(np.uint64)


_MUL = _multipliers()
_POW5_SMALL = np.array([5**q for q in range(22)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(17)], dtype=np.uint64)


def _pow5bits(e: np.ndarray) -> np.ndarray:
    """Bit length of 5**e, for 0 <= e <= 3528."""
    return ((e * 1217359) >> 19) + 1


def _mul_shift(mv: np.ndarray, down: np.ndarray, mul: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
    """floor(v * mul / 2**j) for v = mv, mv + 2 and mv - down: (n,)
    uint64 ``mv`` below 2**55, ``down`` 1 or 2, (4, n) 32-bit limbs
    ``mul`` and shifts ``j`` in [96, 128).  The product of ``mv`` is
    summed in 32-bit columns once; the other two add a multiple of
    ``mul`` to those columns before the carries."""
    cols = np.zeros((6, len(mv)), dtype=np.uint64)
    for a, part in enumerate((mv & _M32, mv >> _U(32))):
        for b in range(4):
            prod = part * mul[b]
            cols[a + b] += prod & _M32
            cols[a + b + 1] += prod >> _U(32)
    cols = cols.view(np.int64)  # each column is below 2**35
    mul = mul.view(np.int64)
    s = (j - 96).astype(np.uint64)
    out = []
    for extra in (None, 2 * mul, -down * mul):
        limbs, carry = [], 0
        for k in range(6):
            limb = cols[k] + carry
            if extra is not None and k < 4:
                limb += extra[k]
            carry = limb >> 32  # arithmetic: a negative column borrows
            limbs.append(limb.view(np.uint64))
        low = limbs[3] & _M32
        high = (limbs[4] & _M32) | limbs[5] << _U(32)
        out.append((low >> s) | (high << (_U(32) - s)))
    return out


def _div10(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = v // _TEN
    return q, v - q * _TEN


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest decimal digits (uint64) and exponent (int64) of each
    finite, nonzero |x|: |x| reads back from ``digits * 10**exp``."""
    bits = x.view(np.uint64) & _U((1 << 63) - 1)
    ieee_m = bits & _U((1 << 52) - 1)
    ieee_e = (bits >> _U(52)).astype(np.int64)
    sub = ieee_e == 0
    e2 = np.maximum(ieee_e, 1) - 1077
    m2 = ieee_m | (~sub).astype(np.uint64) << _U(52)
    accept = (m2 & _U(1)) == 0  # round-half-even reading accepts the interval's ends
    mm_shift = (ieee_m != 0) | (ieee_e <= 1)
    mv = m2 << _U(2)

    pos = e2 >= 0
    q = np.where(pos, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    i = (-e2 - q) * ~pos
    mul = _MUL[:, np.where(pos, q, _NEG + i)]
    j = np.where(pos, -e2 + q + _BITS - 1 + _pow5bits(q), q - _pow5bits(i) + _BITS)
    vr, vp, vm = _mul_shift(mv, 1 + mm_shift, mul, j)

    # Whether the digits the multiply dropped from vr and vm are all
    # zero; only possible when it dropped few (small q).
    vr_tz = ~pos & (q <= 1)
    vm_tz = vr_tz & accept & mm_shift
    vp -= (vr_tz & ~accept).astype(np.uint64)
    mid = ~pos & (q > 1) & (q < 63)
    if mid.any():
        low_bits = (_U(1) << (q * mid).astype(np.uint64)) - _U(1)
        vr_tz |= mid & ((mv & low_bits) == 0)
    small = pos & (q <= 21)
    if small.any():
        p5 = _POW5_SMALL[q * small]
        mv5 = mv % _U(5) == 0
        vr_tz |= small & mv5 & (mv % p5 == 0)
        vm_tz |= small & ~mv5 & accept & ((mv - _U(1) - mm_shift.astype(np.uint64)) % p5 == 0)
        vp -= (small & ~mv5 & ~accept & ((mv + _U(2)) % p5 == 0)).astype(np.uint64)

    # Drop digits while the interval (vm, vp) still holds a shorter
    # number; then, where vm's dropped digits are all zero, while vm
    # itself ends in zero.  Only the values still shortening are worked on.
    removed = np.zeros(len(x), dtype=np.int64)
    last = np.zeros(len(x), dtype=np.uint64)
    live = np.arange(len(x))
    while live.size:
        vp10, _ = _div10(vp[live])
        vm10, vm_digit = _div10(vm[live])
        go = vp10 > vm10
        live = live[go]
        vm_tz[live] &= vm_digit[go] == 0
        vr_tz[live] &= last[live] == 0
        vr[live], last[live] = _div10(vr[live])
        vp[live], vm[live] = vp10[go], vm10[go]
        removed[live] += 1
    live = np.flatnonzero(vm_tz)
    while live.size:
        vm10, vm_digit = _div10(vm[live])
        go = (vm_digit == 0) & (vm10 != 0)
        live = live[go]
        vr_tz[live] &= last[live] == 0
        vr[live], last[live] = _div10(vr[live])
        vp[live] //= _TEN
        vm[live] = vm10[go]
        removed[live] += 1
    last[vr_tz & (last == 5) & ((vr & _U(1)) == 0)] = 4  # exactly ...50...0: round to even
    up = ((vr == vm) & (~accept | ~vm_tz)) | (last >= 5)
    return vr + up.astype(np.uint64), np.where(pos, q, q + e2) + removed


def _layout(digits: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """repr_columns of ``digits * 10**exp``, but for the sign in row 0.
    Rows 1-2 hold ``0.`` and rows 3-5 the zeros after it; rows 6-23 the
    digits, left-aligned, with the decimal point after digit ``dot``
    (row 6 + r holds digit r below ``dot``, the point at ``dot``, digit
    r - 1 above); rows 24-28 the one suffix, ``.0`` or ``e±XX[X]``."""
    nd = 1 + np.searchsorted(_POW10[1:], digits, side="right")
    decpt = exp + nd
    sci = (decpt <= -4) | (decpt > 16)
    lead = ~sci & (decpt <= 0)  # 0.000ddd
    tail = ~sci & (decpt >= nd)  # ddd000.0: the zeros join the digits
    digits = digits * _POW10[17 - nd]  # left-aligned in 17 digits
    nd = np.where(tail, decpt, nd)
    dot = np.where(sci, 1, decpt)  # digits before a point among them, else 99
    dot[lead | tail | (sci & (nd == 1))] = 99
    e = decpt - 1

    out = np.zeros((WIDTH, len(digits)), dtype=np.uint8)
    out[1] = lead * ord("0")
    out[2] = lead * ord(".")
    out[3:6] = (np.arange(3)[:, None] < -decpt) & lead
    out[3:6] *= np.uint8(ord("0"))
    # The 17 digit slots in rows 1-17 of ``chars``, from two 32-bit halves
    # 8 and 9 digits long; row 0 (the high half's leading zero) and row 18
    # stay 0, so chars[1:] holds the digits as they stand before the point
    # and chars[:18] as they stand after it, one row down.
    high = digits // _U(10**9)
    halves = np.stack([high, digits - high * _U(10**9)]).astype(np.uint32)
    chars = np.zeros((19, len(digits)), dtype=np.uint8)
    split = chars[:18].reshape(2, 9, -1)
    for k in range(8, -1, -1):
        rest = halves // np.uint32(10)
        split[:, k] = halves - rest * np.uint32(10)
        halves = rest
    chars[1:18] += np.uint8(ord("0"))
    chars[1:18] *= np.arange(17, dtype=np.int8)[:, None] < nd.astype(np.int8)
    # chars[1:] before the point, chars[:18] from it on (uint8 sums wrap)
    below = (np.arange(18, dtype=np.int8)[:, None] < dot.astype(np.int8)).view(np.uint8)
    out[6:24] = chars[:18] + (chars[1:] - chars[:18]) * below
    point = np.flatnonzero(dot < 99)
    out[6 + dot[point], point] = ord(".")
    out[24] = sci * ord("e") + tail * ord(".")
    out[25] = sci * (ord("+") + 2 * (e < 0)) + tail * ord("0")  # "-" is "+" + 2
    ae = np.abs(e).astype(np.uint16)
    hundreds, tens = ae // np.uint16(100), ae // np.uint16(10)
    out[26] = (hundreds != 0) * (48 + hundreds)
    out[27] = 48 + tens - hundreds * np.uint16(10)
    out[28] = 48 + ae - tens * np.uint16(10)
    out[26:29] *= sci
    return out


def repr_columns(x: np.ndarray) -> np.ndarray:
    """(WIDTH, n) uint8: column k holds ``repr(float(x[k]))`` in ASCII,
    with zero bytes between and after the characters.  ``x`` is finite."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    digits = np.zeros(len(x), dtype=np.uint64)  # +-0.0 is the digit 0 at exponent 0
    exp = np.zeros(len(x), dtype=np.int64)
    nonzero = np.flatnonzero(x)
    digits[nonzero], exp[nonzero] = _shortest(x[nonzero])
    out = _layout(digits, exp)
    out[0] = np.signbit(x) * ord("-")
    return out
