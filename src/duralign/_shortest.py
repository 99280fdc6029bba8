"""The text ``repr`` writes for a float64, built for a whole array at once.

``repr_columns(x)`` returns one column of ASCII codes per value, with
zero bytes between and after the characters, so that
``column[column != 0].tobytes().decode()`` equals ``repr(float(v))``.
The digits are the shortest that read back to the same double and, of
those, the closest to it (ties to even): the Schubfach algorithm
(Giulietti, "The Schubfach way to render doubles", 2020; the
``toDecimal`` routine of Java's ``DoubleToDecimal``), with its
products done in 32-bit limbs and without Java's two-digit minimum,
which ``repr`` does not have.  They are laid out as
``float.__repr__`` lays them out: positional while the decimal point
position ``decpt`` is in [-3, 16], else ``d.ddde±XX``, in 29 rows:
the sign, ``0.``, up to three zeros after it, 17 digits with one slot
for the decimal point among them, and one suffix, ``.0`` for a whole
number or the exponent (see ``_layout``).  The work is a fixed
sequence of array operations plus one loop over the values whose
digits end in zero, so the cost per value hardly depends on the
values; a Python ``repr`` call per value costs several times more.
"""

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
WIDTH = 29  # rows of a repr_columns result
_K_MIN = -324  # the smallest decimal exponent k of a double's interval


def _multipliers() -> np.ndarray:
    """Schubfach's g(k) = floor(10**-k * 2**(125 - floor(-k log2 10))) + 1,
    which is in [2**125, 2**126), for k in [-324, 292], as (4, 617)
    32-bit limbs, low first; column k + 324 holds g(k)."""
    values = []
    for k in range(_K_MIN, 293):
        s = 125 - ((-k * 913124641741) >> 38)
        p = 10 ** abs(k)
        values.append(((1 << s) // p if k > 0 else p << s if s >= 0 else p >> -s) + 1)
    raw = b"".join(v.to_bytes(16, "little") for v in values)
    return np.frombuffer(raw, dtype="<u4").reshape(-1, 4).T.astype(np.uint64)


_MUL = _multipliers()
_POW10 = np.array([10**k for k in range(17)], dtype=np.uint64)


def _rop(v: np.ndarray, g: np.ndarray, left: np.ndarray, right: np.ndarray) -> list[np.ndarray]:
    """floor(g * w / 2**127), made odd where the quotient is inexact, for
    w = v, v - 2**left and v + 2**right: (n,) uint64 ``v`` below 2**59,
    (4, n) 32-bit limbs ``g`` below 2**126 and (n,) int64 shifts of at
    most 5.  The product of ``v`` is summed in 32-bit columns once; the
    ends add a multiple of ``g`` to those columns before the carries.

    Inexact means that a bit from 64 to 126 of the product is set: the
    bits below 64, where g's excess over 10**-k * 2**r times w lands, do
    not count.  Java's ``rop``, the form the paper proves, splits g at
    bit 63 and drops the low bit of g_high * w's low word and the low
    64 bits of g_low * w.  Every w here is even (its factor 2**h has
    h >= 1), so the bit it drops is 0, its sum carries nothing out of
    the low 64 bits, and its odd bit is exactly the one taken here."""
    cols = np.zeros((6, len(v)), dtype=np.uint64)
    for a, part in enumerate((v & _M32, v >> _U(32))):
        for b in range(4):
            prod = part * g[b]
            cols[a + b] += prod & _M32
            cols[a + b + 1] += prod >> _U(32)
    cols = cols.view(np.int64)  # each column is below 2**35
    g = g.view(np.int64)
    out = []
    for extra in (None, -(g << left), g << right):
        limbs, carry = [], 0
        for j in range(6):
            limb = cols[j] + carry
            if extra is not None and j < 4:
                limb += extra[j]
            carry = limb >> 32  # arithmetic: a negative column borrows
            limbs.append(limb & 0xFFFFFFFF)
        inexact = (limbs[2] | (limbs[3] & 0x7FFFFFFF)) != 0
        out.append(limbs[3] >> 31 | limbs[4] << 1 | limbs[5] << 33 | inexact)
    return out


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest decimal digits (uint64) and exponent (int64) of each
    finite, nonzero |x|: |x| reads back from ``digits * 10**exp``."""
    bits = x.view(np.uint64) & _U((1 << 63) - 1)
    fraction = bits & _U((1 << 52) - 1)
    biased = (bits >> _U(52)).astype(np.int64)
    c = fraction | (biased != 0).astype(np.uint64) << _U(52)  # |x| = c * 2**q
    q = np.maximum(biased, 1) - 1075
    # A power of two's gap below is half its gap above: the interval's
    # left end is 3/4 of a unit below, and k = floor(log10(3/4 * 2**q)).
    lopsided = ((fraction == 0) & (biased > 1)).astype(np.int64)
    k = (q * 661971961083 - lopsided * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2  # in [1, 4]
    vb, vbl, vbr = _rop(c << (h + 2).astype(np.uint64), _MUL[:, k - _K_MIN], h + 1 - lopsided, h + 1)

    # In units of 10**k, |x| is vb / 4 and its interval runs from vbl / 4
    # to vbr / 4, ends included when c is even.  The interval holds s or
    # s + 1; a multiple of ten in it, if just one, is shorter.
    out = (c & _U(1)).astype(np.int64)
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = (s + 1 << 2) + out <= vbr
    rest = vb & 3  # vb - 4s: below 2 is closer to s, 2 a tie
    down = np.where(uin == win, (rest < 2) | (rest == 2) & ((s & 1) == 0), uin)
    digits = np.where((s >= 10) & (upin != wpin), sp10 + 10 * wpin, s + ~down)
    live = np.flatnonzero(digits % 10 == 0)
    while live.size:
        digits[live] //= 10
        k[live] += 1
        live = live[digits[live] % 10 == 0]
    return digits.view(np.uint64), k


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
