"""Shortest round-trip text of float64 blocks, many cells per numpy call.

render_rows(block) gives each row of a 2-D float64 array as the bytes of
",".join(repr(float(x)) for x in row): Python's shortest round-trip
digits, laid out as repr lays them out.  The CLI writes the momentum
history through it; repr costs over a microsecond a cell.

* Digits.  Schubfach (R. Giulietti, "The Schubfach way to render
  doubles", 2020; the JDK's DoubleToDecimal) picks, for a float
  v = c 2^q, the shortest decimal d 10^k in v's rounding interval, and
  of two such the closer to v (the even one on a tie), as repr does.  It
  needs floor(g cp / 2^127), rounded to odd, of a 126-bit approximation
  g of 10^-k and a 60-bit cp; the 64x64 -> 128-bit products are built
  from 32-bit halves in uint64 arithmetic.  The 617 powers g and the
  per-exponent constants come from _tables, built with Python ints on
  first use, so importing this module builds nothing.
* Layout.  repr writes fixed notation when the decimal point falls at
  position -3 .. 16 of the digit string, else d.ddde[+-]XX.  Each cell
  gathers its characters from a per-cell source row (its 17 digits
  zero-padded, constant characters, exponent digits and separator)
  through a template chosen by its layout and its number of
  significant digits.  The templates pad with NUL, so dropping the NUL
  bytes of the whole character matrix leaves the text.
* Exceptions.  A zero is the digit 0 with the point after it ("0.0").
  NaN, infinities and subnormals go through repr, once per distinct
  value.  For a normal float the digits number 16 to 18 before
  trimming, which keeps their padding to two comparisons; a subnormal
  has fewer, and for some of the smallest Schubfach alone misses the
  shortest form (it writes 4.9e-324 where repr writes 5e-324).

The digit step keeps its arrays uint64, with np.uint64 scalars: mixing
uint64 and int64 operands promotes to float64.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_U = np.uint64
_MASK32 = _U(0xFFFF_FFFF)
_MASK63 = _U(2**63 - 1)
_FRACTION = _U(2**52 - 1)
_SIGN = _U(2**63)
_HIDDEN = _U(2**52)
_INF_BITS = _U(0x7FF << 52)
_ONE_BITS = _U(0x3FF << 52)
# Exponent classes: the biased exponent, plus this for the irregular
# spacing at a power of two (fraction 0), whose lower neighbour is closer.
_IRREGULAR = 2048
# Schubfach's decimal exponents k over all float64.
_K_MIN, _K_MAX = -324, 292
_D16 = _U(10**16)
_D17 = _U(10**17)

# The source row of a cell: 32 bytes, written as eight 4-byte words.
# Words 0-4 hold its 17 digits, zero-padded after the last significant
# one (digit i at byte 3 + i), word 5 ".0e-", word 6 the exponent's
# digits ("0XYZ"), word 7 "+", the separator and NUL.
_NDIG = 17
_DIGIT0, _DOT, _ZERO, _E, _MINUS, _EXP100, _PLUS, _SEP, _NUL = 3, 20, 21, 22, 23, 25, 28, 29, 31
_WORDS = 8
_SOURCE_WIDTH = 4 * _WORDS
_DOT_ZERO_E_MINUS = np.frombuffer(b".0e-", dtype=np.uint32)[0]
_PLUS_COMMA = np.frombuffer(b"+,\0\0", dtype=np.uint32)[0]
# Longest cell, "-d.dddddddddddddddde-XXX", with its separator.
_WIDTH = 25
# Layouts: decimal point at position -3 .. 16 of the digit string in fixed
# notation, then the exponent forms with exponent < 0 or > 0 and 2 or 3
# exponent digits; all of them without, then with, a minus sign.
_FIXED_LO, _FIXED_HI = -3, 16
_N_FIXED = _FIXED_HI - _FIXED_LO + 1
_N_LAYOUTS = _N_FIXED + 4


class _Tables(NamedTuple):
    # Per exponent class: g = g1 2^63 + g0 (126 bits), k, and h + 2.
    g1: np.ndarray
    g0: np.ndarray
    k: np.ndarray
    shift: np.ndarray
    # Per (layout, significant digits): the source byte of each character.
    source: np.ndarray
    # 0000 .. 9999 as 4-byte words of characters, and their trailing zeros.
    quads: np.ndarray
    trailing: np.ndarray


def _flog10pow2(e):
    """floor(log10(2^e)), exact for |e| < 6 10^6 (Giulietti, sec. 9.4)."""
    return (e * 661_971_961_083) >> 41


def _flog10three_quarters_pow2(e):
    """floor(log10(3/4 2^e)), exact over the float64 exponents."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e)), exact for |e| < 6 10^6."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    """floor(10^-k 2^-r) + 1 with r chosen so that 2^125 <= g < 2^126."""
    r = _flog2pow10(-k) - 125
    num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
    num, den = (num, den << r) if r >= 0 else (num << -r, den)
    return num // den + 1


def _layout(layout: int, nd: int) -> list[int]:
    """Source bytes of a cell with nd significant digits, as repr writes
    it, then its separator, padded with NUL."""
    sign, layout = divmod(layout, _N_LAYOUTS)
    digits = [_DIGIT0 + i for i in range(_NDIG)]
    out = [_MINUS] if sign else []
    if layout < _N_FIXED:
        point = layout + _FIXED_LO
        if point <= 0:
            out += [_ZERO, _DOT] + [_ZERO] * -point + digits[:nd]
        else:
            # Padding zeros fill the integer part and write "12.0".
            out += digits[:point] + [_DOT] + digits[point : max(nd, point + 1)]
    else:
        positive, three = divmod(layout - _N_FIXED, 2)
        out += digits[:1] + ([_DOT] + digits[1:nd] if nd > 1 else [])
        out += [_E, _PLUS if positive else _MINUS]
        out += [_EXP100, _EXP100 + 1, _EXP100 + 2][1 - three :]
    out.append(_SEP)
    return out + [_NUL] * (_WIDTH - len(out))


@functools.cache
def _tables() -> _Tables:
    """The constants of the digit step and the layouts; built on first use."""
    exponent_class = np.arange(2 * _IRREGULAR)
    q = np.maximum(exponent_class % _IRREGULAR, 1) - 1075
    k = np.where(
        exponent_class < _IRREGULAR, _flog10pow2(q), _flog10three_quarters_pow2(q)
    )
    h = q + _flog2pow10(-k) + 2
    g = [_g(kk) for kk in range(_K_MIN, _K_MAX + 1)]
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & (2**63 - 1) for x in g], dtype=np.uint64)
    source = np.array(
        [_layout(layout, nd) for layout in range(2 * _N_LAYOUTS) for nd in range(_NDIG + 1)],
        dtype=np.intp,
    )
    text = [f"{i:04d}" for i in range(10_000)]
    quads = np.frombuffer("".join(text).encode(), dtype=np.uint32)
    trailing = np.array([4] + [len(s) - len(s.rstrip("0")) for s in text[1:]], dtype=np.intp)
    return _Tables(
        g1[k - _K_MIN], g0[k - _K_MIN], k, (h + 2).astype(np.uint64), source, quads, trailing
    )


def _round_to_odd(g, cp):
    """floor(g cp / 2^127), its last bit set when that is inexact
    (Giulietti's rop); g holds the 32-bit halves of g0 and g1.

    The 128-bit products g0 cp and g1 cp are built from 32-bit halves.
    As g0, g1 < 2^63 and cp < 2^60, the two middle partial products and
    the carry of the low one sum without overflow.
    """
    cp_lo, cp_hi = cp & _MASK32, cp >> _U(32)
    # High word of g0 cp.
    mid = g[0] * cp_hi + g[1] * cp_lo + ((g[0] * cp_lo) >> _U(32))
    x1 = g[1] * cp_hi + (mid >> _U(32))
    # Both words of g1 cp.
    low = g[2] * cp_lo
    mid = g[2] * cp_hi + g[3] * cp_lo + (low >> _U(32))
    y1 = g[3] * cp_hi + (mid >> _U(32))
    y0 = (mid << _U(32)) | (low & _MASK32)
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _MASK63) + _MASK63) >> _U(63))


def _shortest(t: _Tables, mag):
    """(d, k) with d 10^k the shortest, closest decimal that rounds to each
    magnitude (bit patterns of positive normal floats); d has 16 to 18
    digits, trailing zeros included."""
    idx = (mag >> _U(52)).astype(np.intp)
    fraction = mag & _FRACTION
    irregular = (fraction == _U(0)) & (idx > 1)
    idx += irregular * _IRREGULAR
    c = fraction | _HIDDEN
    g0, g1 = t.g0[idx], t.g1[idx]
    g = (g0 & _MASK32, g0 >> _U(32), g1 & _MASK32, g1 >> _U(32))
    shift = t.shift[idx]
    cp = c << shift
    # The interval's ends: cp -+ 2^(h+1), or cp - 2^h below a power of two.
    step = (_U(1) << shift) >> _U(1)
    odd = c & _U(1)
    vb = _round_to_odd(g, cp)
    vbl = _round_to_odd(g, cp - (step >> irregular.astype(np.uint64))) + odd
    vbr = _round_to_odd(g, cp + step) - odd
    s = vb >> _U(2)
    # One digit shorter (s has 16 or 17 digits): 10 s' or 10 s' + 10,
    # when exactly one of them is inside.
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    shorter = upin != wpin
    # Otherwise s or s + 1: the one inside, or else the closer to v.
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    closer = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))
    upper = ~np.where(uin != win, uin, closer)
    d = np.where(shorter, sp10 + _U(10) * (~upin), s + upper)
    return d, t.k[idx]


def render_rows(block: np.ndarray) -> list[bytes]:
    """Each row of the 2-D float block as the bytes of
    ",".join(repr(float(x)) for x in row)."""
    rows, cols = block.shape
    if rows * cols == 0:
        return [b""] * rows
    t = _tables()
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64).reshape(-1)
    n = bits.size
    mag = bits & ~_SIGN
    zero = mag == _U(0)
    special = ((mag < _HIDDEN) & ~zero) | (mag >= _INF_BITS)
    d, k = _shortest(t, np.where(zero | special, _ONE_BITS, mag))
    # Pad d to 17 digits (d = 10^17 drops a zero).  A zero cell is the
    # digit 0 before the point: 0.0.
    ge16, ge17 = d >= _D16, d >= _D17
    padded = np.where(ge16, d, d * _U(10))
    padded[ge17] = _D16
    padded[zero] = 0
    point = k + 16 + ge16 + ge17
    point[zero] = 1
    # The lead digit and four groups of four, as int64 indices.
    high, low = divmod(padded.view(np.int64), 10**8)
    lead, high = divmod(high, 10**8)
    quads = (lead, *divmod(high, 10**4), *divmod(low, 10**4))
    exp = np.abs(point - 1)
    words = np.empty((n, _WORDS), dtype=np.uint32)
    for i, quad in enumerate(quads):
        words[:, i] = t.quads[quad]
    words[:, 5] = _DOT_ZERO_E_MINUS
    words[:, 6] = t.quads[exp]
    words[:, 7] = _PLUS_COMMA
    source = words.view(np.uint8)
    source[cols - 1 :: cols, _SEP] = ord("\n")
    # Significant digits: 17 less the trailing zeros of the padded digits.
    zeros = np.zeros(n, dtype=np.intp)
    run = np.ones(n, dtype=bool)
    for quad in quads[:0:-1]:
        zeros += run * t.trailing[quad]
        run &= quad == 0

    fixed = (point >= _FIXED_LO) & (point <= _FIXED_HI)
    layout = np.where(fixed, point - _FIXED_LO, _N_FIXED + 2 * (point > 1) + (exp >= 100))
    layout += (bits >> _U(63)).astype(np.intp) * _N_LAYOUTS
    index = t.source[layout * (_NDIG + 1) + (_NDIG - zeros)]
    index += np.arange(0, n * _SOURCE_WIDTH, _SOURCE_WIDTH)[:, None]
    chars = source.reshape(-1)[index]
    if special.any():
        cells = np.flatnonzero(special)
        values, inverse = np.unique(bits[cells], return_inverse=True)
        texts = [repr(float(v)).encode() for v in values.view(np.float64)]
        table = np.zeros((len(texts), _WIDTH), dtype=np.uint8)
        for row, text in zip(table, texts):
            row[: len(text)] = np.frombuffer(text, dtype=np.uint8)
        chars[cells] = table[inverse]
        sizes = np.array([len(text) for text in texts])[inverse]
        chars[cells, sizes] = source[cells, _SEP]
    # Each cell ends in a comma, or in a newline at the end of a row.
    return chars[chars != 0].tobytes().split(b"\n")[:-1]
