"""The bulk float writer against the CLI's cell-by-cell format, as bytes.

kickecho._floatfmt.render_rows must write every row exactly as
",".join(cli._format_cell(x) for x in row) does, that is Python's repr
of each float.  Its digits come from integer arithmetic that is easy to
get wrong in a way few inputs show, so besides a property over
hypothesis floats the tests sweep whole families where the algorithm
changes branch: the smallest subnormals, powers of 2 and 10 and their
neighbours (irregular spacing, exact integers), and the switches between
fixed and exponent notation.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kickecho import _floatfmt
from kickecho._floatfmt import render_rows
from kickecho.cli import _format_cell


def _cellwise(block):
    return [",".join(_format_cell(x) for x in row).encode() for row in block.tolist()]


def _assert_renders_like_repr(values, cols=64):
    values = np.asarray(values, dtype=np.float64).ravel()
    pad = -values.size % cols
    block = np.concatenate([values, np.full(pad, 0.5)]).reshape(-1, cols)
    got = render_rows(block)
    want = _cellwise(block)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:3]


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    both = np.concatenate([values, -values])
    return np.concatenate(
        [both, np.nextafter(both, np.inf), np.nextafter(both, -np.inf)]
    )


_EDGES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e-323,
          2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 1e16,
          9999999999999998.0, 0.1, 1e22, 123456.0]


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 6), st.integers(0, 40)),
        elements=st.one_of(st.floats(), st.sampled_from(_EDGES)),
    )
)
@example(np.array([_EDGES]))
@example(np.array([_EDGES[::-1], _EDGES]))
def test_render_rows_matches_cellwise_format(block):
    assert render_rows(block) == _cellwise(block)


def test_every_bit_pattern_up_to_2_16():
    """The subnormals below 2^16 ulp: the repr route below 64, and the
    smallest mantissas Schubfach handles."""
    bits = np.arange(1, 2**16 + 1, dtype=np.uint64)
    _assert_renders_like_repr(bits.view(np.float64))
    _assert_renders_like_repr((bits | np.uint64(2**63)).view(np.float64))


def test_powers_of_two_and_ten_with_neighbours():
    """Powers of two take the irregular interval below them; powers of
    ten and the integers around them have exact short decimals."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    _assert_renders_like_repr(_with_neighbours(np.concatenate([twos, tens])))


def test_notation_switches():
    """repr writes fixed notation for 1e-4 <= |x| < 1e16, exponent form
    outside, at every decimal-point position in between."""
    positions = 10.0 ** np.arange(-6, 19)
    mantissas = np.array([1.0, 1.5, 9.5, 1.2345678901234567, 9.999999999999998,
                          7.0000000000000001, 3.0517578125])
    values = (positions[:, None] * mantissas[None, :]).ravel()
    values = np.concatenate([values, [1e-4, 1e-5, 9.999999999999999e-05, 1e16,
                                      9999999999999998.0, 1.0000000000000002e16,
                                      123456789012345680.0, 0.00012345678901234567]])
    _assert_renders_like_repr(_with_neighbours(values))


def test_random_bit_patterns():
    rng = np.random.default_rng(20200101)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    _assert_renders_like_repr(bits.view(np.float64), cols=389)


def _floor_log(base, x):
    """floor(log_base(x)) of a positive Fraction, exactly."""
    e = math.floor((math.log(x.numerator) - math.log(x.denominator)) / math.log(base))
    while Fraction(base) ** e > x:
        e -= 1
    while Fraction(base) ** (e + 1) <= x:
        e += 1
    return e


def test_floor_log_formulas_are_exact_over_float64_exponents():
    for q in range(-1074, 972):
        two_q = Fraction(2) ** q
        assert _floatfmt._flog10pow2(q) == _floor_log(10, two_q)
        assert _floatfmt._flog10three_quarters_pow2(q) == _floor_log(10, two_q * 3 / 4)
    for e in range(-330, 330):
        assert _floatfmt._flog2pow10(e) == _floor_log(2, Fraction(10) ** e)
