import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlcycles import (
    Boundary,
    EvaluationError,
    ParameterError,
    Point,
    PWLSystem,
    SystemParams,
    Zone,
    make_oscillatory,
    manifold_value,
    system_descriptor,
    vector_field,
)
from pwlcycles.core import _decimal_text, _decimal_words, manifold_values, zone_matrix


class TestSystemParams:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ParameterError):
            SystemParams(bad)

    def test_accepts_positive(self):
        assert SystemParams(0.75).gamma == 0.75


class TestZoneMatrix:
    def test_entries(self, params075):
        np.testing.assert_array_equal(zone_matrix(params075, Zone.RIGHT), [[1.5, -1.0], [1.5625, 0.0]])
        np.testing.assert_array_equal(zone_matrix(params075, Zone.LEFT), [[-1.5, -1.0], [1.5625, 0.0]])

    def test_focus_invariants(self, params075):
        for zone in Zone:
            m = zone_matrix(params075, zone)
            assert np.linalg.det(m) == pytest.approx(0.75 ** 2 + 1.0)
            assert np.trace(m) ** 2 - 4.0 * np.linalg.det(m) == pytest.approx(-4.0)
        assert np.trace(zone_matrix(params075, Zone.RIGHT)) == 1.5
        assert np.trace(zone_matrix(params075, Zone.LEFT)) == -1.5


class TestManifoldValue:
    def test_lower_half_returns_x(self, zero_system):
        assert manifold_value(zero_system, Point(1.0, -2.0)) == 1.0

    def test_sine_root_on_axis(self, sine_system):
        # h(1) vanishes for the sine boundary, so (0, 1) sits on the manifold
        assert abs(manifold_value(sine_system, Point(0.0, 1.0))) < 1e-15

    def test_oscillatory_point(self):
        system = PWLSystem(SystemParams(1.0), make_oscillatory(0.3))
        got = manifold_value(system, Point(0.05, 0.5))
        assert got == pytest.approx(-0.018197307011926123, abs=1e-15)

    def test_continuous_across_axis(self, sine_system, zero_system, oscillatory_system):
        for system in (sine_system, zero_system, oscillatory_system):
            for x in (-0.7, 0.0, 0.4):
                above = manifold_value(system, Point(x, 1e-13))
                below = manifold_value(system, Point(x, -1e-13))
                assert above == pytest.approx(below, abs=1e-12)

    def test_nonfinite_point_rejected(self, zero_system):
        with pytest.raises(EvaluationError):
            manifold_value(zero_system, Point(math.nan, 0.0))

    def test_nonfinite_boundary_rejected(self, params075):
        bad = Boundary(evaluate=lambda y: np.full_like(np.asarray(y, dtype=float), np.nan),
                       derivative=lambda y: np.zeros_like(np.asarray(y, dtype=float)))
        system = PWLSystem(params075, bad)
        with pytest.raises(EvaluationError):
            manifold_value(system, Point(0.0, 1.0))

    def test_vectorized_matches_scalar(self, sine_system):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3.0, 3.0, size=(64, 2))
        vec = manifold_values(sine_system, pts)
        for row, v in zip(pts, vec):
            assert v == pytest.approx(manifold_value(sine_system, Point(*row)), abs=1e-15)


class TestVectorField:
    def test_origin_is_equilibrium(self, zero_system):
        assert vector_field(zero_system, Point(0.0, 0.0)) == Point(0.0, 0.0)

    def test_right_zone_product(self, zero_system):
        assert vector_field(zero_system, Point(1.0, 0.0)) == Point(1.5, 1.5625)

    def test_left_zone_product(self, zero_system):
        assert vector_field(zero_system, Point(-1.0, 0.0)) == Point(1.5, -1.5625)

    def test_zone_dichotomy(self, sine_system):
        right = zone_matrix(sine_system.params, Zone.RIGHT)
        left = zone_matrix(sine_system.params, Zone.LEFT)
        rng = np.random.default_rng(11)
        for x, y in rng.uniform(-3.0, 3.0, size=(256, 2)):
            p = Point(float(x), float(y))
            expected = (right if manifold_value(sine_system, p) >= 0.0 else left) @ [p.x, p.y]
            got = vector_field(sine_system, p)
            np.testing.assert_allclose([got.x, got.y], expected, rtol=0, atol=1e-14)

    def test_no_other_equilibria(self, sine_system):
        rng = np.random.default_rng(13)
        for x, y in rng.uniform(-2.0, 2.0, size=(128, 2)):
            if (x, y) == (0.0, 0.0):
                continue
            v = vector_field(sine_system, Point(float(x), float(y)))
            assert math.hypot(v.x, v.y) > 0.0


def test_system_descriptor_roundtrip_shape(sine_system):
    d = system_descriptor(sine_system)
    assert d == {"gamma": 0.75, "boundary": {"family": "sine", "params": {"n": 2}}}


FORMATS = ("%.12g", "%.3f")


def _texts(values, fmt):
    """Each value's text from ``_decimal_words``, one string per value."""
    words = _decimal_words(np.asarray(values, dtype=float), fmt)
    return [_decimal_text(w) for w in words.reshape(-1, words.shape[-1])]


def _reference(values, fmt):
    return [fmt % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def _edges():
    """Values at the edges of the kernel's exact domain."""
    named = [1e-4, 1e4, 9.99999999999995e-5, 9999.99999999995, 1e3, 0.001, 9999999e-3,
             0.0005, 0.0015, 2.0625, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             math.inf, math.nan]
    named += [10.0 ** k for k in range(-6, 8)]
    named += [0.0625 * k for k in range(-400, 400)]  # "%.3f" ties: q = 62.5 * k
    # "%.12g" ties: odd m times 2**(e - 12), in the decade of exponent e, is
    # (n + 1/2) * 10**(e - 11): its 13th significant digit is a 5 and the last
    named += [m * 2.0 ** (e - 12) for e in range(-4, 4)
              for m in range(int(10.0 ** e * 2.0 ** (12 - e)) | 1,
                             int(10.0 ** (e + 1) * 2.0 ** (12 - e)), 998)]
    # and the doubles nearest to such ties that are not ties: |v|*10**(11 - e) rounds to
    # the tie in floating point while Python's % rounds the exact value away from it
    named += [(n + 0.5) / 10.0 ** (11 - e) for e in range(-4, 4)
              for n in range(10 ** 11 + 7, 10 ** 12, 10 ** 11 // 7 + 3)]
    v = np.array(named)
    with np.errstate(over="ignore"):
        v = np.concatenate((v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)))
    return np.concatenate((v, -v))


class TestDecimalWords:
    """``core._decimal_words`` writes every float exactly as Python's % does."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_domain_edges_ties_and_specials(self, fmt):
        values = _edges()
        assert _texts(values, fmt) == _reference(values, fmt)

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.floats(), max_size=40), fmt=st.sampled_from(FORMATS))
    def test_any_floats(self, values, fmt):
        assert _texts(values, fmt) == _reference(values, fmt)

    @settings(max_examples=80, deadline=None)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=40), fmt=st.sampled_from(FORMATS))
    def test_any_bit_patterns(self, bits, fmt):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert _texts(values, fmt) == _reference(values, fmt)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-2e4, 2e4) | st.floats(-2e-3, 2e-3), min_size=1, max_size=40),
           fmt=st.sampled_from(FORMATS))
    def test_shape_and_order_kept(self, values, fmt):
        grid = np.array(values)[:, None] * [1.0, -0.5]  # (m, 2): row by row
        words = _decimal_words(grid, fmt)
        assert words.shape[:2] == grid.shape
        assert _decimal_text(words) == "".join(_reference(grid, fmt))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_domain_values_take_the_digit_path(self, fmt):
        # a value written from its digits keeps its sign word (word 0) NUL where
        # it is positive and below 1000; a value that % writes starts there
        values = np.random.default_rng(7).uniform(1.0, 999.0, 2000)
        words = _decimal_words(values, fmt)
        assert np.mean(words[:, 0] == 0) > 0.95
        assert _texts(values, fmt) == _reference(values, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_values_next_to_a_tie_take_the_digit_path(self, fmt):
        # a scaled mantissa q within 0.01 of a rounding tie, but off it, is
        # still written from its digits: every half-integer below 2**52 is a
        # double, so q strictly inside (n - 1/2, n + 1/2) puts the exact value there
        rng = np.random.default_rng(23)
        size = 2000
        if fmt == "%.3f":
            scale, m = np.full(size, 1e3), rng.integers(1000, 999000, size)
        else:  # 1 <= v < 1000: the decimal exponent e is 0, 1 or 2
            scale, m = 10.0 ** (11 - rng.integers(0, 3, size)), rng.integers(10**11, 10**12, size)
        d = rng.uniform(0.001, 0.009, size) * rng.choice([-1.0, 1.0], size)
        values = (m + 0.5 + d) / scale
        gap = np.abs(values * scale - np.rint(values * scale))
        assert np.all((gap > 0.49) & (gap < 0.5))
        words = _decimal_words(values, fmt)
        assert np.all(words[:, 0] == 0)
        assert _texts(values, fmt) == _reference(values, fmt)

