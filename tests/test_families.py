import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlcycles import (
    ParameterError,
    PWLSystem,
    SystemParams,
    boundary_from_descriptor,
    displacement,
    make_cosine,
    make_oscillatory,
    make_sine,
    make_table,
    make_zero,
    oscillatory_root,
    system_descriptor,
    system_from_descriptor,
)
from pwlcycles import families
from pwlcycles.families import COSINE_GAMMA_LIMIT, OSCILLATORY_ALPHA_LIMIT, SINE_GAMMA_LIMIT

SINE_AMP_075 = 0.30557749073643903  # 2*0.75 / ((0.75^2+1)*pi)


def fd_derivative(fn, y, eps):
    return (fn(y + eps) - fn(y - eps)) / (2 * eps)


class TestZero:
    def test_identically_zero(self):
        b = make_zero()
        assert b.evaluate(5.0) == 0.0
        assert b.derivative(5.0) == 0.0
        np.testing.assert_array_equal(b.evaluate(np.linspace(0, 9, 10)), np.zeros(10))

    def test_system_is_a_center(self, zero_system):
        for y in (0.3, 1.0, 2.7):
            assert displacement(y, zero_system) == 0.0


class TestSine:
    def test_parameter_range(self, params075):
        make_sine(params075, 1)
        with pytest.raises(ParameterError):
            make_sine(SystemParams(0.8), 2)
        with pytest.raises(ParameterError):
            make_sine(SystemParams(SINE_GAMMA_LIMIT), 2)

    @pytest.mark.parametrize("n", [0, -3, 2.5, True])
    def test_count_validation(self, params075, n):
        with pytest.raises(ParameterError):
            make_sine(params075, n)

    def test_roots_at_integers_in_window(self, params075):
        b = make_sine(params075, 2)
        for k in (1, 2):
            assert abs(b.evaluate(float(k))) < 1e-15

    def test_constant_tail(self, params075):
        b = make_sine(params075, 2)  # n even: tail at +amplitude
        assert b.evaluate(3.0) == pytest.approx(SINE_AMP_075, rel=1e-15)
        assert b.evaluate(10.0) == b.evaluate(3.0)
        assert b.derivative(3.0) == 0.0
        odd = make_sine(params075, 1)
        assert odd.evaluate(2.0) == pytest.approx(-SINE_AMP_075, rel=1e-15)

    def test_exact_slope_at_roots(self, params075):
        b = make_sine(params075, 2)
        assert b.derivative(1.0) == pytest.approx(-0.96, abs=1e-15)
        assert b.derivative(2.0) == pytest.approx(0.96, abs=1e-15)

    def test_c1_junction(self, params075):
        for n in (1, 2, 3):
            b = make_sine(params075, n)
            w = (2 * n + 1) / 2
            assert abs(b.evaluate(w) - b.evaluate(np.nextafter(w, np.inf))) < 1e-12
            assert abs(b.derivative(w) - b.derivative(np.nextafter(w, np.inf))) < 1e-12

    def test_derivative_consistent_second_order(self, params075):
        b = make_sine(params075, 2)
        for y in (0.3, 1.2, 2.2):
            e1 = abs(fd_derivative(b.evaluate, y, 2e-4) - b.derivative(y))
            e2 = abs(fd_derivative(b.evaluate, y, 1e-4) - b.derivative(y))
            assert e1 / e2 == pytest.approx(4.0, rel=0.4)

    def test_slope_bound(self, params075):
        b = make_sine(params075, 3)
        bound = 2 * 0.75 / (0.75 ** 2 + 1)
        ys = np.linspace(0.0, 8.0, 801)
        assert np.all(np.abs(np.asarray(b.derivative(ys))) <= bound + 1e-15)


class TestOscillatory:
    def test_parameter_range(self):
        make_oscillatory(0.36)
        with pytest.raises(ParameterError):
            make_oscillatory(0.4)
        with pytest.raises(ParameterError):
            make_oscillatory(OSCILLATORY_ALPHA_LIMIT)
        with pytest.raises(ParameterError):
            make_oscillatory(0.0)

    def test_accumulating_roots(self):
        b = make_oscillatory(0.3)
        for k in range(1, 8):
            r = oscillatory_root(k)
            assert r == 1.0 / (k * math.pi)
            assert abs(b.evaluate(r)) < 1e-17

    def test_slope_at_roots_alternates(self):
        b = make_oscillatory(0.3)
        for k in range(1, 6):
            expected = -0.3 * (-1.0) ** k
            assert b.derivative(oscillatory_root(k)) == pytest.approx(expected, abs=1e-12)

    def test_amplitude_bound(self):
        b = make_oscillatory(0.3)
        ys = np.geomspace(1e-4, 2.0, 500)
        assert np.all(np.abs(np.asarray(b.evaluate(ys))) <= 0.3 * ys)

    def test_origin_values(self):
        b = make_oscillatory(0.3)
        assert b.evaluate(0.0) == 0.0
        assert b.derivative(0.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(ys=st.lists(st.floats(1e-6, 4.0) | st.sampled_from([1e-310, 5e-309, 0.0, -1.0]),
                       min_size=1, max_size=20))
    def test_slope_has_the_bits_of_two_reciprocals(self, ys):
        # h' takes 1/y once for its sine and cosine terms, with the bits of
        # taking it for each term, on the float and on the array path
        a, recip = 0.3, families._recip
        b = make_oscillatory(a)

        def ref(y, m):
            return 2.0 * a * y * m.sin(recip(y, m)) - a * m.cos(recip(y, m))

        arr = np.array(ys)
        want = np.zeros_like(arr)
        want[arr > 0.0] = ref(arr[arr > 0.0], np)
        assert b.derivative(arr).tobytes() == want.tobytes()
        floats = [ref(y, math) if y > 0.0 else 0.0 for y in ys]
        assert np.array([b.derivative(y) for y in ys]).tobytes() == np.array(floats).tobytes()


class TestCosine:
    def test_parameter_range(self):
        params = SystemParams(0.4)
        make_cosine(params, 1)
        with pytest.raises(ParameterError):
            make_cosine(SystemParams(0.5), 1)
        with pytest.raises(ParameterError):
            make_cosine(SystemParams(COSINE_GAMMA_LIMIT), 1)

    def test_tangential_roots(self):
        params = SystemParams(0.4)
        b = make_cosine(params, 3)
        for k in (1, 2, 3):
            assert abs(b.evaluate(2.0 * k)) < 1e-15
            assert abs(b.derivative(2.0 * k)) < 1e-12

    def test_nonnegative_and_local_max(self):
        params = SystemParams(0.4)
        b = make_cosine(params, 2)
        amp = 2 * 0.4 / ((0.4 ** 2 + 1) * math.pi)
        ys = np.linspace(0.0, 8.0, 801)
        assert np.all(np.asarray(b.evaluate(ys)) >= 0.0)
        assert b.evaluate(1.0) == pytest.approx(2.0 * amp, rel=1e-15)
        assert b.evaluate(7.0) == pytest.approx(2.0 * amp, rel=1e-15)  # tail
        assert b.derivative(6.0) == 0.0

    def test_c1_junction(self):
        params = SystemParams(0.4)
        for n in (1, 2):
            b = make_cosine(params, n)
            w = 2 * n + 1
            assert abs(b.evaluate(w) - b.evaluate(np.nextafter(w, np.inf))) < 1e-12
            assert abs(b.derivative(w) - b.derivative(np.nextafter(w, np.inf))) < 1e-12


class TestTable:
    def test_reproduces_zero(self):
        b = make_table([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
        for y in np.linspace(0.0, 2.0, 41):
            assert b.evaluate(float(y)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_dense_sine_samples(self, params075):
        sine = make_sine(params075, 2)
        ys = np.arange(0.0, 3.0 + 1e-9, 0.02)
        table = make_table([(float(y), float(sine.evaluate(float(y))),
                             float(sine.derivative(float(y)))) for y in ys])
        probe = np.linspace(0.05, 2.95, 173)
        hv = np.asarray(table.evaluate(probe))
        ref = np.asarray(sine.evaluate(probe))
        assert np.max(np.abs(hv - ref)) < 1e-6

    def test_two_point_bump(self):
        b = make_table([(0.0, 0.0, None), (1.0, 0.5, 0.0)])
        # pchip fills the missing slope with the secant 0.5; the Hermite
        # cubic through (0,0,.5),(1,.5,0) takes value 0.3125 at the middle
        assert b.evaluate(0.5) == pytest.approx(0.3125, abs=1e-12)
        assert b.derivative(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_derivative_is_interpolant_derivative(self):
        b = make_table([(0.0, 0.0, 0.1), (1.0, 0.4, -0.2), (2.5, -0.1, 0.05)])
        for y in (0.3, 0.9, 1.7):
            fd = fd_derivative(b.evaluate, y, 1e-6)
            assert b.derivative(y) == pytest.approx(fd, abs=1e-7)

    def test_construction_errors(self):
        with pytest.raises(ParameterError):
            make_table([(0.0, 0.0, 0.0)])
        with pytest.raises(ParameterError):
            make_table([(0.0, 0.1, 0.0), (1.0, 0.5, 0.0)])  # h(0) != 0
        with pytest.raises(ParameterError):
            make_table([(0.5, 0.0, 0.0), (1.0, 0.5, 0.0)])  # does not start at 0
        with pytest.raises(ParameterError):
            make_table([(0.0, 0.0, 0.0), (1.0, 0.1, 0.0), (1.0, 0.2, 0.0)])
        with pytest.raises(ParameterError):
            make_table([(0.0, 0.0, 0.0), (2.0, 0.1, 0.0), (1.0, 0.2, 0.0)])

    def test_pchip_fill_on_subnormal_samples(self):
        # pchip's harmonic mean of the secants 0 and 2.2e-309 overflows on the
        # way to its limit 0; that must not warn (the suite runs with -W error)
        b = make_table([(0, 0), (1, 0), (2, 2.225073858507203e-309)])
        slopes = [row[2] for row in b.descriptor["params"]["samples"]]
        assert slopes[:2] == [0.0, 0.0] and 0.0 < slopes[2] < 1e-308
        ys = np.linspace(0.0, 2.0, 41)
        assert np.all(np.isfinite(b.evaluate(ys))) and np.all(np.isfinite(b.derivative(ys)))
        assert np.all(np.abs(b.evaluate(ys)) <= b.envelope(2.0))


class TestTableAgainstScipy:
    """scipy's CubicHermiteSpline and PchipInterpolator are the reference for the table."""

    @settings(max_examples=150, deadline=None)
    @given(nodes=st.lists(st.tuples(st.floats(1e-3, 5.0), st.floats(-2.0, 2.0) | st.just(0.0),
                                    st.floats(-5.0, 5.0) | st.none()), min_size=1, max_size=10),
           first=st.floats(-5.0, 5.0) | st.none(), scale=st.sampled_from([1e-8, 1.0, 1e6]),
           probe=st.lists(st.floats(-3.0, 1.5), min_size=1, max_size=20))
    def test_values_and_slopes_are_scipys_bitwise(self, nodes, first, scale, probe):
        interp = pytest.importorskip("scipy.interpolate")
        ys = np.concatenate([[0.0], np.cumsum([w for w, _, _ in nodes])])
        hs = np.array([0.0] + [h * scale for _, h, _ in nodes])
        given_slopes = [first] + [d for _, _, d in nodes]
        b = make_table([(y, h, None if d is None else d * scale)
                        for y, h, d in zip(ys.tolist(), hs.tolist(), given_slopes)])
        ds = np.array([row[2] for row in b.descriptor["params"]["samples"]])
        missing = np.array([d is None for d in given_slopes])
        with np.errstate(all="ignore"):  # scipy's pchip overflows on subnormal secants
            if missing.any():
                # pchip's node slopes: c[2] holds all but the last, which is the
                # first slope of the mirrored data, negated
                last = -interp.PchipInterpolator(-ys[::-1], hs[::-1]).c[2, 0]
                pchip = np.append(interp.PchipInterpolator(ys, hs).c[2], last)
                np.testing.assert_array_equal(ds[missing], pchip[missing])  # -0.0 == 0.0
            spline = interp.CubicHermiteSpline(ys, hs, ds)
        # the nodes, just below them, y <= 0 and points past the last node
        points = np.concatenate([ys, np.nextafter(ys, -np.inf), ys[-1] * np.array(probe)])
        for fn, ref in ((b.evaluate, spline), (b.derivative, spline.derivative())):
            want = ref(points).tobytes()
            assert np.asarray(fn(points)).tobytes() == want
            assert np.array([fn(float(y)) for y in points]).tobytes() == want


def _sine_table(gamma, n):
    # the sine boundary sampled at quarter-integer nodes, as the verify benchmark does
    sine = make_sine(SystemParams(gamma), n)
    return make_table([(i / 4, float(sine.evaluate(i / 4)), float(sine.derivative(i / 4)))
                       for i in range(4 * n + 3)])


def _boundary(family, gamma, n, alpha, width, nodes):
    return {"zero": make_zero,
            "sine": lambda: make_sine(SystemParams(gamma), n),
            "cosine": lambda: make_cosine(SystemParams(gamma), n),
            "oscillatory": lambda: make_oscillatory(alpha),
            "sine table": lambda: _sine_table(gamma, n),
            "random table": lambda: make_table(
                [(0.0, 0.0, nodes[0][1])] + [(width * (i + 1), h, d)
                                              for i, (h, d) in enumerate(nodes)]),
            }[family]()


def _dense_grid(top):
    # up to 25 reaches the constant tails of sine and cosine (beyond 4.5 and
    # 9 at most) and the extrapolated cubic beyond the last table node
    return np.unique(np.concatenate([np.linspace(0.0, top, 20001)[1:],
                                     np.geomspace(1e-6 * top, top, 2001)]))


class TestEnvelope:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["zero", "sine", "cosine", "oscillatory", "sine table",
                                   "random table"]),
           gamma=st.floats(0.05, 0.45), n=st.integers(1, 4), alpha=st.floats(0.01, 0.36),
           width=st.floats(0.1, 2.0),
           nodes=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0) | st.none()),
                          min_size=1, max_size=6),
           top=st.floats(0.05, 25.0))
    def test_envelope_bounds_h_and_never_decreases(self, family, gamma, n, alpha, width,
                                                   nodes, top):
        b = _boundary(family, gamma, n, alpha, width, nodes)
        ys = _dense_grid(top)
        env = np.array([b.envelope(float(y)) for y in ys])
        assert np.all(np.diff(env) >= 0.0)
        assert np.all(np.maximum.accumulate(np.abs(b.evaluate(ys))) <= env)

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["zero", "sine", "cosine", "oscillatory", "sine table",
                                   "random table"]),
           gamma=st.floats(0.05, 0.45), n=st.integers(1, 4), alpha=st.floats(0.01, 0.36),
           width=st.floats(0.1, 2.0),
           nodes=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0) | st.none()),
                          min_size=1, max_size=6),
           top=st.floats(0.05, 25.0) | st.floats(1e-4, 0.05))
    def test_slope_envelope_bounds_h_prime_and_never_decreases(self, family, gamma, n, alpha,
                                                               width, nodes, top):
        # the grid reaches past the last table node and, for the oscillatory
        # family, close to 0, where h' = 2 alpha y sin(1/y) - alpha cos(1/y) swings fastest
        b = _boundary(family, gamma, n, alpha, width, nodes)
        ys = _dense_grid(top)
        env = np.array([b.slope_envelope(float(y)) for y in ys])
        assert np.all(np.diff(env) >= 0.0)
        assert np.all(np.maximum.accumulate(np.abs(b.derivative(ys))) <= env)

    def test_table_envelope_is_the_running_max_of_h_at_the_nodes(self):
        # each piece's bound is its largest |cubic| (at an end or where the
        # cubic turns), so at a node the envelope is max |h| up to it, to roundoff
        b = _sine_table(0.75, 2)
        nodes = [row[0] for row in b.descriptor["params"]["samples"]][1:]
        ys = np.linspace(0.0, nodes[-1], 200001)[1:]
        running = np.maximum.accumulate(np.abs(b.evaluate(ys)))
        for y in nodes:
            top = running[np.searchsorted(ys, y, side="right") - 1]
            assert top <= b.envelope(y) <= top * (1.0 + 1e-9) + 1e-300, y
        # the sine the table samples has the envelope amp
        assert b.envelope(2.5) == pytest.approx(SINE_AMP_075, rel=1e-10)

    @pytest.mark.parametrize("scale", [1e150, 1.0, 1e-199, 1e-300])
    def test_table_envelope_finds_the_turn_at_any_scale(self, scale):
        # h = scale * u (2u - 1)(u - 1) peaks inside the piece, at u = (3 - sqrt 3)/6;
        # the squares in the turning-point formula would underflow unscaled
        b = make_table([(0.0, 0.0, scale), (1.0, 0.0, scale)])
        peak = np.abs(b.evaluate(np.linspace(0.0, 1.0, 100001))).max()
        assert peak == pytest.approx(scale * math.sqrt(3.0) / 18.0, rel=1e-9)
        assert peak <= b.envelope(1.0) <= peak * (1.0 + 1e-9) + 2.0 * sys.float_info.min


class TestDescriptors:
    @pytest.mark.parametrize("descriptor", [
        {"gamma": 0.75, "boundary": {"family": "zero", "params": {}}},
        {"gamma": 0.75, "boundary": {"family": "sine", "params": {"n": 3}}},
        {"gamma": 1.0, "boundary": {"family": "oscillatory", "params": {"alpha": 0.3}}},
        {"gamma": 0.4, "boundary": {"family": "cosine", "params": {"n": 2}}},
    ])
    def test_roundtrip(self, descriptor):
        system = system_from_descriptor(descriptor)
        assert system_descriptor(system) == descriptor
        rebuilt = system_from_descriptor(system_descriptor(system))
        for y in (0.2, 0.9, 2.3):
            assert rebuilt.boundary.evaluate(y) == system.boundary.evaluate(y)

    def test_table_roundtrip(self):
        b = make_table([(0.0, 0.0, None), (1.0, 0.5, 0.0), (2.0, 0.0, None)])
        rebuilt = boundary_from_descriptor(b.descriptor, SystemParams(1.0))
        for y in np.linspace(0.0, 2.0, 21):
            assert rebuilt.evaluate(float(y)) == pytest.approx(b.evaluate(float(y)), abs=1e-15)

    def test_oscillatory_requires_unit_gamma(self):
        with pytest.raises(ParameterError):
            system_from_descriptor(
                {"gamma": 0.9, "boundary": {"family": "oscillatory", "params": {"alpha": 0.3}}})

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            system_from_descriptor({"gamma": 1.0, "boundary": {"family": "spline"}})

    def test_missing_entries(self):
        with pytest.raises(ParameterError):
            system_from_descriptor({"boundary": {"family": "zero"}})
        with pytest.raises(ParameterError):
            system_from_descriptor({"gamma": 1.0})
        with pytest.raises(ParameterError):
            system_from_descriptor({"gamma": "one", "boundary": {"family": "zero"}})


def _agreement_boundaries():
    sine = make_sine(SystemParams(0.75), 2)
    return {
        "zero": make_zero(),
        "sine": sine,
        "cosine": make_cosine(SystemParams(0.4), 2),
        "oscillatory": make_oscillatory(0.3),
        "table": make_table([(0.0, 0.0, None), (0.7, 0.2, None), (1.5, -0.1, 0.3), (3.0, 0.05, None)]),
    }


@pytest.mark.parametrize("family", ["zero", "sine", "cosine", "oscillatory", "table"])
def test_scalar_path_equals_array_path_bitwise(family):
    """A float goes through math, an array through numpy; both give the same bits."""
    b = _agreement_boundaries()[family]
    # y <= 0, the sine window edge 2.5 and cosine edge 5 with their neighbours, the tails,
    # and 5e-309, where 1/y overflows and the oscillatory h is NaN on both paths
    edges = [e for w in (2.5, 5.0) for e in (np.nextafter(w, 0.0), w, np.nextafter(w, 9.0))]
    ys = np.concatenate([np.linspace(-1.0, 8.0, 3001), np.geomspace(1e-6, 1.0, 1000),
                         [0.0, -0.0, 5e-309, *edges]])
    for fn in (b.evaluate, b.derivative):
        scalars = [fn(float(y)) for y in ys]
        assert all(type(v) is float for v in scalars)
        assert np.array(scalars).tobytes() == np.asarray(fn(ys), dtype=float).tobytes()


_TABLE_NODES = [0.0, 0.7, 1.5, 3.0]
# every family; the table with some slopes given, with all given and with none
_KERNEL_BOUNDARIES = {
    **_agreement_boundaries(),
    "table given": make_table(list(zip(_TABLE_NODES, [0.0, 0.2, -0.1, 0.05],
                                       [0.4, -0.1, 0.3, 0.0]))),
    "table pchip": make_table(list(zip(_TABLE_NODES, [0.0, 0.2, -0.1, 0.05]))),
}
# the sine window edge 2.5 and cosine edge 5 with their neighbours and the tails
# beyond, 1/y overflowing below about 5.6e-309 (oscillatory h NaN), the table
# nodes with their neighbours and the cubic extrapolated past the last one
_KERNEL_POINTS = [0.0, -0.0, -1.0, 5e-309, 1e-300, 2.75, 7.0, 40.0, 1e6,
                  *(e for w in (2.5, 5.0, *_TABLE_NODES[1:])
                    for e in (math.nextafter(w, 0.0), w, math.nextafter(w, 9.0)))]


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(_KERNEL_BOUNDARIES)),
       y=st.sampled_from(_KERNEL_POINTS) | st.floats(-2.0, 12.0) | st.floats(1e-310, 1e-3))
def test_float_and_float64_take_the_bits_of_the_0d_array_path(family, y):
    b = _KERNEL_BOUNDARIES[family]
    for fn in (b.evaluate, b.derivative):
        want = fn(np.array(y))
        assert type(want) is float
        for arg in (y, np.float64(y)):
            got = fn(arg)
            assert type(got) is float and _bits(got) == _bits(want), (arg, got, want)


def test_float_calls_never_reach_numpy(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"a float call reached numpy.{name}")

    ys = [*_KERNEL_POINTS, 0.3, 1.0, 2.2, 4.1]
    args = [*ys, *(np.float64(y) for y in ys)]
    want = {name: [(b.evaluate(y), b.derivative(y)) for y in args]
            for name, b in _KERNEL_BOUNDARIES.items()}
    monkeypatch.setattr(families, "np", NoNumpy())
    for name, b in _KERNEL_BOUNDARIES.items():
        got = [(b.evaluate(y), b.derivative(y)) for y in args]
        assert [tuple(map(_bits, v)) for v in got] == [tuple(map(_bits, v)) for v in want[name]]
