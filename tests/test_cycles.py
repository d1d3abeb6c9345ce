import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import sine_table_samples
from pwlcycles import (
    Boundary,
    DomainError,
    HypothesisError,
    IntegrationError,
    PWLSystem,
    StabilityClass,
    SystemParams,
    classify,
    find_limit_cycles,
    find_roots,
    make_cosine,
    make_oscillatory,
    make_sine,
    make_table,
    make_zero,
    oscillatory_root,
    oracle,
    reports_for_roots,
    verify,
)
from pwlcycles import cycles
from pwlcycles.cli import main
from pwlcycles.cycles import CYCLE_CSV_HEADER, DEFAULT_SCAN_POINTS, displacement_rows


class TestFindRoots:
    def test_sine_roots(self, params075):
        b = make_sine(params075, 3)
        scan = find_roots(b, 0.1, 5.0)
        assert not scan.continuum
        assert len(scan.roots) == 3
        for r, k in zip(scan.roots, (1, 2, 3)):
            assert abs(r - k) < 1e-10

    def test_cosine_tangential_roots(self):
        params = SystemParams(0.4)
        b = make_cosine(params, 2)
        scan = find_roots(b, 0.1, 6.0)
        assert len(scan.roots) == 2
        for r, k in zip(scan.roots, (2.0, 4.0)):
            assert abs(r - k) < 1e-6

    def test_exact_zero_sample_at_a_touch_is_pinned(self):
        # 1 - cos(pi y) rounds to 0 within about 1e-8 of y = 4, and the scan
        # has a sample 1.06e-9 from it
        b = make_cosine(SystemParams(0.3951812281808069), 4)
        y_min, y_max = 0.7283683235165715, 8.679307024314046
        ys = np.linspace(y_min, y_max, DEFAULT_SCAN_POINTS)
        assert np.any(np.asarray(b.evaluate(ys))[np.abs(ys - 4.0) < 1e-8] == 0.0)
        scan = find_roots(b, y_min, y_max)
        assert len(scan.roots) == 4
        for r, k in zip(scan.roots, (2.0, 4.0, 6.0, 8.0)):
            assert abs(r - k) <= 1e-10

    @pytest.mark.parametrize("family, y_min, y_max, roots", [
        ("sine", 0.1, 4.0, ["0x1.000000001f352p+0", "0x1.000000000f9a9p+1"]),
        ("cosine", 0.1, 5.5, ["0x1.000000000733ap+1", "0x1.000000000acd8p+2"]),
        ("cosine4", 0.7283683235165715, 8.679307024314046,
         ["0x1.fffffffff62a4p+0", "0x1.0000000001ddbp+2", "0x1.800000000630fp+2",
          "0x1.fffffffffa9bfp+2"]),
        ("oscillatory", 0.05, 1.0,
         ["0x1.b2995e77b4482p-5", "0x1.04c26be23e23ep-4", "0x1.45f306ddbaa87p-4",
          "0x1.b2995e7bce235p-4", "0x1.45f306dbfa8c8p-3", "0x1.45f306dd01034p-2"]),
        ("table", 0.1, 2.4, ["0x1.ffffffffd663cp-1", "0x1.fffffffff4cc2p+0"]),
    ])
    def test_roots_keep_their_bits(self, family, y_min, y_max, roots):
        # the roots the scan found when it tested its tangential candidates one by one
        b = {"sine": lambda: make_sine(SystemParams(0.75), 2),
             "cosine": lambda: make_cosine(SystemParams(0.3), 2),
             "cosine4": lambda: make_cosine(SystemParams(0.3951812281808069), 4),
             "oscillatory": lambda: make_oscillatory(0.3),
             "table": lambda: make_table(sine_table_samples(0.75, 2))}[family]()
        assert [r.hex() for r in find_roots(b, y_min, y_max).roots] == roots

    def test_flat_tail_refines_no_candidate(self, monkeypatch):
        # beyond 2.5 the sine n=2 is constant, so every tail sample is a local
        # minimum of |h|; none comes near 0, and none is refined.  The cosine's
        # touches at 2 and 4 are.
        calls = []
        refine = cycles._refine_tangential
        monkeypatch.setattr(cycles, "_refine_tangential",
                            lambda *a: calls.append(a[1:3]) or refine(*a))
        find_roots(make_sine(SystemParams(0.75), 2), 0.1, 4.0)
        assert calls == []
        find_roots(make_cosine(SystemParams(0.3), 2), 0.1, 5.5)
        assert calls and all(a < 2.0 < b or a < 4.0 < b for a, b in calls)

    def test_zero_boundary_is_continuum(self):
        scan = find_roots(make_zero(), 0.1, 3.0)
        assert scan.continuum and scan.roots == ()

    def test_near_tangency_not_a_root(self, params075):
        # a parabola lifted off zero must not be reported
        b = Boundary(
            evaluate=lambda y: 1e-3 + (np.asarray(y, dtype=float) - 1.0) ** 2,
            derivative=lambda y: 2.0 * (np.asarray(y, dtype=float) - 1.0),
        )
        assert find_roots(b, 0.5, 1.5).roots == ()

    def test_domain_validation(self, params075):
        b = make_sine(params075, 1)
        with pytest.raises(DomainError):
            find_roots(b, 0.0, 2.0)
        with pytest.raises(DomainError):
            find_roots(b, 1.0, 0.5)


class TestClassify:
    def test_hyperbolic_shortcut(self, params075):
        b = make_sine(params075, 2)
        assert classify(b, 2.0) is StabilityClass.STABLE
        assert classify(b, 1.0) is StabilityClass.UNSTABLE

    def test_cosine_is_outer_stable(self):
        params = SystemParams(0.4)
        b = make_cosine(params, 1)
        assert classify(b, 2.0) is StabilityClass.SEMI_STABLE_OUTER_STABLE

    def test_inner_stable_case(self):
        # negative tangential touch: h < 0 on both sides of the zero
        b = Boundary(
            evaluate=lambda y: -np.asarray(y, dtype=float) * (np.asarray(y, dtype=float) - 1.0) ** 2,
            derivative=lambda y: -(np.asarray(y, dtype=float) - 1.0)
            * (3.0 * np.asarray(y, dtype=float) - 1.0),
        )
        assert classify(b, 1.0) is StabilityClass.SEMI_STABLE_INNER_STABLE

    def test_flat_zero_is_undetermined(self):
        b = Boundary(
            evaluate=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            derivative=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        )
        assert classify(b, 1.0) is StabilityClass.UNDETERMINED

    def test_domain_validation(self, params075):
        with pytest.raises(DomainError):
            classify(make_sine(params075, 1), 0.0)


class TestFindLimitCycles:
    def test_sine_counts_and_classes(self, sine_system):
        result = find_limit_cycles(sine_system, 0.1, 4.0)
        assert not result.continuum
        assert result.origin == "stable focus"
        assert [c.stability for c in result.cycles] == [
            StabilityClass.UNSTABLE, StabilityClass.STABLE]
        assert [round(c.y_star) for c in result.cycles] == [1, 2]

    def test_nesting_and_crossing_symmetry(self, sine_system):
        result = find_limit_cycles(sine_system, 0.1, 4.0)
        uppers = [c.upper_crossing.y for c in result.cycles]
        lowers = [c.lower_crossing.y for c in result.cycles]
        assert uppers == sorted(uppers)
        assert lowers == sorted(lowers, reverse=True)
        ratio = -math.exp(-sine_system.gamma * math.pi)
        for c in result.cycles:
            assert c.lower_crossing.y / c.upper_crossing.y == pytest.approx(ratio, abs=1e-15)
            assert c.upper_crossing.x == 0.0 and c.lower_crossing.x == 0.0
            assert c.period == 2.0 * math.pi

    def test_hyperbolicity_link(self, sine_system, cosine_system):
        for system, hi in ((sine_system, 4.0), (cosine_system, 6.0)):
            for c in find_limit_cycles(system, 0.1, hi).cycles:
                assert c.hyperbolic == (abs(c.h_prime) > 1e-8)
                if c.hyperbolic:
                    assert math.copysign(1.0, c.f3) == math.copysign(1.0, c.h_prime)
                else:
                    # slope at a refined tangential root is ~1e-12, cubed
                    assert abs(c.f3) < 1e-30

    def test_zero_boundary_continuum(self, zero_system):
        result = find_limit_cycles(zero_system, 0.1, 3.0)
        assert result.continuum
        assert result.cycles == []
        assert result.origin == "center"

    def test_narrow_range_around_a_simple_zero_is_no_continuum(self, sine_system):
        # every scan sample of h lies within DEFAULT_ROOT_TOL of 0 here, yet h is not
        # identically 0: the README sine's zero y* = 1 is the range's one cycle, and
        # verify checks it
        lo, hi = 0.99999999995, 1.00000000005
        assert np.all(np.abs(sine_system.boundary.evaluate(np.linspace(lo, hi, 5))) < 1e-10)
        result = find_limit_cycles(sine_system, lo, hi)
        assert not result.continuum
        assert [abs(c.y_star - 1.0) <= 1e-10 for c in result.cycles] == [True]
        report = verify(sine_system, result.cycles, np.linspace(lo, hi, 5), 1e-4, 1e-6)
        assert report["passed"] and [c["oracle"] for c in report["cycles"]] == ["unstable"]

    def test_hypothesis_refusal_with_report(self):
        gamma = 0.75
        b = Boundary(
            evaluate=lambda y: 2.0 * np.asarray(y, dtype=float) / gamma,
            derivative=lambda y: np.full_like(np.asarray(y, dtype=float), 2.0 / gamma),
        )
        system = PWLSystem(SystemParams(gamma), b)
        with pytest.raises(HypothesisError) as err:
            find_limit_cycles(system, 0.1, 2.0)
        assert err.value.report is not None
        assert not err.value.report.passed
        # explicit override skips certification; no zeros of h on the range
        result = find_limit_cycles(system, 0.1, 2.0, certify=False)
        assert result.cycles == []

    def test_certificate_attached_on_success(self, sine_system):
        result = find_limit_cycles(sine_system, 0.1, 4.0)
        assert result.hypothesis_report is not None
        assert result.hypothesis_report.passed


class TestOscillatoryPath:
    def test_exact_roots_and_alternation(self, oscillatory_system):
        roots = [oscillatory_root(k) for k in range(1, 6)]
        reports = reports_for_roots(oscillatory_system, roots)
        assert [c.y_star for c in reports] == sorted(roots)
        for c in reports:
            k = round(1.0 / (c.y_star * math.pi))
            expected = StabilityClass.STABLE if k % 2 == 1 else StabilityClass.UNSTABLE
            assert c.stability is expected
            assert c.lower_crossing.y == pytest.approx(-math.exp(-math.pi) / (k * math.pi),
                                                       rel=1e-14)
        uppers = [c.upper_crossing.y for c in reports]
        assert uppers == sorted(uppers)


class TestSerialization:
    def test_csv_row_matches_header(self, sine_system):
        c = find_limit_cycles(sine_system, 0.1, 4.0).cycles[0]
        row = c.csv_row()
        assert len(row) == len(CYCLE_CSV_HEADER)
        assert row[3] == "unstable"

    def test_json_roundtrips_through_dumps(self, sine_system):
        result = find_limit_cycles(sine_system, 0.1, 4.0)
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["continuum"] is False
        assert len(payload["cycles"]) == 2
        for key in ("y_star", "upper_crossing", "lower_crossing", "period",
                    "stability", "h_prime", "f3", "hyperbolic"):
            assert key in payload["cycles"][0]


class TestVerify:
    """``verify``: each planted oracle fault yields exactly its own discrepancy kind."""

    TOL = 1e-6
    YS = np.linspace(0.1, 4.0, 5)

    def _report(self, system):
        cycles = find_limit_cycles(system, 0.1, 4.0).cycles
        return verify(system, cycles, self.YS, step=1e-4, tol=self.TOL)

    @pytest.mark.parametrize("kind, changes", [
        ("fixed_point", lambda rm: {"y_out": rm.y_out + 10 * TestVerify.TOL}),
        ("flight_time", lambda rm: {"flight_time": rm.flight_time + 10 * TestVerify.TOL}),
        ("sigma_crossings", lambda rm: {"sigma_crossings": 2}),
    ])
    def test_return_map_fault_gives_its_own_kind(self, sine_system, monkeypatch, kind, changes):
        turn = oracle.return_map

        def faulty(system, y_in, *args, **kwargs):
            # verify asks in one call for the turns of all n cycles from their lower
            # crossings, and for no other turn; all n are faulty
            return [dataclasses.replace(rm, **changes(rm))
                    for rm in turn(system, y_in, *args, **kwargs)]

        monkeypatch.setattr(oracle, "return_map", faulty)
        report = self._report(sine_system)
        assert report["passed"] is False
        assert [d["kind"] for d in report["discrepancies"]] == [kind, kind]

    def test_stability_fault_gives_its_own_kind(self, sine_system, monkeypatch):
        # verify's stability comes from resolve_stability's verdict rule; no side gets a verdict
        monkeypatch.setattr(oracle, "_verdict", lambda side, f, bar: (None, 0.0))
        report = self._report(sine_system)
        assert report["passed"] is False
        assert [d["kind"] for d in report["discrepancies"]] == ["stability", "stability"]
        assert {d["oracle"] for d in report["discrepancies"]} == {"undetermined"}

    def test_runs_three_oracle_batches(self, sine_system, monkeypatch):
        # the README sine's two cycles: the turns from their two lower crossings run as one
        # counted batch per zone, and the two legs of their four probes and of the scan's
        # five ordinates as one uncounted forward-left batch (a backward-right leg runs as
        # its mirror image); no backward-right plan is built
        batches, stops, lefts, plans, plan = [], oracle._stops, oracle._lefts, [], oracle._plan

        def recording(system, zone, direction, starts, step, counted, stride=0):
            batches.append((zone, direction, counted, len(starts), step))
            return stops(system, zone, direction, starts, step, counted, stride)

        def recording_lefts(system, starts, step):
            batches.append(("lefts", len(starts), step))
            return lefts(system, starts, step)

        monkeypatch.setattr(oracle, "_stops", recording)
        monkeypatch.setattr(oracle, "_lefts", recording_lefts)
        monkeypatch.setattr(oracle, "_plan", lambda params, zone, forward, *rest:
                            plans.append((zone, forward)) or plan(params, zone, forward, *rest))
        assert self._report(sine_system)["passed"]
        left, right = oracle.Zone.LEFT, oracle.Zone.RIGHT
        forward = oracle.Direction.FORWARD
        assert [batch[:-1] for batch in batches] == [
            (right, forward, True, 2), (left, forward, True, 2), ("lefts", 2 * (2 * 2 + 5))]
        assert {batch[-1] for batch in batches} == {1e-4}
        assert set(plans) == {(right, True), (left, True)}

    def test_displacement_fault_gives_its_own_kind(self, sine_system, monkeypatch):
        # verify reads the oracle's f on the scan after the cycles' verdicts
        sides = oracle._side_verdicts

        def faulty(system, cycles, step, ys=()):
            out = sides(system, cycles, step, ys)
            return out[:len(cycles)] + [f + 10 * self.TOL for f in out[len(cycles):]]

        monkeypatch.setattr(oracle, "_side_verdicts", faulty)
        report = self._report(sine_system)
        assert report["passed"] is False
        assert report["discrepancies"] == [
            {"kind": "displacement", "max_abs_diff": report["displacement_max_abs_diff"]}]
        assert report["displacement_max_abs_diff"] > 9 * self.TOL

    def test_displacement_rows_raise_the_first_failure(self, sine_system, monkeypatch):
        # as one y after the other would: y = 1 lands, so y = -1 fails the analytic check
        with pytest.raises(DomainError, match="positive"):
            displacement_rows(sine_system, [1.0, -1.0], 1e-3)
        # with legs that time out, the oracle at y = 1 fails first
        monkeypatch.setattr(oracle, "MAX_TIME", 1.0)
        with pytest.raises(IntegrationError, match="y=1.0"):
            displacement_rows(sine_system, [1.0, -1.0], 1e-3)

    def test_report_is_the_cli_verify_file(self, sine_system, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--gamma", "0.75", "--family", "sine", "--n", "2",
                     "--range", "0.1", "4", "--out", str(out)]) == 0
        cycles = find_limit_cycles(sine_system, 0.1, 4.0, certify=False).cycles
        report = verify(sine_system, cycles, np.linspace(0.1, 4.0, 40), step=1e-4, tol=1e-6)
        assert json.dumps(report, indent=2) + "\n" == out.read_text(encoding="utf-8")
