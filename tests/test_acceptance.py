"""End-to-end acceptance gate: one test per advertised guarantee.

Each test prints its verdict as "ACCEPTANCE n (label): PASS|FAIL" in the
terminal summary, then asserts.  All comparisons are exact.
"""

import random
import time
from fractions import Fraction

from conftest import ACCEPTANCE_LINES, run_main
from negative_fixtures import (
    doubled_point_data,
    extra_zero_data,
    pipeline_data,
    shared_point_data,
    symmetric_data,
)
from oracles import ChowOracle, brute_force_pair_scan, transition_mismatches
from toricurve.curve import INFINITY, CurvePoint, evaluate_with_derivative
from toricurve.embed import build_embedding_data, chart_maps, check_theorem_conditions
from toricurve.fan import preset, star_subdivision, validate
from toricurve.intersect import TDivisor, XiVector, find_ample, triple_product, xi_vector
from toricurve.verify import certify

F = Fraction
PRESETS = ("p3", "p1p1p1", "bl-p3-point")


def record(number, label, body):
    try:
        body()
    except BaseException:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} ({label}): PASS")


def in_ray_kernel(fan, values):
    return all(
        sum(v * ray[c] for v, ray in zip(values, fan.rays)) == 0 for c in range(3)
    )


def test_acceptance_1_positive_degree_vectors():
    def body():
        start = time.perf_counter()
        fans = [preset(name) for name in PRESETS]
        for seed in range(5):
            rng = random.Random(100 + seed)
            fan = preset("p3")
            for _ in range(seed % 3 + 1):
                fan = star_subdivision(fan, rng.choice(fan.max_cones))
            fans.append(fan)
        for fan in fans:
            ample = find_ample(fan)
            for xi in (xi_vector(fan, ample), xi_vector(fan, None, method="kernel")):
                assert all(isinstance(v, int) and v > 0 for v in xi.values)
                assert in_ray_kernel(fan, xi.values)
        assert time.perf_counter() - start < 1.0

    record(1, "positive degree vectors on presets and subdivisions", body)


def test_acceptance_2_golden_intersection_numbers():
    def body():
        cases = [
            ("p3", (0, 1, 0, 0), (1, 1, 1, 1)),
            ("p1p1p1", (1, 1, 1, 1, 1, 1), (8, 8, 8, 8, 8, 8)),
            ("bl-p3-point", (0, 0, 0, 2, -1), (3, 3, 3, 4, 1)),
        ]
        for name, coeffs, frozen in cases:
            fan = preset(name)
            assert xi_vector(fan, TDivisor(coeffs)).values == frozen
            oracle = ChowOracle(fan.rays, fan.max_cones)
            assert oracle.degree_vector(coeffs) == frozen
        blowup = preset("bl-p3-point")
        exceptional = TDivisor((0, 0, 0, 0, 1))
        assert triple_product(blowup, exceptional, exceptional, exceptional) == 1
        oracle = ChowOracle(blowup.rays, blowup.max_cones)
        assert oracle.triple_product(*[exceptional.coeffs] * 3) == 1

    record(2, "golden intersection numbers match the quotient-ring oracle", body)


def test_acceptance_3_morphism_conditions():
    def body():
        for name in PRESETS:
            for seed in (0, 1, 2):
                assert check_theorem_conditions(pipeline_data(name, seed)).passed
        tampered, z = shared_point_data()
        report = check_theorem_conditions(tampered)
        assert not report.passed
        assert ((0, 1), (z,)) in report.disjointness_failures
        tampered, z = extra_zero_data()
        report = check_theorem_conditions(tampered)
        assert not report.passed
        index, diff = report.divisor_failures[0]
        assert index == 0
        assert (z, 1) in diff and (INFINITY, -1) in diff

    record(3, "morphism conditions pass; violations carry witnesses", body)


def test_acceptance_4_sixty_certified_runs(tmp_path):
    def body():
        start = time.perf_counter()
        total_retries = 0
        for name in PRESETS:
            for seed in range(20):
                out = str(tmp_path / f"{name}-{seed}")
                code, report = run_main(
                    ["run", "--preset", name, "--seed", str(seed), "--out", out]
                )
                assert code == 0, (name, seed, report.get("error"))
                total_retries += report["retries"]
        assert total_retries <= 3
        assert time.perf_counter() - start < 60.0

    record(4, "sixty pipeline runs certify with at most three retries", body)


def test_acceptance_5_negative_controls():
    def body():
        data = symmetric_data()
        cert = certify(data)
        assert not cert.embedded
        for chart_record in cert.charts:
            pairs = [w for w in chart_record.witnesses if w["kind"] == "collision-pair"]
            assert pairs, chart_record.cone
            for w in pairs:
                s, u = F(w["s"]), F(w["u"])
                assert s != 0 and u == -s
        # the witness pair must survive direct evaluation in every chart
        minus, plus = CurvePoint(F(-1)), CurvePoint(F(1))
        for chart in chart_maps(data):
            for f in chart.coords:
                left = evaluate_with_derivative(f, minus)
                right = evaluate_with_derivative(f, plus)
                assert left[0] == right[0]
        cert = certify(doubled_point_data())
        assert not cert.embedded
        assert not cert.pullback_ok
        assert {w["kind"] for w in cert.pullback_witnesses} == {"pullback-not-reduced"}
        assert all(w["points"] == ["1"] for w in cert.pullback_witnesses)

    record(5, "negative controls fail with verified witnesses", body)


def test_acceptance_6_scan_and_gluing_consistency():
    def body():
        for name in PRESETS:
            data = pipeline_data(name, seed=0)
            assert certify(data).embedded
            charts = chart_maps(data)
            assert brute_force_pair_scan(data, charts, 1000, seed=2024) == []
            assert transition_mismatches(data, charts, 100, seed=2025) == []

    record(6, "random pair scans and chart gluing find no inconsistency", body)


def test_acceptance_7_euler_counts_to_twelve_rays():
    def body():
        for name in PRESETS:
            for chain in range(3):
                rng = random.Random(1000 + chain)
                fan = preset(name)
                while True:
                    check = validate(fan)
                    assert check.ok
                    n = fan.n_rays
                    assert tuple(check.counts) == (n, 3 * n - 6, 2 * n - 4)
                    if n >= 12:
                        break
                    fan = star_subdivision(fan, rng.choice(fan.max_cones))

    record(7, "Euler counts hold along subdivision chains to twelve rays", body)


def test_acceptance_8_torus_invariance():
    def body():
        fan = preset("p3")
        xi = XiVector((1, 1, 1, 1), "intersection")
        base = certify(build_embedding_data(fan, None, xi, 0))
        rng = random.Random(8)

        def draw():
            return F(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))

        for _ in range(5):
            torus = (draw(), draw(), draw())
            cert = certify(build_embedding_data(fan, None, xi, 0, torus))
            assert cert.embedded
            assert cert.verdict_vector == base.verdict_vector

    record(8, "torus scaling leaves the verdict vector unchanged", body)
