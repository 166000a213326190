"""Embedding data construction, morphism conditions and chart coordinates."""

import json
import random
from fractions import Fraction

import pytest

from negative_fixtures import divisor_at_infinity_data, pipeline_data
from oracles import transition_mismatches
from toricurve.curve import (
    CDivisor,
    CurvePoint,
    INFINITY,
    RationalFunction,
    evaluate_with_derivative,
)
from toricurve.embed import (
    BadEmbeddingFile,
    DivisorAtInfinity,
    XiMismatch,
    build_embedding_data,
    chart_maps,
    check_theorem_conditions,
    dumps_embedding,
    embedding_from_dict,
    epsilon_function,
    loads_embedding,
    pairing_matrix,
)
from toricurve.fan import Fan, preset


def test_pairing_matrix_p3(p3):
    assert pairing_matrix(p3) == [
        [1, 0, 0, -1],
        [0, 1, 0, -1],
        [0, 0, 1, -1],
    ]


def test_p3_structure_golden():
    """Unit degrees give singleton divisors and fractional-linear characters."""
    data = pipeline_data("p3", seed=5)
    assert all(d.degree == 1 and d.is_reduced for d in data.divisors)
    points = [d.entries[0][0].finite for d in data.divisors]
    assert len(set(points)) == 4
    eps0 = data.epsilon[0]
    assert eps0.constant == 1
    assert dict(eps0.factors) == {points[0]: 1, points[3]: -1}


def test_torus_scales_constants_only():
    plain = pipeline_data("p3", seed=5)
    scaled = pipeline_data("p3", seed=5, torus=(2, 1, 1))
    assert scaled.divisors == plain.divisors
    assert scaled.epsilon[0].constant == 2 * plain.epsilon[0].constant
    assert scaled.epsilon[0].factors == plain.epsilon[0].factors
    assert scaled.epsilon[1] == plain.epsilon[1]
    assert scaled.epsilon[2] == plain.epsilon[2]


def test_xi_mismatch_rejected(p3):
    from toricurve.intersect import XiVector

    with pytest.raises(XiMismatch):
        build_embedding_data(p3, None, XiVector((1, 1, 1, 2), "kernel"), 0)
    with pytest.raises(XiMismatch):
        build_embedding_data(p3, None, XiVector((0, 0, 0, 0), "kernel"), 0)
    with pytest.raises(XiMismatch, match="length does not match"):
        build_embedding_data(p3, None, XiVector((1, 1, 1), "kernel"), 0)


def test_invalid_fan_rejected():
    fan = Fan(((2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
              preset("p3").max_cones)
    from toricurve.intersect import XiVector

    with pytest.raises(ValueError):
        build_embedding_data(fan, None, XiVector((1, 1, 1, 1), "kernel"), 0)


def test_zero_torus_rejected(p3):
    from toricurve.intersect import XiVector

    with pytest.raises(ValueError):
        build_embedding_data(p3, None, XiVector((1, 1, 1, 1), "kernel"), 0,
                             torus=(0, 1, 1))


def test_epsilon_is_a_homomorphism():
    rng = random.Random(51)
    data = pipeline_data("bl-p3-point", seed=2)
    for _ in range(10):
        m1 = tuple(rng.randint(-2, 2) for _ in range(3))
        m2 = tuple(rng.randint(-2, 2) for _ in range(3))
        total = tuple(a + b for a, b in zip(m1, m2))
        assert (
            epsilon_function(data, m1) * epsilon_function(data, m2)
            == epsilon_function(data, total)
        )


def test_epsilon_divisor_matches_pairing():
    """div eps(m) must be the pairing-weighted sum of sampled divisors."""
    rng = random.Random(52)
    for name in ("p3", "p1p1p1"):
        data = pipeline_data(name, seed=3)
        a = pairing_matrix(data.fan)
        for _ in range(8):
            m = tuple(rng.randint(-2, 2) for _ in range(3))
            expected = CDivisor(())
            for rho, d in enumerate(data.divisors):
                w = sum(m[i] * a[i][rho] for i in range(3))
                if w:
                    expected = expected + d.scale(w)
            assert epsilon_function(data, m).divisor() == expected


def test_conditions_pass_on_presets():
    for name in ("p3", "p1p1p1", "bl-p3-point"):
        for seed in (0, 1):
            report = check_theorem_conditions(pipeline_data(name, seed=seed))
            assert report.passed
            assert report.disjointness_failures == ()
            assert report.divisor_failures == ()


def test_condition_one_violation_shared_point():
    """A point on both divisors of an opposite-ray pair must be reported."""
    data = pipeline_data("p1p1p1", seed=4)
    z = CurvePoint(Fraction(1000))
    bump = CDivisor.of([(z, 1)])
    tampered = data._replace(
        divisors=(data.divisors[0] + bump, data.divisors[1] + bump) + data.divisors[2:],
    )
    report = check_theorem_conditions(tampered)
    assert not report.passed
    collections = [coll for coll, _ in report.disjointness_failures]
    assert (0, 1) in collections
    witness_points = [pts for coll, pts in report.disjointness_failures if coll == (0, 1)]
    assert witness_points == [(z,)]


def test_condition_two_violation_extra_zero():
    """An extra factor smuggled into a character shows up as a divisor mismatch."""
    data = pipeline_data("p3", seed=6)
    z = Fraction(999)
    extra = RationalFunction.of(1, {z: 1})
    tampered = data._replace(epsilon=(data.epsilon[0] * extra,) + data.epsilon[1:])
    report = check_theorem_conditions(tampered)
    assert not report.passed
    assert len(report.divisor_failures) == 1
    index, diff = report.divisor_failures[0]
    assert index == 0
    # the extra zero, balanced by the pole the factor adds at infinity
    assert (CurvePoint(z), 1) in diff
    assert (INFINITY, -1) in diff


def test_chart_maps_p3_goldens():
    data = pipeline_data("p3", seed=5)
    charts = chart_maps(data)
    assert [c.cone for c in charts] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    first = charts[0]
    assert first.duals == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert first.coords == data.epsilon
    assert first.excluded == frozenset(p.finite for p in data.divisors[3].support())
    for chart in charts:  # each chart's domain leaves out the off-cone supports, all finite
        assert chart.excluded == frozenset(p.finite for rho, d in enumerate(data.divisors)
                                           if rho not in chart.cone for p in d.support())
        assert all(type(x) is Fraction for x in chart.excluded)
    last = charts[3]  # cone <e2, e3, (-1,-1,-1)>
    assert last.duals == ((-1, 1, 0), (-1, 0, 1), (-1, 0, 0))
    a0 = data.divisors[0].entries[0][0].finite
    a3 = data.divisors[3].entries[0][0].finite
    assert last.coords[2] == RationalFunction.of(1, {a3: 1, a0: -1})
    assert last.coords[2] == data.epsilon[0].inverse()


def test_charts_are_regular_everywhere():
    """No coordinate has a pole on its chart domain, including infinity."""
    for name in ("p3", "p1p1p1", "bl-p3-point"):
        data = pipeline_data(name, seed=7)
        for chart in chart_maps(data):
            probes = [CurvePoint(Fraction(n, 7)) for n in range(-8, 9)]
            probes.append(INFINITY)
            for f in chart.coords:
                assert f.order_at_infinity == 0
                for p in probes:
                    if p.finite in chart.excluded:
                        continue
                    value = evaluate_with_derivative(f, p)
                    assert isinstance(value, tuple), (name, chart.cone, p)


def test_transition_consistency():
    for name in ("p3", "p1p1p1"):
        data = pipeline_data(name, seed=8)
        charts = chart_maps(data)
        assert transition_mismatches(data, charts, 40, seed=9) == []


def test_serialization_round_trip():
    for name in ("p3", "bl-p3-point"):
        data = pipeline_data(name, seed=10)
        text = dumps_embedding(data)
        again = loads_embedding(text)
        assert again == data
        assert dumps_embedding(again) == text


def test_serialization_refuses_a_divisor_at_infinity():
    """The file format holds finite points only, so a D_rho at infinity is refused by name."""
    data = divisor_at_infinity_data()
    with pytest.raises(DivisorAtInfinity, match="D_3 holds the point at infinity") as err:
        dumps_embedding(data)
    assert err.value.ray == 3


def test_serialization_rejects_malformed():
    """Each bad document is a JSON round trip of a good one with one fault,
    refused with the message for that fault."""
    data = pipeline_data("p3", seed=11)
    doc = json.loads(dumps_embedding(data))
    with pytest.raises(BadEmbeddingFile, match="document must be an object"):
        loads_embedding("[1, 2]")
    no_torus = r"fields must be exactly .*, got \['ample', 'divisors', 'epsilon', 'fan', 'xi'\]"
    with pytest.raises(BadEmbeddingFile, match=no_torus):
        embedding_from_dict({k: v for k, v in doc.items() if k != "torus"})
    with pytest.raises(BadEmbeddingFile, match=r"fields must be exactly .*'comment'"):
        embedding_from_dict({**doc, "comment": "hi"})
    with pytest.raises(BadEmbeddingFile, match="bad rational '0.5x'"):
        embedding_from_dict({**doc, "torus": ["1", "0.5x", "1"]})
    with pytest.raises(BadEmbeddingFile, match="exactly three character functions expected"):
        embedding_from_dict({**doc, "epsilon": doc["epsilon"][:2]})
    with pytest.raises(BadEmbeddingFile) as err:
        embedding_from_dict({**doc, "xi": {**doc["xi"], "method": "auto"}})
    assert str(err.value) == "xi must be {values: 4 ints, one per ray, method: intersection|kernel}"


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _set(("xi", "values"), 5),
        _set(("xi", "values"), lambda v: v[:2]),
        _set(("xi", "values"), lambda v: v + [1]),
        _set(("xi", "values"), lambda v: {"0": v[0]}),
        _set(("xi", "method"), "magic"),
        _set(("divisors",), lambda d: d[:-1]),
        _set(("divisors",), lambda d: {str(i): x for i, x in enumerate(d)}),
        _set(("ample",), lambda a: a[:1]),
        _set(("ample",), 7),
        _set(("epsilon",), 5),
        _set(("torus",), 1),
        _set(("torus",), ["0", "1", "1"]),
        _set(("xi", "values"), lambda v: [True] * len(v)),
        _set(("ample",), lambda a: [bool(x) for x in a]),
        _set(("divisors",), lambda d: [[[p, True] for p, _ in x] for x in d]),
        _set(("epsilon",), lambda e: [
            dict(f, factors=[[r, True] for r, _ in f["factors"]]) for f in e
        ]),
        _set(("epsilon",), lambda e: [dict(f, factors=5) for f in e]),
        _set(("torus",), [1, 1, 1]),
        _set(("divisors",), lambda d: [5] + d[1:]),
        _set(("epsilon",), lambda e: e[:2]),
        _set(("epsilon",), lambda e: e + e[:1]),
    ],
    ids=[
        "xi-values-not-a-list", "xi-two-entries", "xi-five-entries", "xi-values-an-object",
        "xi-unknown-method", "one-divisor-removed", "divisors-an-object",
        "ample-one-entry", "ample-not-a-list", "epsilon-not-a-list", "torus-not-a-list",
        "torus-zero-entry",
        "xi-values-booleans", "ample-booleans", "divisor-multiplicity-true",
        "factor-exponent-true", "factors-not-a-list", "torus-entries-not-strings",
        "divisor-not-a-list", "epsilon-two-functions", "epsilon-four-functions",
    ],
)
def test_embedding_shapes_that_do_not_fit_the_fan_are_rejected(mutate):
    doc = json.loads(dumps_embedding(pipeline_data("p3", seed=11)))
    assert len(doc["fan"]["rays"]) == 4
    mutate(doc)
    with pytest.raises(BadEmbeddingFile):
        embedding_from_dict(doc)


def test_embedding_shapes_that_fit_load_without_a_degree_check():
    doc = json.loads(dumps_embedding(pipeline_data("p3", seed=11)))
    doc["ample"] = None
    doc["xi"] = {"values": [2, 2, 2, 2], "method": "kernel"}  # divisors have degree 1
    data = embedding_from_dict(doc)
    assert data.ample is None and data.xi.values == (2, 2, 2, 2)
