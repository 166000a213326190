"""Hand-built embedding data that must fail certification in a known way."""

from fractions import Fraction

from toricurve.curve import INFINITY, CDivisor, CurvePoint, RationalFunction, principal_function
from toricurve.embed import EmbeddingData, build_embedding_data
from toricurve.fan import preset
from toricurve.intersect import XiVector, find_ample, xi_vector

F = Fraction
ONES = (F(1), F(1), F(1))


def pipeline_data(name, seed=0, torus=(1, 1, 1), method="intersection"):
    fan = preset(name)
    ample = find_ample(fan)
    xi = xi_vector(fan, ample, method=method)
    return build_embedding_data(fan, ample, xi, seed, torus)


def shared_point_data():
    """Opposite-ray divisors forced to meet at one planted point."""
    data = pipeline_data("p1p1p1", seed=4)
    z = CurvePoint(F(1000))
    bump = CDivisor.of([(z, 1)])
    tampered = data._replace(
        divisors=(data.divisors[0] + bump, data.divisors[1] + bump) + data.divisors[2:],
    )
    return tampered, z


def extra_zero_data():
    """One character multiplied by a stray linear factor."""
    data = pipeline_data("p3", seed=6)
    z = CurvePoint(F(999))
    tampered = data._replace(
        epsilon=(data.epsilon[0] * RationalFunction.of(1, {F(999): 1}),)
        + data.epsilon[1:],
    )
    return tampered, z


def symmetric_data() -> EmbeddingData:
    """Every character is even in t, so t and -t always collide."""
    fan = preset("p3")
    points = [F(2), F(3), F(4), F(5)]
    divisors = tuple(
        CDivisor.of({CurvePoint(a): 1, CurvePoint(-a): 1}) for a in points
    )
    epsilon = tuple(
        principal_function(divisors[i] + divisors[3].scale(-1)) for i in range(3)
    )
    return EmbeddingData(fan, None, XiVector((2, 2, 2, 2), "kernel"),
                         divisors, epsilon, ONES)


def doubled_point_data() -> EmbeddingData:
    """The first divisor carries a doubled point; pullbacks stop being reduced."""
    fan = preset("p3")
    divisors = (
        CDivisor.of({CurvePoint(F(1)): 2}),
        CDivisor.of({CurvePoint(F(2)): 1, CurvePoint(F(3)): 1}),
        CDivisor.of({CurvePoint(F(4)): 1, CurvePoint(F(6)): 1}),
        CDivisor.of({CurvePoint(F(7)): 1, CurvePoint(F(8)): 1}),
    )
    epsilon = tuple(
        principal_function(divisors[i] + divisors[3].scale(-1)) for i in range(3)
    )
    return EmbeddingData(fan, None, XiVector((2, 2, 2, 2), "kernel"),
                         divisors, epsilon, ONES)


def divisor_at_infinity_data() -> EmbeddingData:
    """p3 with D_3 the point at infinity: a morphism, but no chart or file holds it."""
    fan = preset("p3")
    divisors = tuple(CDivisor.of({CurvePoint(F(a)): 1}) for a in (0, 1, 2))
    divisors += (CDivisor.of({INFINITY: 1}),)
    epsilon = tuple(
        principal_function(divisors[i] + divisors[3].scale(-1)) for i in range(3)
    )
    return EmbeddingData(fan, None, XiVector((1, 1, 1, 1), "intersection"),
                         divisors, epsilon, ONES)
