"""
The full pipeline: sample an embedding of the line, check the morphism
conditions, certify closed immersion chart by chart, replay it bit for bit.

Run with:  python3 demos/03_embed_and_certify.py
"""

from fractions import Fraction

from toricurve.embed import (
    build_embedding_data,
    chart_maps,
    check_theorem_conditions,
    dumps_embedding,
)
from toricurve.fan import preset
from toricurve.intersect import find_ample, xi_vector
from toricurve.verify import certify, dumps_certificate


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


banner("1. Build embedding data on the blow-up of p3")
fan = preset("bl-p3-point")
ample = find_ample(fan)
xi = xi_vector(fan, ample)
print(f"ample divisor: {ample.coeffs}")
print(f"degree vector: {xi.values}  (method: {xi.method})")
data = build_embedding_data(fan, ample, xi, seed=0)
for rho, divisor in enumerate(data.divisors):
    points = sorted(divisor.support(), key=lambda p: p.sort_key())
    print(f"D({rho}): degree {divisor.degree}, points {points}")

banner("2. The morphism conditions")
report = check_theorem_conditions(data)
print(f"pass: {report.passed}")
print(f"disjointness failures: {list(report.disjointness_failures)}")
print(f"divisor failures: {list(report.divisor_failures)}")

banner("3. Charts and their coordinate functions")
for chart in chart_maps(data):
    degrees = [len([e for _, e in f.factors if e > 0]) for f in chart.coords]
    print(f"chart {chart.cone}: coordinate degrees {degrees}, "
          f"{len(chart.excluded)} excluded points")

banner("4. Certification")
certificate = certify(data)
for record in certificate.charts:
    print(f"chart {record.cone}: injective={record.injective} "
          f"immersive={record.immersive} method={record.injectivity_method}")
print(f"pullback check: {certificate.pullback_ok}")
print(f"embedded: {certificate.embedded}")

banner("5. Bit-for-bit replay")
again = build_embedding_data(fan, ample, xi, seed=0)
print(f"embedding JSON identical:   {dumps_embedding(data) == dumps_embedding(again)}")
print(f"certificate JSON identical: "
      f"{dumps_certificate(certificate) == dumps_certificate(certify(again))}")

banner("6. Scaling by a torus element moves the curve, not the verdict")
scaled = build_embedding_data(
    fan, ample, xi, seed=0, torus=(Fraction(2), Fraction(-1, 3), Fraction(7))
)
print(f"same verdict vector: "
      f"{certify(scaled).verdict_vector == certificate.verdict_vector}")
