"""
Negative controls: constructions that must fail, and the exact witnesses
the certifier produces for each failure.

Run with:  python3 demos/04_negative_controls.py
"""

from fractions import Fraction

from toricurve.curve import CDivisor, CurvePoint, RationalFunction, principal_function
from toricurve.embed import EmbeddingData, build_embedding_data, check_theorem_conditions
from toricurve.fan import preset
from toricurve.intersect import XiVector, find_ample, xi_vector
from toricurve.verify import certify

F = Fraction


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


banner("1. Symmetric divisors: every character is even, so t and -t collide")
fan = preset("p3")
points = [F(2), F(3), F(4), F(5)]
divisors = tuple(
    CDivisor.of({CurvePoint(a): 1, CurvePoint(-a): 1}) for a in points
)
epsilon = tuple(
    principal_function(divisors[i] + divisors[3].scale(-1)) for i in range(3)
)
symmetric = EmbeddingData(
    fan, None, XiVector((2, 2, 2, 2), "kernel"), divisors, epsilon,
    (F(1), F(1), F(1)),
)
certificate = certify(symmetric)
print(f"embedded: {certificate.embedded}")
for record in certificate.charts:
    print(f"chart {record.cone}: witnesses {[w['kind'] for w in record.witnesses]}")
first = certificate.charts[0].witnesses[0]
print(f"first witness in full: {first}")

banner("2. A doubled point: ramification breaks the pullback audit")
divisors = (
    CDivisor.of({CurvePoint(F(1)): 2}),
    CDivisor.of({CurvePoint(F(2)): 1, CurvePoint(F(3)): 1}),
    CDivisor.of({CurvePoint(F(4)): 1, CurvePoint(F(6)): 1}),
    CDivisor.of({CurvePoint(F(7)): 1, CurvePoint(F(8)): 1}),
)
epsilon = tuple(
    principal_function(divisors[i] + divisors[3].scale(-1)) for i in range(3)
)
doubled = EmbeddingData(
    fan, None, XiVector((2, 2, 2, 2), "kernel"), divisors, epsilon,
    (F(1), F(1), F(1)),
)
certificate = certify(doubled)
print(f"charts all injective and immersive: "
      f"{all(r.injective and r.immersive for r in certificate.charts)}")
print(f"pullback check: {certificate.pullback_ok}")
for witness in certificate.pullback_witnesses:
    print(f"witness: {witness}")

banner("3. Tampered data never reaches certification")
# rays 0 and 1 of p1p1p1 are a primitive collection, so their divisors
# must stay disjoint; plant one shared point and watch the witness appear
cube = preset("p1p1p1")
boxy = build_embedding_data(cube, find_ample(cube), xi_vector(cube, find_ample(cube)), 0)
bump = CDivisor.of({CurvePoint(F(10)): 1})
shared = boxy._replace(divisors=(boxy.divisors[0] + bump, boxy.divisors[1] + bump)
                       + boxy.divisors[2:])
report = check_theorem_conditions(shared)
print(f"planted shared point -> pass={report.passed}, "
      f"disjointness witnesses {[f for f in report.disjointness_failures if f[0] == (0, 1)]}")
good = build_embedding_data(fan, find_ample(fan), xi_vector(fan, find_ample(fan)), 0)
stray = RationalFunction.of(1, {F(99): 1})
crooked = good._replace(epsilon=(good.epsilon[0] * stray,) + good.epsilon[1:])
report = check_theorem_conditions(crooked)
index, diff = report.divisor_failures[0]
print(f"stray character factor -> pass={report.passed}, "
      f"divisor mismatch on epsilon_{index}: {diff}")
try:
    certify(crooked)
except ValueError as exc:
    print(f"certify refuses: {exc}")

banner("4. A degree vector that is not in the ray kernel is rejected")
from toricurve.embed import XiMismatch

try:
    build_embedding_data(fan, None, XiVector((1, 1, 1, 2), "kernel"), 0)
except XiMismatch as exc:
    print(f"XiMismatch: {exc}")
