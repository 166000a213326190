"""
Fans: presets, validation, walls, primitive collections, subdivision, and a
fan that closes every wall yet covers the sphere twice.

Run with:  python3 demos/01_fans.py
"""

from toricurve.fan import (
    Fan,
    preset,
    primitive_collections,
    star_subdivision,
    validate,
    walls,
)


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


banner("1. The three built-in fans")
for name in ("p3", "p1p1p1", "bl-p3-point"):
    fan = preset(name)
    report = validate(fan)
    rays, two_faces, cones = report.counts
    print(f"{name:12s} rays={rays:2d} 2-faces={two_faces:2d} maximal cones={cones:2d} "
          f"smooth={report.smooth} complete={report.complete}")

banner("2. Rays and maximal cones of p3")
fan = preset("p3")
for idx, ray in enumerate(fan.rays):
    print(f"ray {idx}: {ray}")
print(f"maximal cones: {fan.max_cones}")

banner("3. Walls carry the relation n_k + n_l + a*n_i + b*n_j = 0")
for wall in walls(fan):
    print(f"wall ({wall.i},{wall.j}): cones {wall.cone_a} | {wall.cone_b}, "
          f"opposite rays {wall.third_a},{wall.third_b}, (a, b) = ({wall.a}, {wall.b})")

banner("4. Primitive collections (minimal non-faces)")
for name in ("p3", "p1p1p1", "bl-p3-point"):
    print(f"{name:12s} {primitive_collections(preset(name))}")

banner("5. Star subdivision grows the fan one ray at a time")
fan = preset("p3")
print(f"start: {validate(fan).counts}")
for step in range(3):
    fan = star_subdivision(fan, fan.max_cones[0])
    report = validate(fan)
    rays = report.counts[0]
    # the Euler relations pin the face counts to the ray count
    assert report.counts == (rays, 3 * rays - 6, 2 * rays - 4)
    print(f"after subdivision {step + 1}: counts={report.counts} new ray={fan.rays[-1]}")

banner("6. Subdividing p3 once at (0,1,2) is the blow-up preset")
once = star_subdivision(preset("p3"), (0, 1, 2))
blowup = preset("bl-p3-point")
print(f"rays match:  {once.rays == blowup.rays}")
print(f"cones match: {once.max_cones == blowup.max_cones}")

banner("7. Closed walls are not enough: a ring of rays winding twice")
# N and S over a ring around the z-axis whose every consecutive 2x2
# determinant is 1, so every cone is smooth and every wall has two cones on
# opposite sides; but the ring goes round twice, so a generic direction lies
# in two cones and validate falls back to the pairwise separation scan
ring = ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, 1, 0), (-2, -1, 0), (-1, -1, 0))
double_cover = Fan(
    ((0, 0, 1), (0, 0, -1)) + ring,
    tuple((pole, 2 + t, 2 + (t + 1) % 7) for t in range(7) for pole in (0, 1)),
)
report = validate(double_cover)
bad = [issue for issue in report.issues if issue[0] == "bad_cone_intersection"]
assert report.smooth and not report.complete and bad[0] == ("bad_cone_intersection", 0, 6)
print(f"smooth={report.smooth} complete={report.complete} counts={report.counts}")
print(f"{len(bad)} overlapping cone pairs, the first {bad[0][1:]}: "
      f"{double_cover.max_cones[bad[0][1]]} and {double_cover.max_cones[bad[0][2]]}")
