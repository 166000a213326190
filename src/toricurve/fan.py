"""Complete simplicial fans in a rank-3 lattice.

A fan is a tuple of primitive ray generators plus maximal cones given as
index triples.  Everything downstream (walls, intersection numbers, ample
search) assumes smooth and complete; validate() decides both exactly.  A
complete simplicial fan is a triangulation of the sphere (Fulton, 2.4), and
validate certifies that in linear time by one sheet count; only a fan that
fails the certificate has each pair of maximal cones separated, by the same
find_point the ample search runs.  validate, walls and the dual bases are
memoised per Fan, FAN_CACHE_SIZE entries each; a result that costs less to
build than the Fan's hash is not.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .feasibility import Infeasible, find_point
from .intlinalg import cross, dot, unimodular_inverse

Vec3 = tuple[int, int, int]

# entries in each lru_cache keyed by Fan; bounded so long runs stay flat
FAN_CACHE_SIZE = 32


class MalformedFan(ValueError):
    """Structurally invalid fan data: duplicate rays, bad indices, bad shapes."""


class NotComplete(ValueError):
    """An operation that needs a complete fan met one that is not."""


class ConeNotInFan(ValueError):
    """The requested cone is not a maximal cone of the fan."""


class UnknownPreset(ValueError):
    """No preset fan with that name."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true is no count


def _as_ray(value) -> Vec3:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise MalformedFan(f"ray must be a triple of ints, got {value!r}")
    if not all(map(_is_int, value)):
        raise MalformedFan(f"ray entries must be ints, got {value!r}")
    return (value[0], value[1], value[2])


def is_primitive(ray: Vec3) -> bool:
    return ray != (0, 0, 0) and math.gcd(*[abs(x) for x in ray]) == 1


class Fan(namedtuple("Fan", "rays max_cones name")):
    """Rays plus maximal cones (sorted index triples)."""

    __add__ = __radd__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(cls, rays: tuple[Vec3, ...], max_cones: tuple[tuple[int, int, int], ...],
                name: str = "") -> "Fan":
        rays = tuple(_as_ray(r) for r in rays)
        if len(set(rays)) != len(rays):
            raise MalformedFan("duplicate rays")
        cones = []
        for cone in max_cones:
            cone = tuple(cone) if isinstance(cone, list) else cone  # a JSON array
            if not isinstance(cone, tuple) or len(cone) != 3:
                raise MalformedFan(f"cone must be an index triple, got {cone!r}")
            if not all(map(_is_int, cone)):
                raise MalformedFan(f"cone indices must be ints, got {cone!r}")
            if any(not 0 <= i < len(rays) for i in cone):
                raise MalformedFan(f"cone index out of range: {cone!r}")
            if len(set(cone)) != 3:
                raise MalformedFan(f"cone repeats a ray: {cone!r}")
            cones.append(tuple(sorted(cone)))
        if len(set(cones)) != len(cones):
            raise MalformedFan("duplicate maximal cones")
        if not isinstance(name, str):
            raise MalformedFan("name must be a string")
        return super().__new__(cls, rays, tuple(cones), name)

    @property
    def n_rays(self) -> int:
        return len(self.rays)


def ray_matrix(fan: Fan) -> list[list[int]]:
    """3 x r rows whose columns are the ray generators: a[i][rho] = <m_i, n_rho>
    for the standard character basis m_i."""
    return [[ray[i] for ray in fan.rays] for i in range(3)]


def cone_matrix(fan: Fan, cone: tuple[int, int, int]) -> list[list[int]]:
    """3 x 3 rows whose columns are the cone's rays, in the order given."""
    return [[fan.rays[j][i] for j in cone] for i in range(3)]


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _dual_bases(fan: Fan) -> dict:
    return {}


def dual_basis(fan: Fan, cone: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
    """Rows m_t of the inverse of cone_matrix, <m_t, n_cone[s]> = delta_ts.

    Each cone is inverted on first use and memoised per Fan, so a cone that
    is not unimodular raises NotUnimodular at its first use, every time.
    """
    bases = _dual_bases(fan)
    duals = bases.get(cone)
    if duals is None:
        duals = bases[cone] = unimodular_inverse(cone_matrix(fan, cone))
    return duals


class ValidationReport(NamedTuple):
    smooth: bool
    complete: bool
    counts: tuple[int, int, int]  # rays, 2-faces, maximal cones
    issues: tuple[tuple, ...] = ()

    @property
    def ok(self) -> bool:
        return self.smooth and self.complete


def _pair_census(fan: Fan) -> dict[tuple[int, int], list[int]]:
    census: dict[tuple[int, int], list[int]] = {}
    for idx, cone in enumerate(fan.max_cones):
        i, j, k = cone
        for pair in ((i, j), (i, k), (j, k)):
            census.setdefault(pair, []).append(idx)
    return census


def _cones_intersect_in_face(fan: Fan, ca, cb) -> bool:
    """Exact test that two maximal cones meet in a common face.

    There is a linear functional m vanishing on the shared rays, positive on
    the other rays of ca and negative on the other rays of cb iff the
    intersection is the face spanned by the shared rays.  The system is
    homogeneous, so strict inequalities scale to a margin of 1.
    """
    common = set(ca) & set(cb)
    rows = []
    for idx in ca:
        ray = fan.rays[idx]
        if idx in common:
            rows.append((ray, 0))
            rows.append((tuple(-x for x in ray), 0))
        else:
            rows.append((ray, 1))
    for idx in cb:
        if idx not in common:
            rows.append((tuple(-x for x in fan.rays[idx]), 1))
    try:
        find_point(rows, 3)
    except Infeasible:
        return False
    return True


def _one_sheet(fan: Fan, census, dets) -> bool:
    """validate's certificate that every two maximal cones meet in a face:
    (b)-(d), given that every 2-face has two cones (a)."""
    cones = fan.max_cones
    for pair, owners in census.items():  # (c): det(n_i, n_j, n_k) is -det(cone) iff k is mid-cone
        sa, sb = (dets[c] if cones[c][1] in pair else -dets[c] for c in owners)
        if sa * sb >= 0:
            return False
    normals = {(i, j): cross(fan.rays[i], fan.rays[j]) for i, j in census}
    # (d) with p = (1, m, m^2), m = 2 max|entry| + 1: n . p is n in base m with digits
    # below m / 2, so it is 0 only for n = 0, which (c) refused; p is off every wall plane
    m = 2 * max(abs(x) for normal in normals.values() for x in normal) + 1
    p = (1, m, m * m)
    side = {pair: dot(normal, p) for pair, normal in normals.items()}  # det(n_i, n_j, p)
    # p is inside (x, y, z) iff putting it in place of any one ray keeps the det's sign
    return 1 == sum(d * side[y, z] > 0 and d * side[x, z] < 0 and d * side[x, y] > 0
                    for (x, y, z), d in zip(cones, dets))


@lru_cache(maxsize=FAN_CACHE_SIZE)
def validate(fan: Fan) -> ValidationReport:
    """Smoothness and completeness, with exact criteria and issue codes.

    Every two maximal cones meet in a common face when (a) each 2-face has
    two cones, (b) each cone has det != 0, (c) at each wall (i, j) with
    opposite rays k, l, det(n_i, n_j, n_k) * det(n_i, n_j, n_l) < 0, and (d)
    a probe p off every wall plane lies in the open interior of exactly one
    cone.  (c) is read off the cone determinants, so it checks (b) too.  By
    (a)-(c) the radial map from the cones' traces, a closed pseudo-surface,
    to the unit sphere is orientation-preserving and a local homeomorphism
    across every edge: a branched cover whose sheet count is the number of
    cones holding a generic point.  (d) makes that 1, so the map is a
    homeomorphism and two cones meet in the face their shared rays span.
    Only a fan failing this runs the pairwise Fourier-Motzkin scan, which
    names the bad pairs.  Memoised per Fan, so a precondition re-check
    downstream is a lookup.
    """
    issues: list[tuple] = []
    for idx, ray in enumerate(fan.rays):
        if not is_primitive(ray):
            issues.append(("non_primitive_ray", idx))
    dets = [dot(fan.rays[i], cross(fan.rays[j], fan.rays[k])) for i, j, k in fan.max_cones]
    for idx, d in enumerate(dets):
        if abs(d) != 1:
            issues.append(("cone_not_unimodular", idx))
    smooth = not issues

    census = _pair_census(fan)
    complete = bool(fan.max_cones)
    if not fan.max_cones:
        issues.append(("no_cones",))
    for pair, owners in sorted(census.items()):
        if len(owners) != 2:
            complete = False
            issues.append(("open_wall", pair, len(owners)))
    if not (complete and _one_sheet(fan, census, dets)):  # complete so far is (a)
        for a in range(len(fan.max_cones)):
            for b in range(a + 1, len(fan.max_cones)):
                if not _cones_intersect_in_face(fan, fan.max_cones[a], fan.max_cones[b]):
                    complete = False
                    issues.append(("bad_cone_intersection", a, b))
    if fan.max_cones:
        used = {idx for cone in fan.max_cones for idx in cone}
        for idx in range(fan.n_rays):
            if idx not in used:
                complete = False
                issues.append(("unused_ray", idx))
    counts = (len(fan.rays), len(census), len(fan.max_cones))
    return ValidationReport(smooth, complete, counts, tuple(issues))


class Wall(NamedTuple):
    """A 2-face <n_i, n_j> with its two adjacent maximal cones.

    The opposite rays n_k (of cone_a) and n_l (of cone_b) satisfy the exact
    relation n_k + n_l + a*n_i + b*n_j = 0; terms lists it as (ray, weight).
    """

    i: int
    j: int
    cone_a: tuple[int, int, int]
    cone_b: tuple[int, int, int]
    third_a: int
    third_b: int
    a: int
    b: int

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return ((self.third_a, 1), (self.third_b, 1), (self.i, self.a), (self.j, self.b))


@lru_cache(maxsize=FAN_CACHE_SIZE)
def walls(fan: Fan) -> tuple[Wall, ...]:
    """All 2-faces with adjacency and wall relation coefficients."""
    census = _pair_census(fan)
    out = []
    for pair, owners in sorted(census.items()):
        if len(owners) != 2:
            raise NotComplete(f"wall {pair} has {len(owners)} adjacent cones")
        i, j = pair
        ca = fan.max_cones[owners[0]]
        cb = fan.max_cones[owners[1]]
        k = next(x for x in ca if x not in pair)
        l = next(x for x in cb if x not in pair)
        ni, nj, nk, nl = (fan.rays[x] for x in (i, j, k, l))
        # coordinates of n_l in the basis (n_i, n_j, n_k) of cone_a
        duals = dual_basis(fan, ca)
        alpha, beta, gamma = (dot(duals[ca.index(rho)], nl) for rho in (i, j, k))
        if gamma != -1:
            raise MalformedFan(f"cones at wall {pair} do not lie on opposite sides")
        a, b = -alpha, -beta
        assert all(x + y + a * u + b * v == 0 for x, y, u, v in zip(nk, nl, ni, nj))
        out.append(Wall(i, j, ca, cb, k, l, a, b))
    return tuple(out)


def primitive_collections(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Minimal sets of rays that span no cone (sizes 2 to 4).

    Faces have at most 3 rays, so any 4-set is a non-face; minimality caps
    the search at size 4.  Read off the edges: non-edges, triangles of edges
    that are not cones, and 4-sets whose four triples are cones, each found
    from its lowest three as a cone plus a later neighbour of the third.
    """
    cones = frozenset(fan.max_cones)
    later: list[set[int]] = [set() for _ in fan.rays]
    for i, j in _pair_census(fan):
        later[i].add(j)
    n = fan.n_rays
    out = [(i, j) for i in range(n) for j in range(i + 1, n) if j not in later[i]]
    for i in range(n):
        for j in later[i]:
            out.extend((i, j, k) for k in later[i] & later[j] if (i, j, k) not in cones)
    for i, j, k in cones:
        out.extend((i, j, k, l) for l in later[k]
                   if (i, j, l) in cones and (i, k, l) in cones and (j, k, l) in cones)
    return tuple(sorted(out, key=lambda c: (len(c), c)))


def star_subdivision(fan: Fan, cone) -> Fan:
    """Insert the ray sum of a maximal cone and fan out its three facets."""
    target = tuple(sorted(cone))
    if len(target) != 3 or target not in fan.max_cones:
        raise ConeNotInFan(f"{cone!r} is not a maximal cone of the fan")
    i, j, k = target
    new_ray = tuple(
        fan.rays[i][t] + fan.rays[j][t] + fan.rays[k][t] for t in range(3)
    )
    new_idx = fan.n_rays
    cones = [c for c in fan.max_cones if c != target]
    cones.extend([(i, j, new_idx), (i, k, new_idx), (j, k, new_idx)])
    return Fan(fan.rays + (new_ray,), tuple(cones), fan.name)


def preset(name: str) -> Fan:
    """Built-in fans: p3, p1p1p1 and bl-p3-point."""
    if name == "p3":
        return Fan(
            rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
            max_cones=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
            name="p3",
        )
    if name == "p1p1p1":
        rays = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
        cones = tuple(
            (i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)
        )
        return Fan(rays=rays, max_cones=cones, name="p1p1p1")
    if name == "bl-p3-point":
        fan = star_subdivision(preset("p3"), (0, 1, 2))
        return Fan(fan.rays, fan.max_cones, "bl-p3-point")
    raise UnknownPreset(f"unknown preset {name!r}")


def fan_to_dict(fan: Fan) -> dict:
    return {
        "name": fan.name,
        "rays": [list(r) for r in fan.rays],
        "cones": [list(c) for c in fan.max_cones],
    }


def fan_from_dict(doc) -> Fan:
    if not isinstance(doc, dict):
        raise MalformedFan("fan document must be an object")
    required = {"name", "rays", "cones"}
    keys = set(doc)
    if keys - required:
        raise MalformedFan(f"unknown fields: {sorted(keys - required)}")
    if required - keys:
        raise MalformedFan(f"missing fields: {sorted(required - keys)}")
    if not isinstance(doc["rays"], list) or not isinstance(doc["cones"], list):
        raise MalformedFan("rays and cones must be arrays")
    return Fan(doc["rays"], doc["cones"], doc["name"])


def dumps_json(obj, sort_keys: bool = False) -> str:
    """json.dumps with an indent of 2, byte for byte, about twice as fast.

    json's C encoder skips indented output; here each list, tuple and dict is one
    join per level, exact str, int, bool and None inline.  An item that is exactly
    a list [str, int], such as a [text, multiplicity] row of a divisor, a factor
    list or a witness, is one format.  json writes the rest (a float, a subclass,
    a non-str key), re-indented: ensure_ascii escapes newlines.
    """
    def enc(x, indent: str) -> str:
        t, inner = type(x), indent + "  "
        if t is list or t is tuple:
            pad = inner + "  "
            body = [_quote(v) if type(v) is str else repr(v) if type(v) is int
                    else f"[{pad}{_quote(v[0])},{pad}{v[1]!r}{inner}]"
                    if type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is int
                    else enc(v, inner)
                    for v in x]
            return "[" + inner + ("," + inner).join(body) + indent + "]" if x else "[]"
        if t is dict and all(type(k) is str for k in x):
            body = [_quote(k) + ": " + enc(v, inner)
                    for k, v in (sorted(x.items()) if sort_keys else x.items())]
            return "{" + inner + ("," + inner).join(body) + indent + "}" if x else "{}"
        if t is str or t is int:
            return _quote(x) if t is str else repr(x)
        if t is bool or x is None:
            return "null" if x is None else "true" if x else "false"
        return json.dumps(x, indent=2, sort_keys=sort_keys).replace("\n", indent)
    return enc(obj, "\n")


def dumps_fan(fan: Fan) -> str:
    return dumps_json(fan_to_dict(fan)) + "\n"


def loads_fan(text: str) -> Fan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFan(f"not valid JSON: {exc}") from exc
    return fan_from_dict(doc)


def save_fan(fan: Fan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_fan(fan))


def load_fan(path) -> Fan:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_fan(fh.read())
