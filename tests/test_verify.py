"""Chart certification: collision finding, tangency finding, pullback audit."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
import sympy
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import PolyElement, ring

from conftest import ladder_fan
from negative_fixtures import divisor_at_infinity_data, doubled_point_data, symmetric_data
from oracles import (
    brute_force_pair_scan,
    congruence_collision_qq,
    gcd_by_ring,
    infinity_collision_poly,
    residuals_qq,
    resultant_by_prs,
    roots_and_factors_by_filter,
)
from test_replay_golden import GOLDEN, INVOLUTIONS, involution_data
from toricurve.certificate import dumps_certificate
from toricurve.curve import (
    INFINITY,
    CDivisor,
    CurvePoint,
    RationalFunction,
    evaluate_with_derivative,
)
from toricurve import embed
from toricurve.embed import (
    ChartMap,
    DivisorAtInfinity,
    build_embedding_data,
    chart_maps,
    check_theorem_conditions,
    dumps_embedding,
    epsilon_function,
)
from toricurve.fan import preset, save_fan
from toricurve.intersect import XiVector, find_ample, xi_vector
from toricurve import poly, verify
from toricurve.verify import (
    DegreeOverflow,
    certify,
    chart_immersive,
    chart_injective,
    pullback_check,
)

F = Fraction
IDENTITY_DUALS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def rf(factors, constant=1):
    return RationalFunction.of(F(constant), {F(r): e for r, e in factors.items()})


def chart(coords, excluded=()):
    return ChartMap((0, 1, 2), IDENTITY_DUALS, tuple(coords), frozenset(map(F, excluded)))


def kinds(witnesses):
    return tuple(w["kind"] for w in witnesses)


def value_at(f, point):
    got = evaluate_with_derivative(f, point)
    assert isinstance(got, tuple)
    return got[0]


def test_power_basis_chart_is_injective_and_immersive():
    c = chart((rf({0: 1}), rf({0: 2}), rf({0: 3})))
    inj = chart_injective(c)
    assert inj.ok and inj.method == "resultant" and inj.witnesses == ()
    imm = chart_immersive(c)
    assert imm.ok and imm.method == "derivative-gcd" and imm.witnesses == ()


def test_even_coordinates_yield_a_verified_collision_pair():
    coords = (rf({0: 2}), rf({0: 4}), rf({0: 6}))
    inj = chart_injective(chart(coords))
    assert not inj.ok
    assert inj.method == "factor"
    assert inj.witnesses == (
        {"kind": "collision-pair", "s": "-1", "u": "1", "verified": "evaluation"},
    )
    # the witness must survive direct evaluation
    for f in coords:
        assert value_at(f, CurvePoint(F(-1))) == value_at(f, CurvePoint(F(1)))


def test_cusp_shows_up_as_a_tangent_point_until_excluded():
    coords = (rf({0: 2}), rf({0: 3}), rf({0: 5}))
    inj = chart_injective(chart(coords))
    assert inj.ok and inj.method == "resultant"
    imm = chart_immersive(chart(coords))
    assert not imm.ok
    assert imm.witnesses == (
        {"kind": "tangent-point", "t": "0", "verified": "evaluation"},
    )
    assert chart_immersive(chart(coords, excluded=(0,))).ok


def even_tangency_coords():
    """Even coordinates whose derivatives all vanish at 0 and at infinity."""
    return (
        rf({2: 1, -2: 1, 1: -1, -1: -1}),
        rf({3: 1, -3: 1, 1: -1, -1: -1}),
        rf({2: 1, -2: 1, 3: 1, -3: 1, 1: -2, -1: -2}),
    )


def test_even_tangencies_at_zero_and_infinity_are_both_reported():
    imm = chart_immersive(chart(even_tangency_coords()))
    assert not imm.ok
    assert kinds(imm.witnesses) == ("tangent-infinity", "tangent-point")
    assert imm.witnesses[1]["t"] == "0"


def test_collision_with_the_point_at_infinity():
    f1 = rf({1: 1, 2: 1, 0: -2})
    coords = (f1, f1 ** 2, f1 ** 3)
    inj = chart_injective(chart(coords))
    assert not inj.ok
    assert inj.method == "factor"
    assert kinds(inj.witnesses) == ("collision-pair", "collision-with-infinity")
    assert inj.witnesses[0]["s"] == "1" and inj.witnesses[0]["u"] == "2"
    assert inj.witnesses[1]["u"] == "2/3"
    for f in coords:
        assert value_at(f, CurvePoint(F(2, 3))) == value_at(f, INFINITY)


def test_the_infinity_polynomials_are_the_trimmed_top_rows(monkeypatch):
    """The collisions with the point at infinity are sought among the common
    zeros of each coordinate's -h (see oracles), read off its Bezoutian's
    top row, with the leading zero a constant numerator leaves trimmed."""
    coords = (rf({1: -1, -1: -1}), rf({0: 1, 2: -1, -2: -1}), rf({3: 1, 1: -2}))
    handed = []
    real = verify._common_factor

    def spy(polys, gens, excluded_fr):
        if gens == "u":
            handed.append(polys)
        return real(polys, gens, excluded_fr)

    monkeypatch.setattr(verify, "_common_factor", spy)
    chart_injective(chart(coords, excluded=(1, -1, 2, -2)))
    assert handed == [[[-a for a in infinity_collision_poly(*f.integer_parts)] for f in coords]]
    assert handed[0][0] == [-1]


def test_conjugate_collisions_are_certified_by_congruence():
    f = rf({1: 3, 0: -3})
    inj = chart_injective(chart((f, f, f)))
    assert not inj.ok
    assert inj.method == "factor"
    assert inj.witnesses == (
        {
            "kind": "collision-conjugate",
            "s": "-1",
            "partner_poly": "7*u**2 - 4*u + 1",
            "verified": "congruence",
        },
        {
            "kind": "collision-with-infinity-conjugate",
            "poly": "3*u**2 - 3*u + 1",
            "verified": "congruence",
        },
    )
    # independent congruence re-checks of both witnesses
    u = sympy.Symbol("u")
    num, den = (u - 1) ** 3, u ** 3
    cross = sympy.expand(num * (-1) - (-8) * den)  # f(-1) = -8
    assert sympy.rem(cross, 7 * u ** 2 - 4 * u + 1, u) == 0
    assert sympy.rem(sympy.expand(num - den), 3 * u ** 2 - 3 * u + 1, u) == 0


def test_the_quick_pass_certifies_a_conjugate_partner_by_congruence():
    """f1 = t (t + 3)^2 / (t + 1)^2, f2 = t (t + 1)^2 and f1 f2 = t^2 (t + 3)^2,
    -1 excluded: the quick pass's candidates share the root u0 = 1, and the
    partners of 1 are the roots of s^2 + 3s + 4, where f1 and f2 take
    f1(1) = 4 and f2(1) = 4."""
    coords = (rf({0: 1, -3: 2, -1: -2}), rf({0: 1, -1: 2}), rf({0: 2, -3: 2}))
    inj = chart_injective(chart(coords, excluded=(-1,)))
    assert (inj.ok, inj.method) == (False, "resultant")
    assert inj.witnesses == ({"kind": "collision-conjugate", "s": "1",
                              "partner_poly": "s**2 + 3*s + 4", "verified": "congruence"},)
    Zu, u = ring("u", ZZ)
    NDs = [tuple(map(Zu.from_dense, f.integer_parts)) for f in coords]
    assert congruence_collision_qq(NDs, F(1), (u**2 + 3*u + 4).set_ring(ring("s,u", QQ)[0]))


def test_a_conjugate_common_zero_is_rechecked_against_every_polynomial(monkeypatch):
    """chart_immersive re-checks a factor of the gcd of the W_i by dividing
    every one of them, so a wrong gcd, here the first W_i alone, yields no
    witness.  f = t(t - 1)/(t + 1) has W = t^2 + 2t - 1, and f^2 has
    W = 2 t (t - 1)(t + 1) (t^2 + 2t - 1); t^2 has W = 2t."""
    f = rf({0: 1, 1: 1, -1: -1})
    shared = (f, rf({0: 2, 1: 2, -1: -2}))
    apart = (f, rf({0: 2}))
    rechecked = {"kind": "tangent-conjugate", "poly": "t**2 + 2*t - 1", "verified": "congruence"}

    def zeros(coords):
        return list(chart_immersive(chart(coords, excluded=(-1,))).witnesses)

    assert zeros(shared) == [rechecked]
    assert zeros(apart) == []
    monkeypatch.setattr(verify, "_common_factor", lambda polys, gens, excluded_fr: polys[0])
    assert zeros(shared) == [rechecked]
    assert zeros(apart) == []


@pytest.mark.parametrize("bits", [2, 3, 5])
def test_an_inconclusive_modulus_leaves_every_chart_result_unchanged(monkeypatch, bits):
    """With q = 3, 7 or 31 in place of 2^61 - 1, _coprime gives up on
    resultants that are coprime over Z, so some chart's candidates come back
    unproved; their gcd du is then constant, or its roots partnerless, and
    every chart of the three presets, seed 0, ends as it does at 2^61 - 1."""
    charts = [c for name in ("p3", "p1p1p1", "bl-p3-point")
              for c in chart_maps(seed0_data(name, 0, "intersection"))]
    want = [(chart_injective(c), chart_immersive(c)) for c in charts]
    unproved, partnered = [], []
    real_cands, real_partners = verify._candidate_polys, verify._partner_witnesses

    def cands(*args):
        got = real_cands(*args)
        if isinstance(got, list):
            unproved.append(got)
        return got

    monkeypatch.setattr(verify, "_candidate_polys", cands)
    monkeypatch.setattr(verify, "_partner_witnesses",
                        lambda *a: partnered.append(a) or real_partners(*a))
    monkeypatch.setattr(poly, "_Q_BITS", bits)
    assert [(chart_injective(c), chart_immersive(c)) for c in charts] == want
    assert len(unproved) > len(partnered)  # some du was constant


def test_groebner_saturation_reports_an_algebraic_collision():
    coords = (rf({0: 2}), rf({2: 1, 3: 1, -1: 1}), rf({0: 4}))
    inj = chart_injective(chart(coords))
    assert not inj.ok
    assert inj.method == "groebner"
    assert inj.witnesses == (
        {
            "kind": "collision-system",
            "elimination_poly": "u**2 + 1",
            "verified": "groebner-saturation",
        },
    )
    # the collision lives at t = +-i: every coordinate takes equal values there
    t = sympy.Symbol("t")
    for p in (t ** 2, (t - 2) * (t - 3) * (t + 1), t ** 4):
        assert sympy.expand(p.subs(t, sympy.I) - p.subs(t, -sympy.I)) == 0
    assert chart_immersive(chart(coords)).ok


def test_groebner_branch_clears_a_clean_chart(monkeypatch):
    # with the resultant quick pass disabled, saturation must still say no
    monkeypatch.setattr(verify, "_candidate_polys", lambda *a: None)
    inj = chart_injective(chart((rf({0: 2}), rf({0: 3}), rf({0: 5}))))
    assert inj.ok and inj.method == "groebner"


def test_a_du_whose_roots_are_all_excluded_is_never_factored(monkeypatch):
    """bl-p3-point, seed 0, chart (0, 1, 3): the gcd du of the residuals'
    resultants (sympy's PRS over Q, factored in full) has degree 6 and only
    excluded rational roots.  Stripped before the gcd, it closes the chart as
    "resultant" without a factorization of du or of anything with an
    excluded root."""
    fan = preset("bl-p3-point")
    ample = find_ample(fan)
    data = build_embedding_data(fan, ample, xi_vector(fan, ample), seed=0)
    c = next(c for c in chart_maps(data) if c.cone == (0, 1, 3))
    excluded = c.excluded
    residual = residuals_qq(c.coords)
    du = gcd_by_ring([resultant_by_prs(f, g) for i, f in enumerate(residual)
                      for g in residual[i + 1:]])
    roots, higher = roots_and_factors_by_filter(du, set())
    assert du.degree() == 6 and roots and set(roots) <= excluded and not higher

    factored = []
    real = verify._factor  # only verify calls _factor, so the spy watches verify
    monkeypatch.setattr(verify, "_factor", lambda p: factored.append(p) or real(p))
    result = chart_injective(c)
    assert (result.ok, result.method) == (True, "resultant")
    for p in factored:
        if isinstance(p[0], list):  # rows in Z[s, u]: only a factor in one variable is checked
            if len(p) == 1:
                p = p[0]  # in u alone
            elif all(len(row) == 1 for row in p):
                p = [row[0] for row in p]  # in s alone
            else:
                continue
        assert not any(poly._homogeneous(p, e.numerator, e.denominator) == 0 for e in excluded)


def test_linear_root_of_an_integer_factor_is_an_exact_fraction():
    (root,), rest = poly._rational_roots([3, -2], set())
    assert type(root) is Fraction and root == F(2, 3) and rest == [1]


def test_congruence_rechecks_accept_a_non_monic_polynomial():
    # f = (t - 1)^3 / t^3 takes f(-1) = 8 at both roots of 7u^2 - 4u + 1,
    # and f(inf) = 1 at both roots of 3u^2 - 3u + 1
    f = rf({1: 3, 0: -3})
    assert verify._congruence_collision([f.integer_parts] * 3, F(-1), [7, -4, 1])
    assert not verify._congruence_collision([f.integer_parts] * 3, F(-2), [7, -4, 1])
    zu, u = sympy.polys.rings.ring("u", sympy.ZZ)
    N, D = (zu.from_dense(p) for p in f.integer_parts)
    assert not (N - D).rem(3 * u ** 2 - 3 * u + 1)  # a remainder over Z
    assert (N - 2 * D).rem(3 * u ** 2 - 3 * u + 1)
    assert poly._divides([3, -3, 1], (N - D).to_dense())
    assert not poly._divides([3, -3, 1], (N - 2 * D).to_dense())


def test_groebner_fallback_receives_the_rational_residuals(monkeypatch):
    """The basis is over Z when every input coefficient is an integer, else
    over Q, and that fixes how elimination_poly prints: the golden charts
    that reach the fallback must hand it the residuals built over Q with a
    monic gcd."""
    calls = []
    poly._sympy()  # binds poly.groebner, so the spy replaces it for good
    real = poly.groebner

    def spy(polys, gens_ring, *args, **kwargs):
        calls.append(polys)
        return real(polys, gens_ring, *args, **kwargs)

    monkeypatch.setattr(poly, "groebner", spy)
    charts = chart_maps(involution_data("bl-p3-point", "inv", "some"))[:3]
    for c in charts:
        assert chart_injective(c).method == "groebner"
    assert len(calls) == 3
    for c, polys in zip(charts, calls):
        assert polys[:3] == [r.set_ring(polys[0].ring) for r in residuals_qq(c.coords)]


# run in a fresh interpreter: any earlier test may already have built an Expr
WITNESS_PRINTING = textwrap.dedent("""
    import json, sys
    from test_replay_golden import involution_data
    from toricurve.verify import certify
    witnesses = [
        sorted({json.dumps(w, sort_keys=True)
                for r in certify(involution_data(*args)).charts for w in r.witnesses})
        for args in (("p3", "inv", "some"), ("bl-p3-point", "inv", "some"))
    ]
    loaded = sorted(m for m in sys.modules if m.startswith("sympy.combinatorics"))
    print(json.dumps({"witnesses": witnesses, "sympy.combinatorics": loaded}))
""")


def test_polynomial_witnesses_print_without_building_a_sympy_expression():
    """tangent-conjugate (over Z) and collision-system (an eliminant over Q)
    keep their pinned strings, and printing them loads none of the modules
    sympy imports the first time it builds a sum."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    done = subprocess.run([sys.executable, "-c", WITNESS_PRINTING], env=env, cwd=root,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    p3, bl = ([json.loads(w) for w in ws] for ws in report["witnesses"])
    assert {"kind": "tangent-conjugate", "poly": "t**2 - 2", "verified": "congruence"} in p3
    assert [w for w in bl if w["kind"] == "collision-system"] == [
        {"kind": "collision-system", "elimination_poly": "u**2 - 109*u/36 + 2",
         "verified": "groebner-saturation"}
    ]
    assert report["sympy.combinatorics"] == []


def run_fresh(script: str, *args) -> dict:
    """The JSON that script prints on its last line, run in a fresh
    interpreter with src and tests on the path and args in sys.argv[1:]."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, cwd=root,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# every chart of these runs is proved clean in ints, so none builds a ring
CLEAN_RUNS = textwrap.dedent("""
    import contextlib, io, json, sys
    from toricurve import cli
    out = sys.argv[1]
    runs = [["--preset", name] for name in ("p3", "p1p1p1", "bl-p3-point")]
    runs += [["--fan", f"{out}/ladder{rays}.json", "--xi-method", "kernel"] for rays in (6, 9)]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["run", *r, "--out", f"{out}/{i}"]) for i, r in enumerate(runs)]
    print(json.dumps({"codes": codes, "sympy": sorted(m for m in sys.modules if m.split(".")[0] == "sympy")}))
""")


def test_clean_runs_never_import_sympy(tmp_path):
    """run on the three presets and on the 6- and 9-ray kernel ladders,
    from importing the CLI on, leaves no sympy module loaded."""
    for rays in (6, 9):
        save_fan(ladder_fan(rays), tmp_path / f"ladder{rays}.json")
    report = run_fresh(CLEAN_RUNS, tmp_path)
    assert report == {"codes": [0] * 5, "sympy": []}


POLY_ALONE = textwrap.dedent("""
    import json, sys
    import toricurve.poly
    print(json.dumps(sorted(m for m in sys.modules
                            if m.split(".")[0] == "sympy" or m.startswith("toricurve."))))
""")


def test_poly_imports_no_other_package_module_and_no_sympy():
    """toricurve.poly, imported in a fresh interpreter, loads no other module
    of the package (no curve, embed, verify, fan or certificate) and no
    sympy module: the arithmetic stands below the chart layer."""
    assert run_fresh(POLY_ALONE) == ["toricurve.poly"]


# a finder ahead of every other that refuses sympy and its submodules
NO_SYMPY = textwrap.dedent("""
    import sys

    class NoSympy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "sympy":
                raise ModuleNotFoundError(f"no module named {name!r}", name=name)

    sys.meta_path.insert(0, NoSympy())
""")

WITHOUT_SYMPY = NO_SYMPY + textwrap.dedent("""
    import contextlib, hashlib, io, json
    from toricurve import cli
    out = sys.argv[1]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--preset", "p3", "--seed", "0", "--out", out])
    with open(f"{out}/certificate.json", "rb") as fh:
        print(json.dumps({"code": code, "certificate": hashlib.sha256(fh.read()).hexdigest()}))
""")


def test_run_on_p3_needs_no_sympy_and_writes_the_golden_certificate(tmp_path):
    report = run_fresh(WITHOUT_SYMPY, tmp_path)
    assert report == {"code": 0, "certificate": GOLDEN["run/p3/0"][1]}


COLD_VERIFY = textwrap.dedent("""
    import contextlib, io, json, sys
    from toricurve import cli
    data, out = sys.argv[1:]
    before = "sympy" in sys.modules
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--data", data, "--out", out])
    with open(f"{out}/certificate.json", encoding="utf-8") as fh:
        print(json.dumps({"before": before, "after": "sympy" in sys.modules, "text": fh.read()}))
""")


def test_a_chart_that_needs_a_ring_imports_sympy_on_the_way(tmp_path):
    """bl-p3-point's "some" inverse-involution data reaches the Groebner
    fallback: verify from a cold process imports sympy only once it runs,
    and writes the in-process bytes."""
    data = involution_data("bl-p3-point", "inv", "some")
    (tmp_path / "embedding.json").write_text(dumps_embedding(data), encoding="utf-8")
    report = run_fresh(COLD_VERIFY, tmp_path / "embedding.json", tmp_path / "out")
    assert (report["before"], report["after"]) == (False, True)
    assert report["text"] == dumps_certificate(certify(data))


# the involution goldens named in argv, certified with sympy refused
INVOLUTIONS_WITHOUT_SYMPY = NO_SYMPY + textwrap.dedent("""
    import json
    from test_replay_golden import INVOLUTIONS, _certify_digest, involution_data
    print(json.dumps({f"certify/{label}": _certify_digest(involution_data(*INVOLUTIONS[label]))
                      for label in sys.argv[1:]}))
""")


def test_refuting_involution_goldens_certify_without_sympy(monkeypatch):
    """Every involution golden whose charts never reach the Groebner
    fallback (a spy on it names the rest) certifies to its pinned bytes in
    a process that cannot import sympy: witnesses, factors and exact
    divisions all run on int lists and rows."""
    reached = set()
    poly._sympy()  # binds poly.groebner, so the spy replaces it for good
    real = poly.groebner
    label = None

    def spy(*args, **kwargs):
        reached.add(label)
        return real(*args, **kwargs)

    monkeypatch.setattr(poly, "groebner", spy)
    for label, args in INVOLUTIONS.items():
        certify(involution_data(*args))
    assert reached == {"bl-some-inv2"}
    labels = sorted(set(INVOLUTIONS) - reached)
    report = run_fresh(INVOLUTIONS_WITHOUT_SYMPY, *labels)
    assert report == {f"certify/{label}": GOLDEN[f"certify/{label}"] for label in labels}


def test_degree_cap_aborts_oversized_eliminations(monkeypatch):
    big = chart((rf({0: 400}), rf({0: 401}), rf({0: 402})))
    with pytest.raises(DegreeOverflow) as err:
        chart_injective(big)
    assert err.value.cone == (0, 1, 2)
    assert err.value.estimate == 2 * 401 * 402
    assert err.value.cap == 512
    small = chart((rf({0: 2}), rf({0: 4}), rf({0: 6})))
    monkeypatch.setattr(verify, "DEFAULT_DEGREE_CAP", 10)
    with pytest.raises(DegreeOverflow):
        chart_injective(small)


def test_a_resultant_bound_past_the_prime_table_aborts_naming_the_chart(monkeypatch):
    # resultant bounds of 2^119, 2^153 and 2^180: primes 2^127 - 1, 2^521 - 1
    c = chart((rf({101: 3, 37: -2}), rf({-113: 3, 53: -3}), rf({97: 2, -89: 2, 41: -3})),
              (37, 53, 41))
    assert chart_injective(c).method == "resultant"
    monkeypatch.setattr(verify, "_MERSENNE_EXPONENTS", (61,))
    with pytest.raises(DegreeOverflow) as err:
        chart_injective(c)
    assert err.value.cone == (0, 1, 2) and err.value.cap == 61 and err.value.estimate > 61
    assert "resultant modulus bits" in str(err.value)


def test_the_bezout_bound_of_the_groebner_stage_aborts_naming_the_chart(monkeypatch):
    """Degrees 5, 6 and 7 estimate 2 * 6 * 7 = 84 pairwise, and the residuals'
    Bezout number is 120: a cap between them lets the chart reach the
    Groebner stage, which refuses it before any basis is computed."""
    coords = (rf({-3: 2, -2: 2, 0: 1}), rf({-3: 3, 3: 3}), rf({-3: 3, -2: 3, -1: 1}))
    c = ChartMap((2, 5, 7), IDENTITY_DUALS, coords, ())
    assert chart_injective(c).method == "groebner"
    monkeypatch.setattr(verify, "DEFAULT_DEGREE_CAP", 100)
    monkeypatch.setattr(poly, "groebner", lambda *a: pytest.fail("basis computed"))
    assert verify._degree_estimate(c) == 84
    with pytest.raises(DegreeOverflow) as err:
        chart_injective(c)
    assert (err.value.cone, err.value.estimate, err.value.cap) == ((2, 5, 7), 120, 100)
    assert str(err.value) == "chart (2, 5, 7): elimination degree estimate 120 exceeds cap 100"


def test_the_collision_recheck_refuses_a_pair_that_does_not_collide():
    coords = (rf({0: 2}), rf({0: 3}))
    assert verify._collision_holds(coords, F(2), F(2))
    assert not verify._collision_holds(coords, F(1), F(-1))  # t^2 agrees there, t^3 does not
    assert not verify._collision_holds((rf({0: -1}),), F(0), F(0))  # a pole


def test_a_curve_witness_walks_the_half_integers_then_names_the_curve():
    """t^2, t^4 and t^6 collide along s + u = 0.  With the candidates 0, +-1,
    ..., +-59 excluded the walk reaches s = 1/2 and its partner -1/2; with
    every candidate excluded it names the curve itself."""
    coords = (rf({0: 2}), rf({0: 4}), rf({0: 6}))
    NDs = [f.integer_parts for f in coords]
    (factor, _), = poly._factor(poly._gcd_all([poly._bezoutian(N, D, {}) for N, D in NDs]))
    candidates = set(verify._rational_candidates())
    integers = {x for x in candidates if x.denominator == 1}
    assert verify._witness_from_curve(coords, NDs, factor, integers) == {
        "kind": "collision-pair", "s": "-1/2", "u": "1/2", "verified": "evaluation"}
    assert verify._witness_from_curve(coords, NDs, factor, candidates) == {
        "kind": "collision-curve", "poly": "s + u", "verified": "common-factor-division"}


@pytest.mark.parametrize("rays, cap, cone, estimate", [
    (7, 30, (0, 3, 4), 40),  # charts 0-2 estimate 24
    (9, 150, (0, 3, 6), 264),  # (0, 3, 4) 84 and (0, 1, 5) 72 come first
])
def test_certify_checks_every_chart_estimate_before_any_elimination(monkeypatch, rays, cap,
                                                                    cone, estimate):
    """The first chart over the cap, in chart order, stops certify before
    chart_injective runs on any chart."""
    data = seed0_data("p3", rays, "kernel")
    estimates = [verify._degree_estimate(c) for c in chart_maps(data)]
    assert estimates[0] <= cap < max(estimates)
    calls = []
    real = verify.chart_injective
    monkeypatch.setattr(verify, "chart_injective", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(verify, "DEFAULT_DEGREE_CAP", cap)
    with pytest.raises(DegreeOverflow) as err:
        certify(data)
    assert (err.value.cone, err.value.estimate, err.value.cap) == (cone, estimate, cap)
    assert not calls


def test_symmetric_construction_fails_in_every_chart():
    data = symmetric_data()
    cert = certify(data)
    assert not cert.embedded
    assert cert.pullback_ok
    for record in cert.charts:
        assert not record.injective
        assert not record.immersive
        assert record.injectivity_method == "factor"
        assert kinds(record.witnesses) == (
            "collision-pair",
            "tangent-infinity",
            "tangent-point",
        )
        assert record.witnesses[0]["s"] == "-1"
        assert record.witnesses[0]["u"] == "1"
        assert record.witnesses[2]["t"] == "0"
    assert cert.verdict_vector == tuple(
        (r.cone, False, False) for r in cert.charts
    ) + (("pullback", True),)
    # every chart really does identify t = -1 with t = 1
    for c in chart_maps(data):
        for f in c.coords:
            assert value_at(f, CurvePoint(F(-1))) == value_at(f, CurvePoint(F(1)))


def test_doubled_point_fails_only_the_pullback_audit():
    cert = certify(doubled_point_data())
    assert all(r.injective and r.immersive for r in cert.charts)
    assert not cert.pullback_ok
    assert not cert.embedded
    assert [dict(w) for w in cert.pullback_witnesses] == [
        {
            "kind": "pullback-not-reduced",
            "cone": cone,
            "ray": 0,
            "points": ["1"],
        }
        for cone in ([0, 1, 2], [0, 1, 3], [0, 2, 3])
    ]


def test_tampered_chart_coordinate_is_caught_with_the_exact_difference():
    """A smuggled or a lost zero is a pullback-mismatch with the exact
    difference, and so is a D_rho that is not reduced and not the zeros
    either; a zero at an excluded point is no zero on the chart."""
    data = build_embedding_data(preset("p3"), None, XiVector((1, 1, 1, 1), "intersection"), 3)
    charts = chart_maps(data)
    smuggled = charts[0].coords[0] * rf({17: 1})
    bad = charts[0]._replace(coords=(smuggled,) + charts[0].coords[1:])
    result = pullback_check(data, (bad,) + charts[1:])
    assert not result.ok
    assert result.witnesses == (
        {
            "kind": "pullback-mismatch",
            "cone": list(charts[0].cone),
            "ray": charts[0].cone[0],
            "difference": [["17", 1]],
        },
    )
    assert pullback_check(data, charts).ok

    first, rho = charts[0], charts[0].cone[0]
    ((zero, _),) = data.divisors[rho].entries
    (pole,) = first.excluded
    assert dict(first.coords[0].factors) == {zero.finite: 1, pole: -1}
    doubled = data._replace(divisors=tuple(
        d.scale(2) if i == rho else d for i, d in enumerate(data.divisors)))
    for d, tamper, difference in (
        (data, {zero.finite: -1}, [[str(zero), -1]]),  # the zero lost
        (data, {pole: 2}, None),  # a simple zero at the excluded point
        (doubled, {}, [[str(zero), -1]]),  # D_rho twice the zero, which is simple
    ):
        bad = first._replace(coords=(first.coords[0] * rf(tamper),) + first.coords[1:])
        result = pullback_check(d, (bad,))
        assert result.ok == (difference is None)
        if difference is not None:
            assert result.witnesses == ({"kind": "pullback-mismatch", "cone": list(first.cone),
                                         "ray": rho, "difference": difference},)


def test_certify_refuses_data_that_fails_the_morphism_conditions():
    data = symmetric_data()
    shared = CDivisor.of({CurvePoint(F(2)): 1, CurvePoint(F(3)): 1})
    broken = data._replace(divisors=(shared,) + data.divisors[1:])
    with pytest.raises(ValueError, match="nothing to certify"):
        certify(broken)


def test_certify_refuses_a_divisor_at_infinity_before_the_charts(monkeypatch):
    data = divisor_at_infinity_data()
    assert check_theorem_conditions(data).passed

    def no_charts(data):
        raise AssertionError("charts were built")

    monkeypatch.setattr(verify, "chart_maps", no_charts)
    with pytest.raises(DivisorAtInfinity, match="D_3 holds the point at infinity") as err:
        certify(data)
    assert err.value.ray == 3


def test_presets_certify_as_embedded():
    cases = [
        ("p3", XiVector((1, 1, 1, 1), "intersection")),
        ("p1p1p1", XiVector((2, 2, 2, 2, 2, 2), "kernel")),
        ("bl-p3-point", XiVector((1, 1, 1, 2, 1), "kernel")),
    ]
    for name, xi in cases:
        data = build_embedding_data(preset(name), None, xi, 0)
        cert = certify(data)
        assert cert.embedded, name
        assert cert.pullback_ok, name
        assert all(r.injective and r.immersive for r in cert.charts), name
        if name == "p3":
            assert all(r.injectivity_method == "linear" for r in cert.charts)


def test_certificates_serialize_deterministically():
    def fresh():
        data = build_embedding_data(
            preset("p3"), None, XiVector((1, 1, 1, 1), "intersection"), 0
        )
        return dumps_certificate(certify(data))

    first, second = fresh(), fresh()
    assert first == second
    doc = json.loads(first)
    assert doc["embedded"] is True
    assert [c["cone"] for c in doc["charts"]] == [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def test_torus_scaling_does_not_change_the_verdict():
    xi = XiVector((1, 1, 1, 1), "intersection")
    plain = certify(build_embedding_data(preset("p3"), None, xi, 0))
    scaled = certify(
        build_embedding_data(preset("p3"), None, xi, 0, torus=(F(2), F(-3), F(5, 7)))
    )
    assert scaled.verdict_vector == plain.verdict_vector
    assert scaled.embedded


def test_random_pair_scan_agrees_with_a_clean_certificate():
    data = build_embedding_data(preset("p3"), None, XiVector((1, 1, 1, 1), "intersection"), 0)
    charts = chart_maps(data)
    assert brute_force_pair_scan(data, charts, 50, seed=11) == []


@lru_cache(maxsize=None)
def seed0_data(fan_name, rays, method):
    """Embedding data of a preset (rays 0) or of the ladder fan with `rays`
    rays, sampled at seed 0."""
    fan = preset(fan_name) if not rays else ladder_fan(rays)
    ample = find_ample(fan)
    xi = xi_vector(fan, ample if method == "intersection" else None, method=method)
    return build_embedding_data(fan, ample, xi, 0)


def test_certify_runs_one_torus_pass_per_call(monkeypatch):
    """certify hands every chart one memo, which holds one torus pass: the
    collisions with infinity and the tangent points are sought by one
    _common_factor call in u and one in t per call, and every W_i read is
    the diagonal of a Q_i held in the memo, not of one rebuilt.  The
    refuting data's charts re-check conjugate tangents against their own
    W_i."""
    real_injective, real_diagonal = verify.chart_injective, verify._diagonal
    real_common = verify._common_factor
    for data in (seed0_data("bl-p3-point", 0, "intersection"),
                 involution_data(*INVOLUTIONS["bl-inv2"])):
        memos, diagonals, searches = [], [], []
        monkeypatch.setattr(verify, "chart_injective",
                            lambda c, memo: memos.append(memo) or real_injective(c, memo))
        monkeypatch.setattr(verify, "_diagonal",
                            lambda Q: diagonals.append(Q) or real_diagonal(Q))
        monkeypatch.setattr(verify, "_common_factor", lambda polys, gens, ex: searches.append(
            gens) or real_common(polys, gens, ex))
        cert = certify(data)
        assert len(memos) == len(cert.charts) and all(memo is memos[0] for memo in memos)
        assert (searches.count("u"), searches.count("t")) == (1, 1)
        held = {id(Q) for Q in memos[0].values()}
        assert diagonals and all(id(Q) in held for Q in diagonals)


TORUS_FACT_DATA = {
    **{name: (lambda name=name: seed0_data(name, 0, "intersection"))
       for name in ("p3", "p1p1p1", "bl-p3-point")},
    "ladder-6-intersection": lambda: seed0_data("p3", 6, "intersection"),
    "ladder-9-kernel": lambda: seed0_data("p3", 9, "kernel"),
    **{f"involution/{label}": (lambda args=args: involution_data(*args))
       for label, args in INVOLUTIONS.items()},
}


@pytest.mark.parametrize("label", sorted(TORUS_FACT_DATA))
def test_every_chart_builds_the_torus_pass_the_first_one_builds(label):
    """certify keeps the torus pass of the first chart that asks, so every
    chart of chart_maps must give that pass: its excluded points and its
    coordinates' zeros and poles are every divisor's support, and on the
    torus the searches do not depend on the chart."""
    data = TORUS_FACT_DATA[label]()
    support = {p.finite for d in data.divisors for p, _ in d.entries}
    charts = chart_maps(data)
    first = verify._torus(charts[0], {})
    for c in charts:
        assert c.excluded | {r for f in c.coords for r, _ in f.factors} == support, c.cone
        assert verify._torus(c, {}) == first, c.cone


def test_clean_charts_close_without_a_gcd_and_with_two_resultants(monkeypatch):
    """No gcd of any kind (GCDHEU on ints or sympy's) and no third resultant
    on a chart the certificate proves clean.  verify calls _gcd_all, and so
    does poly's _common_factor, so the spy watches both modules."""
    calls = []
    for module, name in ((verify, "_gcd_all"), (poly, "_gcd_all"), (verify, "_resultant")):
        def counted(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    blp3 = seed0_data("bl-p3-point", 0, "intersection")
    for c in chart_maps(blp3) + chart_maps(seed0_data("p3", 9, "kernel")):
        calls.clear()
        assert chart_injective(c).ok and chart_immersive(c).ok
        assert "_gcd_all" not in calls, c.cone
        assert calls.count("_resultant") <= 2, c.cone
    calls.clear()
    cert = certify(blp3)
    assert cert.embedded
    assert "_gcd_all" not in calls and calls.count("_resultant") <= 2 * len(cert.charts)


def test_the_symmetric_fixture_needs_no_small_sympy_gcd_or_factorization(monkeypatch):
    """symmetric_data's witnesses come from gcds in one variable and in
    Z[s, u] and from factors of degree 1: GCDHEU on ints and the closed
    forms settle them all, to the pinned certificate bytes, with no sympy gcd
    or factor_list call below degree 3."""
    calls = []

    def degree(p):
        return max(p.degree(i) for i in range(p.ring.ngens))

    real_gcd, real_factor = PolyElement.gcd, PolyElement.factor_list
    monkeypatch.setattr(PolyElement, "gcd", lambda f, g: calls.append(
        ("gcd", max(degree(f), degree(g)))) or real_gcd(f, g))
    monkeypatch.setattr(PolyElement, "factor_list", lambda p: calls.append(
        ("factor_list", degree(p))) or real_factor(p))
    text = dumps_certificate(certify(symmetric_data()))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "57d207af4a5d2201595b69578342d77770312cb184b00a0829a6ab9bf9f308bb")
    assert not [c for c in calls if c[1] < 3], calls


# (cone, ok, method, witnesses) of chart_injective per chart, pinned from a
# version that ran sympy's gcd at every site and took all three resultants
LADDER_GOLDEN = {
    (6, "intersection"): [
        ((0, 1, 2), True, "resultant", ()), ((1, 2, 3), True, "resultant", ()),
        ((0, 2, 4), True, "resultant", ()), ((0, 3, 4), True, "resultant", ()),
        ((2, 3, 4), True, "resultant", ()), ((0, 1, 5), True, "resultant", ()),
        ((0, 3, 5), True, "resultant", ()), ((1, 3, 5), True, "resultant", ()),
    ],
    (9, "kernel"): [
        ((1, 2, 3), True, "resultant", ()), ((0, 3, 4), True, "resultant", ()),
        ((2, 3, 4), True, "resultant", ()), ((0, 1, 5), True, "resultant", ()),
        ((1, 3, 5), True, "resultant", ()), ((0, 3, 6), True, "resultant", ()),
        ((0, 5, 6), True, "resultant", ()), ((3, 5, 6), True, "resultant", ()),
        ((0, 1, 7), True, "resultant", ()), ((0, 2, 7), True, "resultant", ()),
        ((1, 2, 7), True, "resultant", ()), ((0, 2, 8), True, "resultant", ()),
        ((0, 4, 8), True, "resultant", ()), ((2, 4, 8), True, "resultant", ()),
    ],
}


@pytest.mark.parametrize("rays, method", sorted(LADDER_GOLDEN))
def test_ladder_fan_charts_keep_their_pinned_verdicts(rays, method):
    got = []
    for c in chart_maps(seed0_data("p3", rays, method)):
        r = chart_injective(c)
        got.append((c.cone, r.ok, r.method, r.witnesses))
    assert got == LADDER_GOLDEN[rays, method]


def chart_data_sets() -> dict:
    """The presets, the ladder fans of 4 to 10 rays and the refute fixtures."""
    sets = {name: seed0_data(name, 0, "intersection") for name in ("p3", "p1p1p1", "bl-p3-point")}
    sets.update((f"ladder-{rays}", seed0_data("p3", rays, "kernel")) for rays in range(4, 11))
    sets.update((label, involution_data(*args)) for label, args in INVOLUTIONS.items())
    return sets


def test_chart_coordinates_are_the_characters_of_their_dual_rows():
    """chart_maps inverts the character of m for -m; each coordinate is still
    epsilon_function's, down to its integer parts."""
    for label, data in chart_data_sets().items():
        for c in chart_maps(data):
            for m, f in zip(c.duals, c.coords):
                want = epsilon_function(data, m)
                assert f == want, (label, c.cone, m)
                assert f.integer_parts == want.integer_parts, (label, c.cone, m)


@pytest.mark.parametrize("name, classes", [("p3", 6), ("p1p1p1", 3), ("bl-p3-point", 6)])
def test_chart_maps_builds_each_character_once_up_to_sign(monkeypatch, name, classes):
    """One exponent table per call, one chi^m per +-m class, and chi^-m's N
    and D are chi^m's, swapped, not expanded again."""
    tables, calls = [], []
    real_table, real_character = embed._exponent_table, embed._character
    monkeypatch.setattr(embed, "_exponent_table",
                        lambda epsilon: tables.append(epsilon) or real_table(epsilon))
    monkeypatch.setattr(embed, "_character", lambda epsilon, table, m: calls.append(m) or
                        real_character(epsilon, table, m))
    charts = chart_maps(seed0_data(name, 0, "intersection"))
    duals = {m for c in charts for m in c.duals}
    assert len(tables) == 1
    assert len(calls) == classes == len({max(m, tuple(-k for k in m)) for m in duals})
    coords = {m: f for c in charts for m, f in zip(c.duals, c.coords)}
    for m in calls:
        N, D = coords[m].integer_parts
        inverse = coords[tuple(-k for k in m)].integer_parts
        assert inverse[0] is D and inverse[1] is N


def test_the_certify_memo_does_not_outlive_the_call(monkeypatch):
    """Certifying the same data again, with the prime table cut to 2^61 - 1,
    raises the DegreeOverflow a first call raises: nothing the first call
    computed with the full table is read back."""
    data = seed0_data("bl-p3-point", 0, "intersection")
    assert certify(data).embedded
    monkeypatch.setattr(verify, "_MERSENNE_EXPONENTS", (61,))
    with pytest.raises(DegreeOverflow) as err:
        certify(data)
    assert (err.value.cone, err.value.estimate, err.value.cap) == ((0, 1, 3), 125, 61)
    assert "resultant modulus bits" in str(err.value)


def test_the_torus_pass_does_not_outlive_the_call():
    """Each certify call builds its own torus pass: certified after a clean
    curve, a refuting one still gets its pinned bytes, its collisions with
    infinity and its tangents included, and the clean one, certified after
    it, stays clean."""
    clean = seed0_data("bl-p3-point", 0, "intersection")
    assert certify(clean).embedded
    text = dumps_certificate(certify(involution_data(*INVOLUTIONS["bl-inv2"])))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["certify/bl-inv2"]
    assert certify(clean).embedded
