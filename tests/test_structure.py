"""The package's structural rules: one row of RULES per decision that has one home.

Each row names the invariant, gives the reason it holds and checks it over
``ast.parse`` of the files it covers, ``src/toricurve/*.py`` unless the row
says otherwise.  The checks read five queries of a parsed file: the names it
defines, what it imports and from where, its name and attribute sites, its
calls, each with the top-level statement it sits in, and its assignments
that run at import.  An AST holds no comments, and the queries read each
name through the module's imports, so a comment cannot fail a row and
``import ... as ...`` cannot get past one.  Only the sympy row also reads
text, for two bans a string could hide.

A function deleted for good goes into RETIRED, and no module may define it
again.  Every row carries one violation, a snippet appended to one file's
text or substituted into it; ``test_every_rule_catches_its_violation``
applies it in memory and asserts that the row reports it.
"""
import ast
import re
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "toricurve"
SCOPES = {
    "src": ("src/toricurve/*.py",),
    "all": ("src/toricurve/*.py", "tests/*.py", "demos/*.py"),
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFINING = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
MUTABLE = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
CONTAINERS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter", "deque",
              "ChainMap", "WeakKeyDictionary", "WeakValueDictionary"}
CACHES = {"cache", "lru_cache"}
NEWLINE = "\n"


class Site(NamedTuple):
    """One occurrence in a module: a name, dotted where it can be, the
    top-level statement it sits in (None for a bare statement), its line
    and its node."""

    name: str
    top: str | None
    line: int
    node: ast.AST


class Module:
    """One parsed file and the queries the rules read off it, each computed
    on first use.

    ``name`` is the module's name for a file of the package (``verify``) and
    its path without ``.py`` otherwise (``tests/test_curve``).
    """

    def __init__(self, path: str, text: str):
        self.path, self.text = path, text
        self.package = PACKAGE if path.startswith("src/") else ""
        self.name = Path(path).stem if self.package else path[:-3]
        self.nodes = [(node, getattr(top, "name", None), scope)
                      for top in ast.parse(text, path).body for node, scope in _walk(top)]

    def _collect(self, types, name) -> list:
        return [Site(name(node), top, node.lineno, node)
                for node, top, _ in self.nodes if isinstance(node, types)]

    @cached_property
    def imports(self) -> list:
        """(Site of the dotted target, the local name, the scope it runs in)
        for each imported name."""
        return [(Site(target, top, node.lineno, node), local, scope)
                for node, top, scope in self.nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                for local, target in (_binding(node, alias, self.package) for alias in node.names)]

    @cached_property
    def bound(self) -> dict:
        return {local: site.name for site, local, _ in self.imports}

    @cached_property
    def defines(self) -> list:
        """Each def and class at any depth, and each name assigned in the
        module body."""
        return self._collect(DEFINING, lambda node: node.name) + [
            site._replace(name=t.id) for site, scope in self.assigns if scope == "module"
            for t in getattr(site.node, "targets", [getattr(site.node, "target", None)])
            if isinstance(t, ast.Name)]

    @cached_property
    def sites(self) -> list:
        """Each name and attribute, by its dotted name."""
        return self._collect((ast.Name, ast.Attribute), self.dotted)

    @cached_property
    def calls(self) -> list:
        """Each call, by the dotted name of what it calls."""
        return self._collect(ast.Call, lambda node: self.dotted(node.func))

    @cached_property
    def assigns(self) -> list:
        """(Site, "module" or "class") for each assignment run at import."""
        return [(Site(None, top, node.lineno, node), scope) for node, top, scope in self.nodes
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and scope != "function"]

    def dotted(self, node) -> str:
        """The dotted name of a name or attribute chain, its first name read
        through this module's imports; "()" stands for any other base."""
        if isinstance(node, ast.Name):
            return self.bound.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            return f"{self.dotted(node.value)}.{node.attr}"
        return "()"

    def refs(self) -> list:
        """Every import target and every name or attribute site."""
        return [site for site, _, _ in self.imports] + self.sites

    def report(self, site: Site, what: str) -> str:
        return f"{self.path}:{site.line}: {what} (in {site.top or 'the module body'})"


def _walk(top):
    """Each node under a top-level statement, with the scope it runs in:
    "module" or "class" at import, "function" only when called."""
    stack = [(top, "module")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, FUNCTIONS):
            scope = "function"
        elif isinstance(node, ast.ClassDef) and scope == "module":
            scope = "class"
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def _binding(node, alias, package: str):
    """(the local name, the dotted target) of one imported alias; a relative
    import is read from `package`."""
    if isinstance(node, ast.Import):
        head = alias.name.split(".")[0]
        return (alias.asname, alias.name) if alias.asname else (head, head)
    base = node.module or ""
    if node.level:
        parent = package.rsplit(".", node.level - 1)[0] if package else ""
        base = ".".join(filter(None, [parent, base]))
    return alias.asname or alias.name, f"{base}.{alias.name}"


@lru_cache(maxsize=None)
def _parse(path: str, text: str) -> Module:
    return Module(path, text)


def _modules(scope: str, changed: dict | None = None) -> dict:
    """The modules of a scope by name, a file's text taken from `changed`
    where it is there."""
    changed = changed or {}
    paths = sorted({p.relative_to(ROOT).as_posix() for glob in SCOPES[scope] for p in ROOT.glob(glob)})
    modules = (_parse(p, changed[p] if p in changed else (ROOT / p).read_text()) for p in paths)
    return {m.name: m for m in modules}


# ---- what the rows share -----------------------------------------------------


def _last(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _under(prefix: str):
    """A test for a dotted name: `prefix` itself or a name inside it."""
    return lambda name: name == prefix or name.startswith(prefix + ".")


def _banned(mods, names, ban) -> list:
    """Each reference in the modules `names` (every module for None) whose
    dotted name `ban` accepts."""
    return [m.report(site, site.name) for m in mods.values() if names is None or m.name in names
            for site in m.refs() if ban(site.name)]


def _only_at(found, allowed) -> list:
    """`found`, a list of (module, site), must sit exactly at the (module,
    top-level name) pairs of `allowed`, once each."""
    if sorted((m.name, site.top) for m, site in found) == sorted(allowed):
        return []
    return [m.report(site, site.name) for m, site in found] or [f"nothing at {allowed}"]


def _caches(mods, names, allowed=()) -> list:
    """State kept across calls in the modules `names`: functools.cache or
    lru_cache outside the (module, top-level name) pairs of `allowed`, or a
    mutable container assigned at import, in the module body or a class."""
    found = [m.report(site, site.name) for m in mods.values() if m.name in names
             for site in m.sites if (m.name, site.top) not in allowed
             and _last(site.name) in CACHES and site.name.split(".")[0] in CACHES | {"functools"}]
    for m in mods.values():
        for site, scope in m.assigns if m.name in names else ():
            value = site.node.value
            if isinstance(value, MUTABLE) or (isinstance(value, ast.Call)
                                              and _last(m.dotted(value.func)) in CONTAINERS):
                found.append(m.report(site, f"a container assigned in the {scope} body"))
    return found


def _defined(mods, pairs) -> list:
    """Each definition of a (module or "*", name) pair: a def or class at any
    depth, or a name assigned in the module body."""
    pairs = set(pairs)
    return [m.report(site, f"{site.name} is defined") for m in mods.values()
            for site in m.defines if (m.name, site.name) in pairs or ("*", site.name) in pairs]


# ---- the checks ----------------------------------------------------------------


def _sympy_stays_lazy(mods) -> list:
    found = [m.report(site, f"{site.name} imported at import") for m in mods.values()
             for site, _, scope in m.imports if scope != "function" and _under("sympy")(site.name)]
    found += [m.report(site, "from sympy import") for m in mods.values() for site, _, _ in m.imports
              if getattr(site.node, "module", None) == "sympy" and not site.node.level]
    return found + [f"{m.path}:{m.text[:hit.start()].count(NEWLINE) + 1}: {hit.group()}"
                    for m in mods.values() for hit in re.finditer(r"as_expr|sympy\.core", m.text)]


def _no_dataclasses(mods) -> list:
    return _banned(mods, None, lambda name: _under("dataclasses")(name) or _last(name) == "dataclass")


def _one_json_writer(mods) -> list:
    return _only_at([(m, site) for m in mods.values() for site in m.calls
                     if any(k.arg == "indent" for k in site.node.keywords)],
                    [("fan", "dumps_json")])


def _closed_form_cones(mods) -> list:
    return _banned(mods, ("fan", "intersect"), _under(f"{PACKAGE}.intlinalg.det"))


def _fan_separates_with_find_point(mods) -> list:
    allowed = {f"{PACKAGE}.feasibility.Infeasible", f"{PACKAGE}.feasibility.find_point"}
    return _banned(mods, ("fan",), lambda name: _under(f"{PACKAGE}.feasibility")(name)
                   and name not in allowed)


SYMPY_NAMES = {"_GQ", "_GZ", "_zu", "QQ", "set_ring", "factor_list", "groebner"}


def _poly_is_one_module(mods) -> list:
    poly, verify = mods["poly"], mods["verify"]
    found = [poly.report(site, site.name) for site, _, _ in poly.imports if _under(PACKAGE)(site.name)]
    named = verify.refs() + verify.defines + [site._replace(name=local) for site, local, _ in verify.imports]
    return found + [verify.report(site, site.name) for site in named if _last(site.name) in SYMPY_NAMES]


LEADING_BY_HAND = re.compile(r"next\(filter\(None, .+\[0\]\)\)|_trim\(.+\[0\]\)\[0\]")


def _no_hand_leading_coefficient(mods) -> list:
    verify = mods["verify"]
    return [verify.report(Site(ast.unparse(node), top, node.lineno, node), ast.unparse(node))
            for node, top, _ in verify.nodes if isinstance(node, (ast.Call, ast.Subscript))
            and LEADING_BY_HAND.fullmatch(ast.unparse(node))]


def _gcdheu_one_caller(mods) -> list:
    callers = {(m.name, site.top): (m, site) for m in mods.values() for site in m.sites
               if _last(site.name) == "_heu_gcd"}
    return _only_at(list(callers.values()), [("poly", "_gcd")])


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_pair_view(node, top) -> bool:
    """pullback_check's {(x.numerator, x.denominator) for x in ...}."""
    return (top == "pullback_check" and isinstance(node, ast.SetComp)
            and isinstance(node.elt, ast.Tuple)
            and [getattr(e, "attr", None) for e in node.elt.elts] == ["numerator", "denominator"])


def _chart_domains_read_as_given(mods) -> list:
    """In verify, a comprehension that iterates an .excluded attribute but
    for pullback_check's one (num, den) view, any .is_infinity read, and any
    `in` test of INFINITY against .excluded."""
    verify = mods["verify"]
    found = [Site(ast.unparse(node), top, node.lineno, node) for node, top, _ in verify.nodes
             if isinstance(node, COMPREHENSIONS) and not _is_pair_view(node, top) and any(
                 isinstance(g.iter, ast.Attribute) and g.iter.attr == "excluded"
                 for g in node.generators)]
    found += [site for site in verify.sites if _last(site.name) == "is_infinity"]
    found += [Site(ast.unparse(node), top, node.lineno, node) for node, top, _ in verify.nodes
              if isinstance(node, ast.Compare) and verify.dotted(node.left).endswith("INFINITY")
              and any(isinstance(c, ast.Attribute) and c.attr == "excluded"
                      for c in node.comparators)]
    return [verify.report(site, site.name) for site in found]


def _certify_writes_no_memo_entry(mods) -> list:
    """In verify.certify, a subscript stored to, a _replace call or a
    comprehension over an .entries attribute."""
    verify = mods["verify"]
    found = [Site(ast.unparse(node), top, node.lineno, node) for node, top, _ in verify.nodes
             if top == "certify" and (
                 isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                 or isinstance(node, COMPREHENSIONS) and any(
                     isinstance(g.iter, ast.Attribute) and g.iter.attr == "entries"
                     for g in node.generators))]
    found += [site for site in verify.calls
              if site.top == "certify" and _last(site.name) == "_replace"]
    return [verify.report(site, site.name) for site in found]


def _no_lazy_names(mods) -> list:
    return [m.report(site, site.name) for m in mods.values() for site in m.defines
            if site.name in ("__getattr__", "__dir__") and site.top in (None, site.name)]


def _imports_are_used(mods) -> list:
    """A module-level import nobody in its module reads, but for the
    exceptions in UNUSED_IMPORTS, each of which must still be one."""
    found, unused = [], set()
    for m in mods.values():
        read = {node.id for node, _, _ in m.nodes if isinstance(node, ast.Name)}
        for site, local, scope in m.imports:
            if scope == "module" and site.name.split(".")[0] != "__future__" and local not in read:
                unused.add((m.name, local))
                if (m.name, local) not in UNUSED_IMPORTS:
                    found.append(m.report(site, f"{local} is imported and never read"))
    return found + [f"{pair} is no longer an unused import: drop it from UNUSED_IMPORTS"
                    for pair in sorted(UNUSED_IMPORTS - unused)]


def _is_factor_term(node) -> bool:
    """a * rd - rn * b, the factor contribution of curve.evaluate_ints, in
    either order within each product."""
    def names(side):
        return (isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                and sorted(getattr(x, "id", None) or "" for x in (side.left, side.right)))
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and names(node.left) == ["a", "rd"] and names(node.right) == ["b", "rn"])


def _one_factor_loop(mods) -> list:
    return _only_at([(m, Site("a * rd - rn * b", top, node.lineno, node))
                     for m in mods.values() for node, top, _ in m.nodes if _is_factor_term(node)],
                    [("curve", "evaluate_ints")])


def _records_compare_as_fields(mods) -> list:
    return [m.report(site, f"{site.name} in class {site.top}") for m in mods.values()
            for site in m.defines if site.name in ("__eq__", "__hash__", "__repr__")
            and (m.name, site.top) != ("curve", "CurvePoint")]


def _one_curvepoint_constructor(mods) -> list:
    return [m.report(site, site.name) for m in mods.values() for site in m.sites
            if re.fullmatch(r"(.+\.)?CurvePoint\.(of|infinity)", site.name)]


def _one_json_int_test(mods) -> list:
    found = [(m, site) for m in mods.values() for site in m.calls if site.name == "isinstance"
             and len(site.node.args) == 2 and "bool" in {getattr(n, "id", None)
                                                       for n in ast.walk(site.node.args[1])}]
    negated = [node.operand for node, top, _ in mods["fan"].nodes
               if top == "_is_int" and isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)]
    reports = _only_at(found, [("fan", "_is_int")])
    if not any(site.node in negated for _, site in found):
        reports.append("src/toricurve/fan.py: _is_int reads no `not isinstance(x, bool)`")
    return reports


# ---- the table -------------------------------------------------------------------


class Rule(NamedTuple):
    """One invariant: its id, why it holds, the check (modules by name to a
    list of reports) and one violation: (file, snippet to append) or (file,
    snippet, the text it replaces)."""

    id: str
    reason: str
    check: Callable
    violation: tuple
    scope: str = "src"


# (module or "*", name): each was deleted for good, with the reason beside it
RETIRED = [
    # cli.main(argv) is the only way into the pipeline; a config object beside
    # it copies run's flags and needs type checks of its own
    ("*", "RunConfig"), ("*", "run_pipeline"),
    # validate's pair scan separates cones with the ample search's find_point;
    # no second Fourier-Motzkin comes back beside it
    ("*", "homogeneous_feasible"),
    # an int list is evaluated by one homogeneous Horner, _homogeneous(c, x, 1)
    ("*", "_horner"),
    # Q_i(t, t) = N_i' D_i - N_i D_i', so chart_immersive reads each W_i off
    # the Bezoutian chart_injective memoised; a second expansion of the
    # Wronskian would rebuild it outside the memo, in a second form
    ("*", "_wronskian"),
    # a gcd operand has one normal form, poly._split (content signed as
    # poly._lc, primitive part leading positive); feasibility's _primitive
    # makes Fourier-Motzkin rows primitive, not polynomials, and stays
    ("poly", "_primitive"), ("verify", "_primitive"),
    # every witness search in verify reads a gcd its caller computed through
    # _zero_witnesses, and _collisions_at specialises the rows for both
    # collision searches; a second roots-then-factors reader or a one-caller
    # witness builder beside them would re-check the same zeros a second way
    ("verify", "_common_zeros"), ("verify", "_roots_and_factors"),
    ("verify", "_pair_witness"), ("verify", "_conjugate_witness"),
    # every intersection number is read off intersect's one pass over the
    # walls, _mixed_degrees; the single triple V_i.V_j.V_k and the unit
    # divisors are test helpers in tests/oracles.py, since the pipeline needs
    # only xi_vector; fan keeps no Fan-keyed cache beside validate, walls and
    # the dual bases
    ("intersect", "_two_repeat"), ("intersect", "_self_triple"), ("intersect", "_wall_by_pair"),
    ("intersect", "triple_intersection"), ("intersect", "unit"), ("fan", "_cone_set"),
    # every name is imported from its own module; the package lists no exports
    ("__init__", "_EXPORTS"),
    # records are namedtuples checked in __new__ with _make the one unchecked
    # constructor, and a JSON object that mirrors a record is its _asdict(),
    # with no helper listing the fields again
    ("*", "_trusted"), ("*", "_validation"), ("*", "_xi_doc"),
    # a gcd in Z[s, u] that the division test leaves goes to sympy's
    # dmp_inner_gcd, which runs the same heuristic with cofactor checks and
    # then the subresultant PRS; no pool input reached the two-variable copy
    ("poly", "_heu_gcd_su"),
    # a row quotient is poly._exquo_su's, which reads a scalar multiple first
    ("verify", "_scalar_quotient"),
]

# (module, name): module-level imports nothing in their module reads; each
# must stay one, so the list shrinks when the import goes.  verify re-exports
# certificate_to_dict for pipebench/test_pipebench.py.
UNUSED_IMPORTS = {("verify", "certificate_to_dict")}

RULES = [
    Rule("sympy-stays-lazy",
         "Witness strings print from int lists and rows; building an Expr would load "
         "sympy.combinatorics on the first print again.  verify imports sympy only for the "
         "Groebner fallback, a gcd the division test leaves in Z[s, u] or GCDHEU gives up on, "
         "or a factorization of degree >= 4 with no rational root, so importing the package, and clean and most refuting runs, never "
         "load it.  as_expr and sympy.core are banned in the text, strings included.",
         _sympy_stays_lazy,
         ("src/toricurve/verify.py", "\nfrom sympy import Poly\n")),
    Rule("no-dataclasses",
         "A dataclass decorator costs about a millisecond at import, and the module drags in "
         "inspect and ast; records are NamedTuples or plain classes, so a fresh process starts "
         "without them.",
         _no_dataclasses,
         ("src/toricurve/curve.py", "\nfrom dataclasses import dataclass\n")),
    Rule("one-indented-json-writer",
         "An indented json.dumps runs json's pure-Python encoder on every element; "
         "fan.dumps_json writes every file and report, and hands json only what it does not "
         "write itself, on its one fallback call.",
         _one_json_writer,
         ("src/toricurve/embed.py", "\n\ndef _pretty(doc):\n    return json.dumps(doc, indent=2)\n")),
    Rule("cone-algebra-in-closed-form",
         "Cone determinants are triple products and cone inverses come from cross products of "
         "columns; the generic Bareiss det stays in intlinalg for the kernel basis check, and "
         "no fan-layer module goes back to it.",
         _closed_form_cones,
         ("src/toricurve/fan.py", "from .intlinalg import cross, det, dot, unimodular_inverse",
          "from .intlinalg import cross, dot, unimodular_inverse")),
    Rule("fan-separates-with-find-point",
         "validate's pair scan separates cones with the ample search's find_point; fan takes "
         "nothing else from feasibility (homogeneous_feasible is in RETIRED).",
         _fan_separates_with_find_point,
         ("src/toricurve/fan.py", "from .feasibility import Infeasible, find_point, minimize",
          "from .feasibility import Infeasible, find_point")),
    Rule("no-cross-call-caches",
         "In verify, poly, embed and curve nothing outlives a call.  certify's Bezoutians, "
         "resultants and torus pass (memo[_torus]) are shared through one memo per call; a "
         "cache kept across calls would answer a second call from the first, whatever prime "
         "table or cap the second runs under.  The sampler builds its points per call, since "
         "a table of the 641 grid points would be paid for by every fresh CLI process.  "
         "poly._sympy's cache takes no argument: it runs the sympy import once.",
         lambda mods: _caches(mods, ("verify", "poly", "embed", "curve"), {("poly", "_sympy")}),
         ("src/toricurve/verify.py", "\n_memo = {}\n")),
    Rule("one-intersection-pass",
         "Every intersection number is read off intersect's one pass over the walls, "
         "_mixed_degrees, and no Fan-keyed cache sits beside fan.py's validate, walls and "
         "dual bases (the retired second routes are in RETIRED).",
         lambda mods: _caches(mods, ("intersect",)),
         ("src/toricurve/intersect.py",
          "\nfrom functools import lru_cache\n\n\n@lru_cache(maxsize=None)\n"
          "def _walls_of(fan):\n    return walls(fan)\n")),
    Rule("poly-is-one-module",
         "poly holds the arithmetic on int lists and rows and every sympy object, and takes "
         "nothing from the rest of the package; verify names no sympy ring, domain or call "
         "(its \"groebner\" method strings are strings, not names).",
         _poly_is_one_module,
         ("src/toricurve/poly.py", "\nfrom .fan import dumps_json\n")),
    Rule("gcd-operands-in-one-normal-form",
         "A gcd operand has one normal form, poly._split (content signed as poly._lc, "
         "primitive part leading positive), so verify reads no leading coefficient of rows by "
         "hand.",
         _no_hand_leading_coefficient,
         ("src/toricurve/verify.py", "\n\ndef _lead(rows):\n    return next(filter(None, rows[0]))\n")),
    Rule("gcdheu-has-one-caller",
         "GCDHEU (_heu_gcd, in one variable) is called from poly._gcd alone, after its "
         "division test.",
         _gcdheu_one_caller,
         ("src/toricurve/poly.py", "\n\ndef _gcd_fast(f, g):\n    return _heu_gcd(f, g)\n")),
    Rule("chart-domains-are-read-as-given",
         "What a chart's domain excludes is decided once, in embed.chart_maps: a frozenset "
         "of finite Fractions, the points of the off-cone D_rho.  verify reads it as given, "
         "so it rebuilds no set from it, reads no .is_infinity, and tests no INFINITY against "
         "it.  pullback_check keeps one (num, den) view per chart, as int pairs hash faster "
         "than Fractions there.",
         _chart_domains_read_as_given,
         ("src/toricurve/verify.py", "\n{p.finite for p in chart.excluded}\n")),
    Rule("certify-writes-no-memo-entry",
         "Every entry of certify's per-call memo is written by the function that computes "
         "it: _bezoutian and _resultant their own, _torus the torus pass, from the first "
         "chart that asks.  For every chart of chart_maps its excluded points and its "
         "coordinates' zeros and poles are already every divisor's support, so certify builds "
         "no point set and seeds no chart.",
         _certify_writes_no_memo_entry,
         ("src/toricurve/verify.py",
          "    records, memo = [], {}\n"
          "    support = frozenset(p.finite for d in data.divisors for p, _ in d.entries)\n"
          "    memo[_torus] = _torus(charts[0]._replace(excluded=support), memo)\n",
          "    records, memo = [], {}\n")),
    Rule("no-lazy-names",
         "Every name is imported from its own module: neither the package nor poly resolves "
         "names on first use (PEP 562), and poly._sympy() is the one place that binds sympy's "
         "names.",
         _no_lazy_names,
         ("src/toricurve/__init__.py", "\n\ndef __getattr__(name):\n    raise AttributeError(name)\n")),
    Rule("imports-are-used",
         "A module imports what it uses, so no module is a re-export layer; the one exception, "
         "in UNUSED_IMPORTS, goes with the shim that pins it.",
         _imports_are_used,
         ("src/toricurve/fan.py", "\nimport os\n")),
    Rule("retired-names-stay-gone",
         "A function deleted for good is listed in RETIRED with its reason, and no module "
         "defines it again.",
         lambda mods: _defined(mods, RETIRED),
         ("src/toricurve/verify.py", "\n\ndef _wronskian(f):\n    return f\n")),
    Rule("one-factor-loop",
         "A witness is re-checked by curve.evaluate_ints, the one loop that multiplies a "
         "factored function's (a rd - rn b)^e at t = a / b; the collision and tangent re-checks "
         "in verify compare its int pairs and write no second loop of their own.",
         _one_factor_loop,
         ("src/toricurve/verify.py", "\n\ndef _factor_value(a, b, rn, rd):\n    return a * rd - rn * b\n")),
    Rule("records-compare-as-fields",
         "Fan, TDivisor, CDivisor and RationalFunction are namedtuples: they hash, compare and "
         "print as their fields do, and _make is the one unchecked constructor; CurvePoint "
         "alone compares by its cached pair.",
         _records_compare_as_fields,
         ("src/toricurve/fan.py", "\n\nclass _Ray(tuple):\n    def __repr__(self):\n        return 'ray'\n")),
    Rule("one-curvepoint-constructor",
         "CurvePoint() is CurvePoint's one constructor, INFINITY included: no alias, in the "
         "package, its tests or its demos.",
         _one_curvepoint_constructor,
         ("tests/test_curve.py", "\n\ndef test_infinity_alias():\n    assert CurvePoint.infinity() == INFINITY\n"),
         scope="all"),
    Rule("one-json-int-test",
         "\"An int, not a bool\" (JSON true is no count) is written once, as fan._is_int.",
         _one_json_int_test,
         ("src/toricurve/intersect.py",
          "\n\ndef _is_count(x):\n    return isinstance(x, int) and not isinstance(x, bool)\n")),
]


def _applied(rule: Rule) -> dict:
    path, snippet, *replaced = rule.violation
    text = (ROOT / path).read_text()
    if replaced:
        assert replaced[0] in text, f"{rule.id}: the violation's anchor is gone from {path}"
        return {path: text.replace(replaced[0], snippet, 1)}
    return {path: text + snippet}


@pytest.mark.parametrize("rule", RULES, ids=[rule.id for rule in RULES])
def test_the_tree_keeps_every_rule(rule):
    assert rule.check(_modules(rule.scope)) == []


@pytest.mark.parametrize("rule", RULES, ids=[rule.id for rule in RULES])
def test_every_rule_catches_its_violation(rule):
    path = rule.violation[0]
    assert any(path in report for report in rule.check(_modules(rule.scope, _applied(rule))))


def test_every_retired_name_fails_if_defined_again():
    """Each RETIRED name, defined again in its module ("*" in verify), is
    reported; one pass per module."""
    by_path = {}
    for module, name in RETIRED:
        by_path.setdefault(f"src/toricurve/{'verify' if module == '*' else module}.py", []).append(name)
    for path, names in sorted(by_path.items()):
        text = (ROOT / path).read_text() + "".join(f"\n\ndef {name}():\n    pass\n" for name in names)
        reported = _defined(_modules("src", {path: text}), RETIRED)
        assert sorted(names) == sorted(re.search(r": (\S+) is defined", r)[1] for r in reported)
