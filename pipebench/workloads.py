"""The three workloads and the seeded input generator.

A workload is a *round*: a fixed list of slots, one op each.  A run does a
fixed number of rounds, ``round(seconds / round_s)``, then one op of each of
the workload's ``hangs``.  Every slot owns a pool of POOL distinct
instances (a sample seed and, for chain fans, a unimodular change of lattice
basis), and the workload seed picks the order in which a run draws them, so
no input repeats inside one process and sympy's cache and the program's
``lru_cache``s stay as cold as a fresh CLI call finds them.  Fixing the
round's composition keeps per-run medians comparable across seeds, while the
seed still changes every sampled divisor and every chain fan's coordinates.

A change of lattice basis leaves intersection numbers, the ample search and
every chart map intact, so it gives a new ``Fan`` with the same cost; the
sample seed is what moves the divisors.

The generator writes only files a user could hand to the CLI: fans through
``save_fan`` and refutation inputs through ``dumps_embedding``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from toricurve.curve import CDivisor, CurvePoint, principal_function
from toricurve.embed import EmbeddingData, check_theorem_conditions, dumps_embedding, pairing_matrix
from toricurve.fan import Fan, preset, save_fan, star_subdivision
from toricurve.intersect import XiVector, xi_vector

POOL = 40  # instances per slot; the pinned digests cover exactly these
WARMUP = POOL  # reserved instance for the untimed warm-up op


@dataclass(frozen=True)
class Slot:
    """One op of a round.

    ``cones`` is a star-subdivision chain applied to the preset ``base``, in
    order; each entry is a maximal cone of the fan at that step.  For
    ``verify`` slots, ``involution`` names the Moebius involution the
    divisors are built to respect, and ``invariant`` says whether every
    ray's divisor respects it (``every``) or only the degree-two ones
    (``some``; the others pass through one planted orbit instead).
    """

    label: str
    command: str  # "run", "embed" or "verify"
    base: str
    cones: tuple = ()
    xi_method: str = "intersection"
    involution: tuple = ()
    invariant: str = "every"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]
    expect_exit: int
    budget_s: float  # per-op budget
    round_s: float  # a run does round(seconds / round_s) whole rounds
    # slots that never finish at this commit: a run tries each once, after
    # its rounds, and each spends exactly the budget, so they count as failed
    # ops but stay out of every timing
    hangs: tuple[Slot, ...] = ()


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` holds OUT where the op's output dir goes."""

    slot: Slot
    instance: int
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return f"{self.slot.label}/{self.instance}"


OUT = "{out}"


def _chain_slots(prefix: str, command: str, chains: dict, methods) -> tuple[Slot, ...]:
    return tuple(
        Slot(f"{prefix}{name}-{method[:3]}", command, "p3", cones, method)
        for name, cones in chains.items()
        for method in methods
    )


# Kernel-degree chains on p3 with 6, 7 and 8 rays (8, 10 and 12 charts).
# Wider 7- and 8-ray chains are left out: measured, single ops there take
# 4-18 s or stop on DegreeOverflow, so one op would fill a whole run.
_CERTIFY_CHAINS = {
    "chain6": ((0, 1, 2), (0, 1, 3)),
    "chain6-2": ((0, 1, 2), (0, 1, 3)),
    "chain6-3": ((0, 1, 2), (0, 1, 3)),
    "chain6-4": ((0, 1, 2), (0, 1, 3)),
    "chain7": ((0, 1, 2), (0, 1, 3), (1, 2, 3)),
    "chain8": ((0, 1, 2), (0, 1, 3), (1, 2, 3), (2, 3, 6)),
}

CERTIFY = Workload(
    name="certify",
    why=(
        "`run` end to end; `verify` does 85-90% of the work. Presets give few "
        "charts of higher degree, kernel-degree chains many small charts, so "
        "algebra and per-chart changes show apart."
    ),
    # p3 runs twice and chain6 four times a round: three cheaper ops, four
    # chain6 ops and three dearer ones put the median op in the middle of the
    # chain6 ops instead of in a gap between two costs
    slots=(
        Slot("p3", "run", "p3"),
        Slot("p3-2", "run", "p3"),
        Slot("p1p1p1", "run", "p1p1p1"),
        Slot("bl-p3-point", "run", "bl-p3-point"),
    )
    + _chain_slots("", "run", _CERTIFY_CHAINS, ("kernel",)),
    expect_exit=0,
    budget_s=30.0,
    # a round takes about 7 s; 6.0 gives a 24 s run four rounds, whose 16
    # chain6 ops sit around the median
    round_s=6.0,
)

# Two subdivision chains of p3 grown to 11 rays; their 7- to 11-ray
# prefixes are the inputs.  With intersection degrees, chain b at 10 and 11
# rays asks for more points than the sampler's 641-point pool holds, so
# those two ops spin until the budget stops them: the known sampler hang,
# kept in on purpose as the workload's ``hangs``.  Kernel degrees stay small
# and never hang.
_GROWTH = {
    "a": ((0, 1, 3), (0, 1, 4), (1, 4, 5), (1, 2, 3), (2, 3, 7), (1, 4, 6), (2, 7, 8)),
    "b": ((0, 1, 3), (0, 3, 4), (0, 3, 5), (0, 3, 6), (0, 1, 2), (3, 6, 7), (0, 5, 6)),
}
_EMBED_CHAINS = {
    f"{n}{name}": steps[: n - 4] for name, steps in _GROWTH.items() for n in range(7, 12)
}
_EMBED_SLOTS = _chain_slots("embed", "embed", _EMBED_CHAINS, ("intersection", "kernel"))
_SAMPLER_HANG = ("embed10b-int", "embed11b-int")

EMBED = Workload(
    name="embed",
    why=(
        "`embed` on fresh 7-11-ray chains: fan, intersect, feasibility, curve "
        "and embed do all the work and verify none. Each op builds a new Fan; "
        "two ops per run hit the sampler hang."
    ),
    slots=tuple(s for s in _EMBED_SLOTS if s.label not in _SAMPLER_HANG),
    expect_exit=0,
    # the slowest op that finishes takes about 0.6 s: five times that keeps
    # it clear of the budget on a slow host, while a hang op still ends in it
    budget_s=3.0,
    round_s=3.4,
    hangs=tuple(s for s in _EMBED_SLOTS if s.label in _SAMPLER_HANG),
)

REFUTE = Workload(
    name="refute",
    why=(
        "`verify` on inputs that must fail: divisors respect a rational "
        "involution, so charts collide. The factor, witness and congruence "
        "paths run only here; certify never reaches them."
    ),
    # bl-neg and bl-refl cost about the same; with nine ops a round the
    # median op falls inside that pair instead of between two costs
    slots=(
        Slot("p3-neg", "verify", "p3", involution=("neg", 0)),
        Slot("p3-inv2", "verify", "p3", involution=("inv", 2)),
        Slot("p1p1p1-inv4", "verify", "p1p1p1", involution=("inv", 4)),
        Slot("p1p1p1-refl", "verify", "p1p1p1", involution=("refl", Fraction(1, 2))),
        Slot("bl-inv2", "verify", "bl-p3-point", involution=("inv", 2)),
        Slot("bl-neg", "verify", "bl-p3-point", involution=("neg", 0)),
        Slot("bl-refl", "verify", "bl-p3-point", involution=("refl", Fraction(1, 2))),
        Slot("bl-some-neg", "verify", "bl-p3-point", involution=("neg", 0),
             invariant="some"),
        Slot("bl-some-refl", "verify", "bl-p3-point",
             involution=("refl", Fraction(1, 2)), invariant="some"),
    ),
    expect_exit=5,
    budget_s=30.0,
    round_s=6.0,
)

WORKLOADS = {w.name: w for w in (CERTIFY, EMBED, REFUTE)}


def _instance_rng(slot: Slot, instance: int) -> random.Random:
    return random.Random(f"{slot.label}/{instance}")


def sample_seed(slot: Slot, instance: int) -> int:
    """The CLI ``--seed`` of an instance: distinct across slots and instances."""
    return _instance_rng(slot, instance).randrange(2**32)


def _basis_change(rng: random.Random):
    g = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-1, 1))
        g[i] = [g[i][t] + c * g[j][t] for t in range(3)]
    return g


def chain_fan(slot: Slot, instance: int) -> Fan:
    """The slot's subdivision chain, in a lattice basis picked by the instance."""
    fan = preset(slot.base)
    for cone in slot.cones:
        fan = star_subdivision(fan, cone)
    rng = _instance_rng(slot, instance)
    rng.randrange(2**32)  # the sample seed's draw
    g = _basis_change(rng)
    rays = tuple(
        tuple(sum(g[i][t] * ray[t] for t in range(3)) for i in range(3))
        for ray in fan.rays
    )
    return Fan(rays, fan.max_cones, fan.name)


def _involution(kind: str, param):
    if kind == "neg":
        return lambda a: -a
    if kind == "inv":
        return lambda a: Fraction(param) / a
    if kind == "refl":
        return lambda a: 2 * Fraction(param) - a
    raise ValueError(f"unknown involution {kind!r}")


def refute_data(slot: Slot, instance: int) -> EmbeddingData:
    """Embedding data whose charts collide along an involution's orbits.

    Degrees are twice the kernel degree vector.  A divisor made of whole
    orbits {a, sigma(a)} has a sigma-invariant polynomial (up to a constant
    that cancels in degree zero), so every character, and every chart
    coordinate, takes equal values at t and sigma(t).  In ``some`` mode a
    ray of degree above two gets d - 1 free points and one solved point
    that makes its polynomial agree at s0 and sigma(s0) only, which plants
    a single collision instead of a curve of them.
    """
    fan = preset(slot.base)
    sigma = _involution(*slot.involution)
    degrees = tuple(2 * v for v in xi_vector(fan, None, method="kernel").values)
    rng = _instance_rng(slot, instance)
    used: set[Fraction] = set()

    def fresh() -> Fraction:
        while True:
            a = Fraction(rng.randint(-90, 90), rng.randint(1, 6))
            b = sigma(a) if a else a
            if a and a != b and a not in used and b not in used:
                return a

    s0 = fresh()
    u0 = sigma(s0)
    used |= {s0, u0}
    divisors = []
    for d in degrees:
        points: list[Fraction] = []
        if slot.invariant == "every" or d == 2:
            while len(points) < d:
                a = fresh()
                points += [a, sigma(a)]
                used |= {a, sigma(a)}
        else:
            while not points:
                free = []
                while len(free) < d - 1:
                    a = fresh()
                    if a not in free:
                        free.append(a)
                ps = pu = Fraction(1)
                for a in free:
                    ps *= s0 - a
                    pu *= u0 - a
                if ps == pu:
                    continue
                last = (u0 * pu - s0 * ps) / (pu - ps)
                if last in used or last in free:
                    continue
                points = free + [last]
            used |= set(points)
        divisors.append(CDivisor.of({CurvePoint(p): 1 for p in points}))
    a = pairing_matrix(fan)
    epsilon = []
    for i in range(3):
        combo = CDivisor(())
        for rho, d in enumerate(divisors):
            if a[i][rho]:
                combo = combo + d.scale(a[i][rho])
        epsilon.append(principal_function(combo))
    data = EmbeddingData(
        fan, None, XiVector(degrees, "kernel"), tuple(divisors), tuple(epsilon),
        (Fraction(1),) * 3,
    )
    if not check_theorem_conditions(data).passed:
        raise RuntimeError(f"generator built a non-morphism for {slot.label}/{instance}")
    return data


def make_op(slot: Slot, instance: int, inputs: Path) -> Op:
    """Write the op's input files under ``inputs`` and return its argv."""
    if slot.command == "verify":
        path = inputs / f"{slot.label}-{instance}.json"
        path.write_text(dumps_embedding(refute_data(slot, instance)), encoding="utf-8")
        return Op(slot, instance, ("verify", "--data", str(path), "--out", OUT))
    seed = ("--seed", str(sample_seed(slot, instance)))
    if slot.cones:
        path = inputs / f"{slot.label}-{instance}.fan"
        save_fan(chain_fan(slot, instance), path)
        source = ("--fan", str(path), "--xi-method", slot.xi_method)
    else:
        source = ("--preset", slot.base)
    return Op(slot, instance, (slot.command,) + source + seed + ("--out", OUT))


def rounds(workload: Workload, seed: int, count: int, inputs: Path) -> list[list[Op]]:
    """``count`` rounds (at most POOL); round r draws each slot's r-th
    instance in an order the seed picks."""
    rng = random.Random(f"{workload.name}:{seed}")
    orders = [rng.sample(range(POOL), POOL) for _ in workload.slots]
    inputs.mkdir(parents=True, exist_ok=True)
    return [
        [make_op(slot, order[r], inputs) for slot, order in zip(workload.slots, orders)]
        for r in range(min(count, POOL))
    ]


def hang_ops(workload: Workload, seed: int, inputs: Path) -> list[Op]:
    """One op of each of the workload's ``hangs``, its instance picked by the seed."""
    rng = random.Random(f"{workload.name}:{seed}:hangs")
    inputs.mkdir(parents=True, exist_ok=True)
    return [make_op(slot, rng.randrange(POOL), inputs) for slot in workload.hangs]


def warmup_op(workload: Workload, inputs: Path) -> Op:
    inputs.mkdir(parents=True, exist_ok=True)
    return make_op(workload.slots[0], WARMUP, inputs)
