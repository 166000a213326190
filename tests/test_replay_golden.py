"""Byte-for-byte replay oracle for the artifacts the pipeline writes.

Every digest below is the sha256 of `embedding.json` / `certificate.json`
(or of `certify`'s refusal message, or of the stdout report of
`toricurve fan validate` on an invalid fan) as the program wrote them when
the digests were pinned.  A change to the certification internals must leave
every one of them unchanged: witness order, witness strings and method
names are part of the replay contract.

Re-pin (only for a deliberate format change) with

    PYTHONPATH=src:tests python tests/test_replay_golden.py
"""

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

import negative_fixtures
from conftest import run_main
from toricurve.certificate import Certificate, ChartRecord, dumps_certificate
from toricurve.cli import main
from toricurve.curve import CDivisor, CurvePoint, principal_function
from toricurve.embed import EmbeddingData, check_theorem_conditions, pairing_matrix
from toricurve.fan import Fan, ValidationReport, preset, save_fan, star_subdivision
from toricurve.intersect import TDivisor, XiVector, xi_vector
from toricurve.verify import certify

F = Fraction
PRESETS = ("p3", "p1p1p1", "bl-p3-point")
SEEDS = range(5)
KERNEL_CHAIN = ((0, 1, 2), (0, 1, 3))
INVOLUTIONS = {
    "p3-neg": ("p3", "neg", "every"),
    "p3-inv2": ("p3", "inv", "every"),
    "p1p1p1-inv2": ("p1p1p1", "inv", "every"),
    "bl-inv2": ("bl-p3-point", "inv", "every"),
    "bl-refl": ("bl-p3-point", "refl", "every"),
    "bl-some-neg": ("bl-p3-point", "neg", "some"),
    "bl-some-refl": ("bl-p3-point", "refl", "some"),
    "bl-some-inv2": ("bl-p3-point", "inv", "some"),
}

GOLDEN = {
    "run/p3/0": ("1f3e2427e6fbb882ee76d5636826fbbc7dcf3cbe008b9db1a1496fb77b3edcd7", "cb77fe93a6021bc9adf528514e85004063c68dc51fd3aa0565056c120978ce4e"),
    "run/p3/1": ("28dde4d49402378b1b1f3332336eb0ecc617fef81ba8b77b5fb2b7502afe67c3", "cb77fe93a6021bc9adf528514e85004063c68dc51fd3aa0565056c120978ce4e"),
    "run/p3/2": ("89fcdf793c8366d2971ebae6bf09a65add0fbd1affa2210564d310afe5024189", "cb77fe93a6021bc9adf528514e85004063c68dc51fd3aa0565056c120978ce4e"),
    "run/p3/3": ("e7d32872572696ad5f8d2546c5b09305c0fa148e6cc1be220cd98609381b132a", "cb77fe93a6021bc9adf528514e85004063c68dc51fd3aa0565056c120978ce4e"),
    "run/p3/4": ("20c09260e5d97f996028fc73fdbacc90f9b1ba5fee13e548cc52f02082ab81ae", "cb77fe93a6021bc9adf528514e85004063c68dc51fd3aa0565056c120978ce4e"),
    "run/p1p1p1/0": ("f50320217b981d939d4f27f5bf25b0a76943a8f8d43a2bf974b872985c40c9fe", "3cbe035c4073fd9e98cd90b9d42f8d79254355a8b52d17c4f644695938c73c44"),
    "run/p1p1p1/1": ("768057883e7e3d72dd6f0a8baa773b562d5acb68c5c0c32aa7a48e1ea5c9b697", "3cbe035c4073fd9e98cd90b9d42f8d79254355a8b52d17c4f644695938c73c44"),
    "run/p1p1p1/2": ("bc7cdcfee5508f4b9b03359fb9924912566bfc46e5d2069bbe6eddb34e6cc653", "3cbe035c4073fd9e98cd90b9d42f8d79254355a8b52d17c4f644695938c73c44"),
    "run/p1p1p1/3": ("d2820548e0d8775c014bf45872ff31b498da451b1aa7550b0f420b49750b3e84", "3cbe035c4073fd9e98cd90b9d42f8d79254355a8b52d17c4f644695938c73c44"),
    "run/p1p1p1/4": ("79c2df5a0e5fe9e64f97caa7841b322cd0654191da8ce05dd1a968f98df0fe32", "3cbe035c4073fd9e98cd90b9d42f8d79254355a8b52d17c4f644695938c73c44"),
    "run/bl-p3-point/0": ("3e58133d2d2b7bad6541fdae1e181d3ec974eacc84e111346e60a5b1bd226af3", "340543818cff34c15d25be0c5d4c8b888c4c97375dd87c6ba54127691cc88ae1"),
    "run/bl-p3-point/1": ("4eaa486937b444f64e94bfd8e1cfd247c7f9f92a5e9e73cfc5c3630d1431cbf3", "340543818cff34c15d25be0c5d4c8b888c4c97375dd87c6ba54127691cc88ae1"),
    "run/bl-p3-point/2": ("f26ca42d4d1d9d25d9fc20dfcd47c711539cfbf9e994de5c9701e762ff86eff1", "340543818cff34c15d25be0c5d4c8b888c4c97375dd87c6ba54127691cc88ae1"),
    "run/bl-p3-point/3": ("9ef5cb831a7aac869f8931bbec3db7ca8f523bd2b74b6b4cedf70d29c7c75ffa", "340543818cff34c15d25be0c5d4c8b888c4c97375dd87c6ba54127691cc88ae1"),
    "run/bl-p3-point/4": ("992c6323cbbd67bffdda466d1a2cbb1c9ec2e5ee29be4c395957ac0daf7d7247", "340543818cff34c15d25be0c5d4c8b888c4c97375dd87c6ba54127691cc88ae1"),
    "run/chain6-kernel/0": ("aff00c7ce9a487f639a1ca976d20af95a2eb2d23763585866af06198f254dfdd", "6aef1742ab08c120f21446321a0acfa10dc936a4832db5891c5da765a4560662"),
    "certify/symmetric": "57d207af4a5d2201595b69578342d77770312cb184b00a0829a6ab9bf9f308bb",
    "certify/doubled-point": "48e14a28532a0d12f3b143552413ba4789c0b6d801e03f7b239f69a858cde663",
    "certify/shared-point": "2b1a5ff224ee8dfc0a1cf6a95761a5da81c0d425440ef9c59a785713262624e1",
    "certify/extra-zero": "89130e3a962e3e4fb48bd196632e72a75dc6e73d989fac4fec99a01e088f27a2",
    "certify/pipeline/p3": "cb77fe93a6021bc9adf528514e85004063c68dc51fd3aa0565056c120978ce4e",
    "certify/pipeline/p1p1p1": "3cbe035c4073fd9e98cd90b9d42f8d79254355a8b52d17c4f644695938c73c44",
    "certify/pipeline/bl-p3-point": "340543818cff34c15d25be0c5d4c8b888c4c97375dd87c6ba54127691cc88ae1",
    "certify/p3-neg": "57d207af4a5d2201595b69578342d77770312cb184b00a0829a6ab9bf9f308bb",
    "certify/p3-inv2": "c54349fd1983f665fc1a0e9534469d5f990bf0b4d7acc3ac814977e86529d594",
    "certify/p1p1p1-inv2": "178144b87cfb3d41eef76a056d1cab92ebd792b02248c5bdf7e8486dbd4dc034",
    "certify/bl-inv2": "d74ea07cdfe5dc722a5225b1bd2b4f775f91cbfcd63d85e03a57f9b73239024b",
    "certify/bl-refl": "c1fa7b5e8ca119e40ccdd7715d8c3c6ee31b9eeb68c95a24056829c810b5995d",
    "certify/bl-some-neg": "3217f25fdadab069c3165ac59a9d7b110e817401f3d1c6e8c2593914824d5e26",
    "certify/bl-some-refl": "77dbccbdede4bdbd591954ccae84bcb0b7cbfa023d95d234cf16052d73be59ca",
    "certify/bl-some-inv2": "60f9783e054e3d126f2f10d50614be9621df09d4d20d81640c39e9fcd2d32784",
    "validate/non-primitive": "ff440d51657e3ac76a5233ef6e44647847da414da46b6febcaf59e611e00ca5e",
    "validate/non-unimodular": "18a0436049414cbb247067facf92e1f2f20af1fb58a885dd00989c279ea49250",
    "validate/deleted-cone": "973ef5cd1a3dfb54989523af4dcdcb07f958d2e73928967b051a0d81b21665f0",
    "validate/overlapping": "d772b266afb539a6e4a40678fb5f601f086c274dc72f5abb8913656d9c4f7d75",
    "validate/empty": "cb9585fbd56e34ff06b3063e445976cfda776ef1e854fef490379c0a9071a9fd",
    "validate/random/0": "464717e3605d068f52f01b3478d41c74093890a6aa0db5c42a550999ae752903",
    "validate/random/1": "391c2722a032bcc75562d6a0ee36d0d2bc4d9622a0e8905210633b6080327ab2",
    "validate/random/2": "2f6e1455f18f6772e1bdfc639f5cb0aaf62a9d26a52792121324da65ba33ceb7",
    "validate/random/3": "61f6f4ba65beb5d5a8be445541116d0aa34fbf424c6c73bbdd957060864f80c2",
    "validate/random/4": "3c07206a35fc2a33d1445662e8b92af0d0801a70e5b0fc639a5a564985906b58",
    "validate/random/5": "3b13bf8fa06df58b71ee9eda4847e6edbebc00fb550a4a441648bceb760d8d89",
    "validate/random/6": "73c9399d689aa3accd05379cef35f004c3038d62c1aca5a3bb89a629d19ea6a3",
    "validate/random/7": "d6e2a4e3fcca4e39be3d4ecbc84cf0df29ca377410462d7b3913cde7392af7ee",
    "validate/random/8": "355d6ac167ed90de11a09cc812c2b0bd3f2555f0e3c67b284ac714112f9d8fe9",
    "validate/random/9": "0c800d74fd54fb42bf1f34c3644eb43c4a4021f752f89e7d507a24d99a66f622",
    "validate/random/10": "a70bd6001d5c80cb35f95e38fbf96971dc9fac0314552b28a4b6cd2c87ebdc01",
    "validate/random/11": "a77f48dcacd8b9858f2d1d6cca2d52a012a80bb947a0cae5ce6a4ac1e38ce29f",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(argv):
    code, report = run_main(["run"] + argv)
    assert code == 0, report.get("error")
    paths = report["artifacts"]
    with open(paths["embedding"], "rb") as fh:
        embedding = fh.read()
    with open(paths["certificate"], "rb") as fh:
        certificate = fh.read()
    return _sha(embedding), _sha(certificate)


def _certify_digest(data) -> str:
    try:
        text = dumps_certificate(certify(data))
    except ValueError as exc:
        text = f"ValueError: {exc}"
    return _sha(text.encode("utf-8"))


def _sigma(kind: str):
    if kind == "neg":
        return lambda a: -a
    if kind == "inv":
        return lambda a: F(2) / a
    return lambda a: 1 - a  # reflection about 1/2


def involution_data(base: str, kind: str, mode: str) -> EmbeddingData:
    """Divisors made of whole orbits of an involution sigma of the line.

    A divisor of whole orbits has a sigma-invariant polynomial up to a
    constant, so every chart coordinate agrees at t and sigma(t).  In
    ``some`` mode each ray of degree above two instead gets d - 1 free
    points plus one solved point that makes its polynomial agree at one
    planted pair (s0, sigma(s0)) only.
    """
    fan = preset(base)
    sigma = _sigma(kind)
    degrees = tuple(2 * v for v in xi_vector(fan, None, method="kernel").values)
    stream = (F(n, d) for n in range(3, 400) for d in (1, 2, 3) if n % d)
    used: set = set()

    def fresh():
        for a in stream:
            b = sigma(a)
            if a != b and a not in used and b not in used:
                used.update((a, b))
                return a
        raise AssertionError("point stream exhausted")

    s0 = fresh()
    u0 = sigma(s0)
    divisors = []
    for d in degrees:
        if mode == "every" or d == 2:
            points = []
            while len(points) < d:
                a = fresh()
                points += [a, sigma(a)]
        else:
            while True:
                free = [fresh() for _ in range(d - 1)]
                ps = pu = F(1)
                for a in free:
                    ps *= s0 - a
                    pu *= u0 - a
                if ps == pu:
                    continue
                last = (u0 * pu - s0 * ps) / (pu - ps)
                if last not in used:
                    used.add(last)
                    points = free + [last]
                    break
        divisors.append(CDivisor.of({CurvePoint(p): 1 for p in points}))
    pairing = pairing_matrix(fan)
    epsilon = []
    for i in range(3):
        combo = CDivisor(())
        for rho, divisor in enumerate(divisors):
            if pairing[i][rho]:
                combo = combo + divisor.scale(pairing[i][rho])
        epsilon.append(principal_function(combo))
    data = EmbeddingData(
        fan, None, XiVector(degrees, "kernel"), tuple(divisors), tuple(epsilon), (F(1),) * 3
    )
    assert check_theorem_conditions(data).passed
    return data


def _preset_case(name, seed, tmp):
    return _run_digests(["--preset", name, "--seed", str(seed), "--out", str(tmp)])


def _chain_case(tmp):
    fan = preset("p3")
    for cone in KERNEL_CHAIN:
        fan = star_subdivision(fan, cone)
    path = tmp / "chain.fan"
    tmp.mkdir(parents=True, exist_ok=True)
    save_fan(fan, path)
    return _run_digests(["--fan", str(path), "--xi-method", "kernel", "--out", str(tmp / "out")])


FIXTURE_DATA = {
    "symmetric": negative_fixtures.symmetric_data,
    "doubled-point": negative_fixtures.doubled_point_data,
    "shared-point": lambda: negative_fixtures.shared_point_data()[0],
    "extra-zero": lambda: negative_fixtures.extra_zero_data()[0],
    **{f"pipeline/{name}": (lambda name=name: negative_fixtures.pipeline_data(name))
       for name in PRESETS},
}


@functools.cache
def random_invalid_fans(seed: int, count: int) -> tuple:
    """Random cone sets on box rays, chains with one ray moved, chains with an extra cone."""
    rng = random.Random(seed)
    box = [v for v in product(range(-2, 3), repeat=3) if any(v)]
    fans = []
    for n in range(count):
        if n % 3 == 0:
            rays = rng.sample(box, rng.randint(4, 7))
            triples = list(combinations(range(len(rays)), 3))
            size = min(len(triples), rng.randint(2, 8))
            fans.append(Fan(tuple(rays), tuple(rng.sample(triples, size))))
            continue
        fan = preset("p3")
        for _ in range(rng.randint(1, 3)):
            fan = star_subdivision(fan, rng.choice(fan.max_cones))
        if n % 3 == 1:
            rays = list(fan.rays)
            rays[rng.randrange(len(rays))] = rng.choice([v for v in box if v not in rays])
            fans.append(Fan(tuple(rays), fan.max_cones))
        else:
            spare = [t for t in combinations(range(fan.n_rays), 3) if t not in fan.max_cones]
            fans.append(Fan(fan.rays, fan.max_cones + (rng.choice(spare),)))
    return tuple(fans)


P3 = preset("p3")
# the invalid fans of test_fan.py, then the seeded random ones
VALIDATION_FANS = {
    "non-primitive": lambda: Fan(((2, 0, 0),) + P3.rays[1:], P3.max_cones),
    "non-unimodular": lambda: Fan(((1, 0, 0), (1, 2, 0), (0, 0, 1)), ((0, 1, 2),)),
    "deleted-cone": lambda: Fan(P3.rays, P3.max_cones[:-1]),
    "overlapping": lambda: Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
                               ((0, 1, 2), (0, 1, 3))),
    "empty": lambda: Fan(((1, 0, 0),), ()),
    **{f"random/{n}": (lambda n=n: random_invalid_fans(2027, 12)[n]) for n in range(12)},
}


def _validate_stdout(fan, tmp) -> str:
    tmp.mkdir(parents=True, exist_ok=True)
    path = tmp / "fan.json"
    save_fan(fan, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["fan", "validate", "--fan", str(path)])
    return out.getvalue()


def current_digests(tmp) -> dict:
    out = {}
    for name in PRESETS:
        for seed in SEEDS:
            out[f"run/{name}/{seed}"] = _preset_case(name, seed, tmp / f"{name}-{seed}")
    out["run/chain6-kernel/0"] = _chain_case(tmp / "chain6")
    for label, make in FIXTURE_DATA.items():
        out[f"certify/{label}"] = _certify_digest(make())
    for label, args in INVOLUTIONS.items():
        out[f"certify/{label}"] = _certify_digest(involution_data(*args))
    for label, make in VALIDATION_FANS.items():
        text = _validate_stdout(make(), tmp / "validate")
        out[f"validate/{label}"] = _sha(text.encode("utf-8"))
    return out


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_run_pipeline_replays_the_pinned_bytes(name, seed, tmp_path):
    assert _preset_case(name, seed, tmp_path) == GOLDEN[f"run/{name}/{seed}"]


def test_kernel_chain_replays_the_pinned_bytes(tmp_path):
    assert _chain_case(tmp_path) == GOLDEN["run/chain6-kernel/0"]


def test_each_record_is_written_as_its_fields(tmp_path):
    """The JSON objects that mirror a record are its _asdict(), so renaming a
    field renames a key of a pinned file or a report."""
    code, report = run_main(["run", "--preset", "p3", "--seed", "0", "--out", str(tmp_path)])
    assert code == 0
    with open(report["artifacts"]["certificate"], "rb") as fh:
        text = fh.read()
    assert _sha(text) == GOLDEN["run/p3/0"][1]  # a golden certificate.json
    cert = json.loads(text)
    assert list(cert) == sorted(Certificate._fields)  # the writer sorts keys
    assert cert["charts"] and all(list(c) == sorted(ChartRecord._fields) for c in cert["charts"])
    assert list(report["validation"]) == sorted(ValidationReport._fields)
    with open(report["artifacts"]["embedding"], encoding="utf-8") as fh:
        assert list(json.load(fh)["xi"]) == list(XiVector._fields)  # in field order
    ample = tmp_path / "ample.json"
    assert run_main(["ample", "find", "--preset", "p3", "--out", str(ample)])[0] == 0
    assert list(json.loads(ample.read_text(encoding="utf-8"))) == list(TDivisor._fields)


@pytest.mark.parametrize("label", sorted(FIXTURE_DATA))
def test_negative_fixture_certificates_replay(label):
    assert _certify_digest(FIXTURE_DATA[label]()) == GOLDEN[f"certify/{label}"]


@pytest.mark.parametrize("label", sorted(INVOLUTIONS))
def test_involution_certificates_replay(label):
    data = involution_data(*INVOLUTIONS[label])
    assert not certify(data).embedded
    assert _certify_digest(data) == GOLDEN[f"certify/{label}"]


@pytest.mark.parametrize("label", list(VALIDATION_FANS))
def test_validation_reports_replay(label, tmp_path):
    text = _validate_stdout(VALIDATION_FANS[label](), tmp_path)
    assert '"status": "invalid"' in text
    assert _sha(text.encode("utf-8")) == GOLDEN[f"validate/{label}"]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        digests = current_digests(Path(tmp))
    sys.stdout.write("GOLDEN = {\n")
    for key, value in digests.items():
        sys.stdout.write(f"    {key!r}: {value!r},\n")
    sys.stdout.write("}\n")
