"""The benchmark's tracer wraps module attributes by name.

pipebench/tracing.py replaces each of its TARGETS at the attribute its caller
looks it up by, so a deleted or renamed function fails here, not only when
the benchmark runs.  The tracer is loaded from its file and left unchanged.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "pipebench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_wrapped_and_uninstall_puts_the_original_back():
    tracing = _load_tracing()
    targets = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in owner.__dict__]
    assert not missing  # checked first: install stops at a missing one, past the ones it wrapped
    originals = [owner.__dict__[attr] for owner, attr in targets]
    saved = tracing.install(tracing.Recorder())
    try:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(targets, originals))
    finally:
        tracing.uninstall(saved)
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(targets, originals))
