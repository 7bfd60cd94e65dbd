"""perfbench's span patch targets exist and are put back.

``perfbench/spans.py`` wraps the package's methods and fast-path
binders by name, so a rename there breaks the traced benchmark run
(CI ``perfbench-smoke``) only once it runs.  These tests load the
module by path and check every name it patches, and that
``Recorder.install`` followed by ``restore`` leaves each patched class
attribute exactly as it was.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.mem.cache import Cache
from repro.mem.memctrl import MemoryController
from repro.mem.mirage import MirageCache

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: The fast-path binders ``Recorder.install`` wraps besides METHOD_SPANS.
_BINDERS = ((Cache, "bind_fast_probe"), (Cache, "bind_fast_fill"),
            (MirageCache, "bind_fast_probe"), (MirageCache, "bind_fast_fill"),
            (MemoryController, "bind_engine_ops"))

_MISSING = object()


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans):
    """Every (class, attribute) pair ``Recorder.install`` patches."""
    out = []
    for module, cls_name, attr, _ in spans.METHOD_SPANS:
        out.append((getattr(importlib.import_module(module), cls_name),
                    attr))
    return out + list(_BINDERS)


def test_every_patched_name_resolves(spans):
    for module, cls_name, attr, _ in spans.METHOD_SPANS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None, f"{module}.{cls_name}"
        assert callable(getattr(cls, attr, None)), \
            f"{module}.{cls_name}.{attr}"
    for cls, attr in _BINDERS:
        assert callable(getattr(cls, attr, None)), f"{cls.__name__}.{attr}"


def test_install_then_restore_leaves_every_attribute_as_it_was(spans):
    targets = _targets(spans)
    before = [(cls.__dict__.get(attr, _MISSING), getattr(cls, attr))
              for cls, attr in targets]
    rec = spans.Recorder()
    rec.install()
    try:
        patched = [getattr(cls, attr) for cls, attr in targets]
    finally:
        rec.restore()
    assert all(new is not old for new, (_, old) in zip(patched, before)), \
        "install left a target unwrapped"
    after = [(cls.__dict__.get(attr, _MISSING), getattr(cls, attr))
             for cls, attr in targets]
    for (cls, attr), (own0, got0), (own1, got1) in zip(targets, before,
                                                        after):
        assert own1 is own0, f"{cls.__name__}.{attr}"
        assert got1 is got0, f"{cls.__name__}.{attr}"
