"""The benchmark's tracer rebinds library functions by name: every target
it lists must still resolve, and FactorSystem's counted methods must stay
methods of the class (an instance attribute is invisible to getattr on the
class, and the traced benchmark pass then dies)."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    for module_name, attribute, _ in tracing.SPANNED + tracing.COUNTED:
        assert callable(getattr(importlib.import_module(module_name), attribute))
    for module_name, cls_name, attribute, _ in tracing.COUNTED_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(getattr(cls, attribute)), (cls_name, attribute)


def test_installing_the_tracer_restores_every_binding():
    tracing = load_tracing()
    targets = [(importlib.import_module(m), a) for m, a, _ in tracing.SPANNED + tracing.COUNTED]
    targets += [
        (getattr(importlib.import_module(m), c), a) for m, c, a, _ in tracing.COUNTED_METHODS
    ]
    before = [getattr(owner, attribute) for owner, attribute in targets]
    with tracing.Tracer().installed():
        pass
    assert [getattr(owner, attribute) for owner, attribute in targets] == before
