"""The benchmark's tracer wraps liegeom functions by module and name.

``bench/tracer.py`` is loaded by path, as ``test_golden.py`` loads the
corpus; a renamed or moved function that the tracer names makes
`Tracer.install` fail here rather than in a benchmark run.  The tracer also
replaces `MetricLieAlgebra` members and `RatFunc` special methods in the
class dictionaries, so a member that moves out of its class dictionary
(say `RatFunc.__radd__` inherited or built on the fly) fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

from liegeom.algebra import MetricLieAlgebra
from liegeom.scalars import RatFunc

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_tracer_installs_and_uninstalls():
    for module in {module for _, module, _ in tracer.FUNCTIONS}:
        importlib.import_module(module)
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for _, module, attr in tracer.FUNCTIONS
    }
    t = tracer.Tracer(0)
    t.install()
    try:
        for (module, attr), orig in originals.items():
            assert getattr(importlib.import_module(module), attr) is not orig
    finally:
        t.uninstall()
    for (module, attr), orig in originals.items():
        assert getattr(importlib.import_module(module), attr) is orig


def test_tracer_replaces_class_members():
    members = [(MetricLieAlgebra, attr) for attr in tracer.ALGEBRA_MEMBERS]
    members += [(RatFunc, attr) for attr in tracer.SCALAR_METHODS]
    originals = {(cls, attr): cls.__dict__[attr] for cls, attr in members}
    t = tracer.Tracer(0)
    t.install()
    try:
        for (cls, attr), orig in originals.items():
            assert cls.__dict__[attr] is not orig, (cls.__name__, attr)
    finally:
        t.uninstall()
    for (cls, attr), orig in originals.items():
        assert cls.__dict__[attr] is orig, (cls.__name__, attr)
