"""The benchmark's tracer wraps liegeom functions by module and name.

``bench/tracer.py`` is loaded by path, as ``test_golden.py`` loads the
corpus; a renamed or moved function that the tracer names makes
`Tracer.install` fail here rather than in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

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
