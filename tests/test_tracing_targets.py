"""The targets of the benchmark tracer exist in the package.

``bench/tracing.py`` wraps library functions and methods by name. A
refactor that drops or renames one of them would break
``bench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists():
    tracing = _tracing()
    missing = [name for name, owner, attr in tracing.TARGETS if attr not in owner.__dict__]
    assert missing == []
    assert set(tracing.RESULT_COUNTS) <= {name for name, _, _ in tracing.TARGETS}
