"""The traced benchmark run finds every binding it wraps.

`perfbench/tracing.py` looks each FUNCTIONS entry up as a module attribute
and each METHODS entry in its class's own ``__dict__``; a renamed or moved
binding would stop `perfbench/run.py --trace 1` at startup.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lslab(module: str):
    return importlib.import_module(f"lslab.{module}")


def test_every_traced_function_is_a_module_attribute():
    missing = [
        (module, attr) for module, attr, _ in _tracing().FUNCTIONS
        if not callable(getattr(_lslab(module), attr, None))
    ]
    assert missing == []


def test_every_traced_method_is_in_its_class_dict():
    missing = [
        (module, cls, attr) for module, cls, attr, _ in _tracing().METHODS
        if attr not in vars(getattr(_lslab(module), cls))
    ]
    assert missing == []
