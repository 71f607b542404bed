"""The benchmark's tracer wraps functions by (module, attribute) name; a
renamed target would otherwise surface only as a traceback from the traced
benchmark run.  ``bench/tracer.py`` imports nothing but the standard
library, so it is loaded here from its file."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attribute",
                         [patch[:2] for patch in load_tracer().PATCHES])
def test_every_patch_target_exists(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
