"""The benchmark's traced run wraps functions by name.

``perfbench/tracing.py`` lists them in ``SPAN_TARGETS`` and ``COUNT_TARGETS``,
and ``perfbench/tests`` (which this suite does not collect) fails when one is
missing.  This test loads that file without changing it and resolves every
name the way the tracer does, so deleting or renaming a traced function
fails here as well.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    targets = tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
    assert targets
    missing = []
    for name, module, attr in targets:
        owner: object = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
