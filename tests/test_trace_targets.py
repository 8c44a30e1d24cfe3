"""The benchmark's traced run wraps functions by name.

``perfbench/tracing.py`` lists them in ``SPAN_TARGETS`` and ``COUNT_TARGETS``,
and ``perfbench/tests`` (which this suite does not collect) fails when one is
missing.  These tests load that file without changing it and resolve every
name the way the tracer does, so deleting or renaming a traced function
fails here as well.  The tracer also reads ``witness_search``'s positional
arguments, so a change to them is checked against it here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from poset_ramsey.cli import main

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


def test_tracer_splits_symmetric_and_plain_searches():
    """The tracer files a search under "sym" or "plain" by the truth of
    ``witness_search``'s eighth positional argument: the lex-leader plan,
    or None without symmetry."""
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for flags in ([], ["--symmetry"]):
            assert main(["witness", "--chain", "3", "--n", "2", "--N", "3", *flags]) == 0
    finally:
        tracer.uninstall()
    assert tracer.extra["kernels.witness_search.sym.nodes"] > 0
    assert tracer.extra["kernels.witness_search.plain.nodes"] > 0
