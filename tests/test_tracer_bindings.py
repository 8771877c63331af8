"""The bench tracer's wrap targets exist in the package.

``bench/tracer.py`` wraps module bindings from outside the package, so a
refactor that drops or renames one of them breaks the benchmark, not
the package. This test loads the tracer by path and checks every
binding it names, so such a refactor fails here first.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    tracer = _load_tracer()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracer.TARGETS
               if not callable(getattr(owner, attr, None))]
    # counted methods are looked up in the class dict, as Tracer.install does
    missing += [f"{owner.__name__}.{attr}" for owner, attr, _ in tracer.COUNTED
                if not callable(owner.__dict__.get(attr))]
    assert tracer.TARGETS and tracer.COUNTED
    assert missing == []
