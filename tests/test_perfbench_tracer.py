"""The benchmark's tracer must find every modnls name it wraps.

``perfbench/tracer.py`` wraps functions by attribute name and records a name
it cannot find as missing instead of failing, so a rename in ``src/`` would
silently drop per-layer metrics.  This check makes such a rename fail here.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        tracer.install(t)
    finally:
        left_wrapped = t.restore()
    assert t.missing == []
    assert left_wrapped == []
