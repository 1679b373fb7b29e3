"""The benchmark's traced run wraps a fixed list of library call sites.

A site that was renamed or removed is reported ``absent`` there, and only
the harness's own slow self-test would notice; this checks the list against
the library directly, with the harness's own resolution code.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_call_site_resolves():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    with spans.Tracer().installed() as tracer:
        absent = list(tracer.absent)
    assert absent == [], f"traced names with no call site: {absent}"
