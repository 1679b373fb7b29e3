"""The benchmark's traced run wraps a fixed list of library call sites.

A site that was renamed or removed is reported ``absent`` there, and a site
that resolves but is no longer reached leaves its span empty; only the
harness's own slow self-test would notice either.  This checks the list
against the library directly, with the harness's own tracer.
"""

import importlib.util
from pathlib import Path

from broadcastnet import build, certify_graph, make_params

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_call_site_resolves():
    spans = _spans()
    assert spans.WRAPPED
    with spans.Tracer().installed() as tracer:
        absent = list(tracer.absent)
    assert absent == [], f"traced names with no call site: {absent}"


def test_every_traced_name_records_a_span():
    # a build and a certification reach every wrapped call site, so a call
    # that moved past its wrapper shows up here as an empty span
    spans = _spans()
    params = make_params(7, 3, 191)
    with spans.Tracer().installed() as tracer:
        g, layout, _ = build(params)
        assert certify_graph(g, layout, params, jobs=1).passed
    recorded = tracer.summary()
    empty = [name for *_, name in spans.WRAPPED if name not in recorded]
    assert empty == [], f"traced names that recorded no span: {empty}"
