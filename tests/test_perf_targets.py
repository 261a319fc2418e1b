"""Tier-1 guard for what the frozen benchmark reaches into ``src/``.

``perf/trace.py`` wraps dotted names and ``perf/layers.py`` probes engine
attributes; a rename in ``src/`` makes the first land in ``trace.missing``
and the second read ``-1`` — silently, and only the separate ``perf-smoke``
CI job would notice.  This fails at the rename instead.
"""

from __future__ import annotations

import inspect
import re

import pytest

from perf import layers, trace
from repro import open_broker

#: The attribute paths ``perf.layers.introspect`` reads off a live broker,
#: taken from its source so the list cannot drift from the benchmark.
PROBES = re.findall(r'probe\(broker, "([^"]+)"\)', inspect.getsource(layers.introspect))


@pytest.mark.parametrize("dotted", sorted({dotted for _, dotted in trace.TARGETS}))
def test_trace_target_resolves(dotted):
    owner, attribute = trace._resolve(dotted)
    assert callable(getattr(owner, attribute))


def test_the_probes_were_found():
    assert "engine._processor.state.relations" in PROBES and len(PROBES) >= 4


@pytest.mark.parametrize("path", PROBES)
def test_layer_probe_resolves_on_a_default_broker(path):
    with open_broker() as broker:
        assert layers.probe(broker, path) is not None
