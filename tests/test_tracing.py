"""The per-layer benchmark run (perfbench/tracing.py) wraps proben's names from
outside the program; each must still resolve, with the kind it expects."""

import inspect
import os

import pytest

from proben.detections import ClassScores

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_every_traced_name_resolves_and_is_restored(tracing):
    tracer = tracing.Tracer()
    targets = [(owner, attribute) for owner, attribute, _ in tracer._targets()]
    originals = {}
    for owner, attribute in targets:
        original = vars(owner).get(attribute)
        assert original is not None, f"{owner.__name__}.{attribute} is gone"
        if owner is ClassScores and attribute.startswith("from_"):
            assert isinstance(original, classmethod), attribute
        else:
            assert inspect.isfunction(original), f"{owner.__name__}.{attribute}"
        originals[(owner, attribute)] = original

    with tracer.installed():
        for owner, attribute in targets:
            assert vars(owner)[attribute] is not originals[(owner, attribute)]
    for owner, attribute in targets:
        assert vars(owner)[attribute] is originals[(owner, attribute)]
