"""The per-layer benchmark run (perfbench/tracing.py) wraps proben's names from
outside the program; each must still resolve, with the kind it expects."""

import ast
import glob
import inspect
import os

import pytest

from proben.detections import ClassScores

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


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


def tracer_only_names():
    """(module, name) for each name that a ``# noqa: F401`` import brings into
    a module of the program, plus ``engine._select_per_modality``: names the
    program keeps only for the tracer to wrap."""
    names = {("proben.engine", "_select_per_modality")}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "proben", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        module = "proben." + os.path.basename(path)[: -len(".py")]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                names |= {(module, alias.asname or alias.name) for alias in node.names}
    return names


def test_every_tracer_only_name_is_traced(tracing):
    """A name kept only for the tracer goes once the tracer stops wrapping it."""
    targets = {(owner.__name__, attribute) for owner, attribute, _ in tracing.Tracer()._targets()}
    untraced = sorted(tracer_only_names() - targets)
    assert not untraced, f"kept for the tracer, which no longer wraps them: {untraced}"


def test_every_exported_name_resolves():
    import proben

    assert len(set(proben.__all__)) == len(proben.__all__)
    assert [name for name in proben.__all__ if not hasattr(proben, name)] == []
