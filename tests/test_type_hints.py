import importlib
import inspect
import pkgutil
import typing

import pytest

import proben

MODULES = [
    importlib.import_module(f"proben.{name}")
    for name in sorted(info.name for info in pkgutil.iter_modules(proben.__path__))
]


def public_callables(module):
    """The module's own public functions and classes, and the public methods,
    class methods, static methods and properties of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_annotation_resolves(module):
    checked = 0
    for name, obj in public_callables(module):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # noqa: BLE001 - name the function whose hints fail
            pytest.fail(f"{module.__name__}.{name}: {type(exc).__name__}: {exc}")
        checked += 1
    assert checked > 0
