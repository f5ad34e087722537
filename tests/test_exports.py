"""Every name a pointseq module lists in ``__all__`` resolves, and once.

The benchmark tracer wraps each name in ``autograd.__all__`` by ``getattr``,
so a stale entry would break a traced run.
"""

import importlib
import pkgutil

import pytest

import pointseq

MODULES = ["pointseq"] + [f"pointseq.{m.name}" for m in pkgutil.iter_modules(pointseq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
