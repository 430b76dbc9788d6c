import importlib
import pkgutil

import pytest

import thuwb

MODULES = sorted(info.name for info in pkgutil.iter_modules(thuwb.__path__))


@pytest.mark.parametrize("name", ["thuwb"] + [f"thuwb.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_package_exports_no_test_only_helper():
    assert "dump_components_csv" not in thuwb.__all__
