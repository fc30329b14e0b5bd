"""Quality gate: every public item and every env knob is documented.

The deliverable requires doc comments on every public API element; this
meta-test enforces it mechanically for all modules, public classes and
public functions of the package.  It also holds the ``REPRO_*``
environment variables the package reads to exactly the set the README
documents, so no knob is undocumented and no documented knob is dead.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(_walk_modules())

ROOT = Path(__file__).resolve().parents[1]
ENV_KNOB = re.compile(r"REPRO_[A-Z_]+")


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module.__name__:
            continue  # re-exported from elsewhere
        if not (item.__doc__ and item.__doc__.strip()):
            undocumented.append(name)
            continue
        if inspect.isclass(item):
            for member_name, member in vars(item).items():
                if member_name.startswith("_"):
                    continue
                if inspect.isfunction(member) and not (
                    member.__doc__ and member.__doc__.strip()
                ):
                    undocumented.append(f"{name}.{member_name}")
    assert not undocumented, (
        f"{module.__name__} has undocumented public items: {undocumented}"
    )


def test_every_env_knob_is_documented_in_the_readme():
    in_source = {
        name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in ENV_KNOB.findall(path.read_text())
    }
    in_readme = set(ENV_KNOB.findall((ROOT / "README.md").read_text()))
    assert in_source == in_readme
