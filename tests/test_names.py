import ast
import importlib
from pathlib import Path

import pytest

PACKAGES = ("liepowers", "liepowers.combinat", "liepowers.linalg",
            "liepowers.freelie", "liepowers.descent", "liepowers.modrep",
            "liepowers.decompose")
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets():
    """Every "module:qualname" in the GROUPS table of bench/tracer.py, read
    from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["GROUPS"]:
            groups = ast.literal_eval(node.value)
            return sorted(t for targets in groups.values() for t in targets)
    raise AssertionError("no GROUPS table in %s" % TRACER)


@pytest.mark.parametrize("target", _tracer_targets())
def test_tracer_targets_resolve(target):
    # the tracer wraps these by name, in the package or on their class
    modname, qualname = target.split(":")
    owner = importlib.import_module(
        "liepowers." + modname if modname else "liepowers")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert attr in vars(owner) if path else callable(getattr(owner, attr))


@pytest.mark.parametrize("modname", PACKAGES)
def test_all_names_exist(modname):
    module = importlib.import_module(modname)
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)
