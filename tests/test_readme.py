"""The Python code blocks of README.md run as written, and every dotted
name it cites in backticks from the package resolves."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mangeron
from mangeron.solver import METHODS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)

#: backticked dotted names, alone or called (`mms.make_mms(...)`), whose
#: head is the package, one of its submodules or a name the package exports;
#: `report.json` and the like name no part of the package
SUBMODULES = {m.name for m in pkgutil.iter_modules(mangeron.__path__)}
NAMES = sorted({name for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[`(]", README)
                if name.split(".")[0] in SUBMODULES | {"mangeron"}
                or hasattr(mangeron, name.split(".")[0])})


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _has(owner, attr: str) -> bool:
    """An attribute of `owner`; for a class, also a dataclass field or an
    attribute that its __init__ sets on the instance."""
    if hasattr(owner, attr):
        return True
    if not inspect.isclass(owner):
        return False
    if attr in getattr(owner, "__dataclass_fields__", {}):
        return True
    init = owner.__init__
    return (inspect.isfunction(init)
            and re.search(rf"\bself\.{attr}\s*=", inspect.getsource(init)) is not None)


def test_readme_cites_package_names():
    assert "solver.SINGULAR_CONDITION" in NAMES
    assert "SolutionBundle.boundary_values" in NAMES
    assert "report.json" not in NAMES


def test_readme_route_lists_are_the_solver_methods():
    # the `--method` flag text and the config comment, with or without spaces
    lists = re.findall(r"\bauto(?:\s*\|\s*\w+)+", README)
    assert len(lists) >= 2
    for text in lists:
        assert re.sub(r"\s", "", text) == "|".join(METHODS), text


@pytest.mark.parametrize("name", NAMES)
def test_readme_dotted_name_resolves(name):
    parts = name.split(".")
    if parts[0] == "mangeron":
        parts = parts[1:]
    head, rest = parts[0], parts[1:]
    obj = (importlib.import_module(f"mangeron.{head}") if head in SUBMODULES
           else getattr(mangeron, head))
    for attr in rest:
        assert _has(obj, attr), f"README cites `{name}`, but {obj!r} has no {attr!r}"
        obj = getattr(obj, attr, None)
