"""Every name a package module imports is used in that module, importing
the package pulls in nothing beyond numpy, and a module loads only the
modules it imports."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nafdrive"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} imports unused {sorted(imported - used)}"


def _loaded(statement: str, package: str) -> list[str]:
    """The modules of `package` loaded after `statement` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = (f"import sys; {statement}; "
            f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_import_loads_no_scipy():
    assert _loaded("import nafdrive, nafdrive.cli", "scipy") == []


def test_package_root_loads_no_module():
    assert _loaded("import nafdrive", "nafdrive") == ["nafdrive"]


def test_simworld_loads_neither_learner_nor_cli():
    loaded = _loaded("import nafdrive.simworld", "nafdrive")
    assert "nafdrive.simworld" in loaded
    assert "nafdrive.learner" not in loaded and "nafdrive.cli" not in loaded
