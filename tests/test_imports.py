import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)


def test_package_imports_only_numpy():
    # scipy and sympy are test oracles, never runtime dependencies, and
    # sweeps need no thread pool
    code = ("import sys, calderon_lab.cli\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.startswith(('scipy', 'sympy', 'concurrent')))\n"
            "print(','.join(heavy))\n")
    assert _python("-c", code).stdout.strip() == ""


def test_cli_module_runs_once():
    # the package does not import cli itself, so runpy does not find it
    # in sys.modules and warn before running it as __main__
    assert _python("-m", "calderon_lab.cli", "--help").stderr == ""


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_detector():
    assert _unused_imports("import math\nfrom os import path, sep\nsep\n") == ["math", "path"]


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    unused = {p.name: _unused_imports(p.read_text())
              for p in sorted((SRC / "calderon_lab").glob("*.py"))
              if p.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
