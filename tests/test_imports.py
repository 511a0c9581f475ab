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


README = SRC.parent / "README.md"


def _readme_library_names() -> set[str]:
    """The names of the README's `from calderon_lab import (...)` block."""
    text = README.read_text()
    start = text.index("from calderon_lab import (")
    block = text[start:text.index(")", start) + 1]
    node = ast.parse(block).body[0]
    return {a.name for a in node.names}


def _package_exports() -> set[str]:
    """The names __init__.py re-exports from the package's modules."""
    tree = ast.parse((SRC / "calderon_lab" / "__init__.py").read_text())
    return {a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for a in node.names}


def test_readme_library_block_equals_exports():
    assert _readme_library_names() == _package_exports()


def test_public_names_reached():
    # every public module-level function or class is used somewhere in
    # the package (its own module included; __init__.py's re-export does
    # not count) or is documented library API
    defined, referenced = {}, set()
    for path in sorted((SRC / "calderon_lab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = {name: module for name, module in defined.items()
                 if name not in referenced | _readme_library_names()}
    assert unreached == {}
