import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_imports_only_numpy():
    # scipy and sympy are test oracles, never runtime dependencies
    code = ("import sys, calderon_lab\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.startswith(('scipy', 'sympy')))\n"
            "print(','.join(heavy))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""
