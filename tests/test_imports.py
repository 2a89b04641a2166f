"""Every module reads each name it imports (``__init__.py`` re-exports, so it is skipped), and a verify pass
imports no more of numpy than the package needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in the module that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unused_imports_found():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n\nprint(np.pi, sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 3)"]


def test_no_module_imports_a_name_it_never_reads():
    files = sorted(ROOT.glob("src/quasieq/*.py")) + sorted(ROOT.glob("tests/*.py"))
    assert len(files) > 20
    found = {
        str(path.relative_to(ROOT)): unused
        for path in files
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_a_float_verify_does_not_import_numpy_random():
    # the float plans draw through random.Random.getrandbits; numpy.random would add its import time and memory
    code = (
        "import sys\n"
        "from quasieq.catalog import random_instance\n"
        "from quasieq.solver import verify_theorem_instance\n"
        "inst = random_instance(3, dim=2)\n"
        "assert not inst.K.domain.is_exact\n"
        "verify_theorem_instance(inst, inst.config(points_per_axis=(21, 21)))\n"
        "sys.exit('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=300).returncode == 0
