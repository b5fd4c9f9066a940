import ast
import json
import os
import pathlib
import subprocess
import sys

import pencilfiber


def test_every_public_name_resolves():
    missing = [name for name in pencilfiber.__all__ if not hasattr(pencilfiber, name)]
    assert missing == []
    assert len(set(pencilfiber.__all__)) == len(pencilfiber.__all__)


def test_import_loads_only_the_standard_library():
    # a fresh interpreter, so modules the test run has loaded do not hide any
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import pencilfiber, pencilfiber.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = str(pathlib.Path(pencilfiber.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True)
    loaded = json.loads(proc.stdout)
    assert "pencilfiber.cli" in loaded
    foreign = [
        name for name in loaded if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "pencilfiber"
    ]
    assert foreign == []


def test_src_has_no_assert_statement():
    # python -O strips assert statements; every check in the package is an explicit raise
    found = []
    for path in sorted(pathlib.Path(pencilfiber.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
