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
