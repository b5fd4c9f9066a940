"""Set-up as a user pays it: a fresh interpreter imports the CLI and loads inputs.

Usage: python3 perfbench/setup_probe.py <input-dir>

Every ``*.json`` file under the directory is parsed with the public loader
for its format.  ``run.py`` times whole launches of this script for setup_s.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pencilfiber.cli  # noqa: E402,F401  (the import is what is measured)
from pencilfiber.arrangement import Arrangement  # noqa: E402
from pencilfiber.catalan import QuasiToricRelation  # noqa: E402
from pencilfiber.forms import UniPoly  # noqa: E402
from pencilfiber.pencils import PencilDecomposition  # noqa: E402


def load(data: dict) -> object:
    if "lines" in data:
        return Arrangement.from_json(data)
    if "classes" in data:
        return PencilDecomposition.from_json(data)
    if "known_factors" in data:
        return QuasiToricRelation.from_json(data["relation"]), [UniPoly.from_json(p) for p in data["known_factors"]]
    raise ValueError("unrecognised input file")


def main(directory: str) -> int:
    paths = sorted(Path(directory).rglob("*.json"))
    if not paths:
        print(f"no input files under {directory}", file=sys.stderr)
        return 1
    for path in paths:
        load(json.loads(path.read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
