#!/usr/bin/env python3
"""Run the consistency crosscheck over the shipped corpus and print the table.

Exit status follows the CLI contract: 0 when every arrangement satisfies
(s > 0) <=> (composed of a reduced pencil), has isotropic resonance
components, has s == beta3 <= 2 and (3^beta3 - 1)/2 pencils, and all
equal-type pairs agree; 3 otherwise.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from pencilfiber.cli import main  # noqa: E402

if __name__ == "__main__":
    corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
    sys.exit(main(["crosscheck", str(corpus)]))
