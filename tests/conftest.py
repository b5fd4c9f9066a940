import json
import pathlib
import random
from itertools import combinations

import pytest

from pencilfiber.arrangement import Arrangement, proj_transform
from pencilfiber.eisenstein import EisensteinNumber
from pencilfiber.fixtures import braid, ceva_two, dual_hesse, four_concurrent

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    path = ROOT / "corpus"
    assert path.is_dir(), "run scripts/gen_corpus.py first"
    return path


@pytest.fixture(scope="session")
def incidence_inputs(corpus_dir) -> list[Arrangement]:
    """Arrangements for the incidence and superabundance oracles.

    The corpus, the 511 sub-arrangements of dual_hesse, six seeded images
    under matrices with Q(w) entries of each of dual_hesse, braid, ceva_two
    and four lines through one point, and those four lines themselves.
    """
    inputs = [Arrangement.from_json(json.loads(p.read_text())) for p in sorted(corpus_dir.glob("*.json"))]
    hesse = dual_hesse()
    for k in range(1, 10):
        inputs.extend(Arrangement([hesse.lines[i] for i in lines]) for lines in combinations(range(9), k))
    rng = random.Random(17)
    for base in (dual_hesse(), braid(), ceva_two(), four_concurrent()):
        images = 0
        while images < 6:
            m = [
                [EisensteinNumber(rng.randint(-6, 6), rng.randint(-6, 6)) / rng.randint(1, 9) for _ in range(3)]
                for _ in range(3)
            ]
            try:
                inputs.append(proj_transform(base, m))
            except ValueError:
                continue
            images += 1
    inputs.append(four_concurrent())
    return inputs
