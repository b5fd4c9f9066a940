"""Seeded inputs for the benchmark workloads.

Everything here runs at set-up, before any timed region.  Inputs are built
only through the public pencilfiber API: the shipped corpus files and the
``fixtures`` builders give the source arrangements, ``proj_transform`` and
``Arrangement.reordered`` give their seeded images, and ``find_pencils``
gives the Catalan pencils.  The program later sees only the JSON files
written here, and the same seed always writes the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from pencilfiber.arrangement import Arrangement, proj_transform
from pencilfiber.catalan import QuasiToricRelation
from pencilfiber.eisenstein import OMEGA, OMEGA2
from pencilfiber.fixtures import braid, ceva_two, concurrent_triple, dual_hesse
from pencilfiber.forms import UniPoly
from pencilfiber.pencils import find_pencils

# The corpus files the crosscheck workload copies.  The list is fixed so the
# workload does not grow when corpus/ does; oracle.REFERENCE has one row each.
CORPUS_FILES = (
    "braid",
    "braid_pgl",
    "ceva_2",
    "concurrent_triple",
    "dual_hesse",
    "dual_hesse_pgl",
    "generic_6",
    "generic_9",
    "near_pencil_6",
    "seeded_generic_12",
    "seeded_generic_7",
    "triangle",
)

PENCIL_TYPE_SOURCES = {"dual_hesse": dual_hesse, "braid": braid, "ceva_2": ceva_two}
IMAGES_PER_SOURCE = 3
MATRIX_ENTRIES = (-2, 2)  # range of the seeded PGL matrix entries


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload.

    ``kind`` selects the oracle check and ``source`` the reference row:
    a fixture name, or ``"corpus"`` for the crosscheck.
    """

    label: str
    argv: tuple[str, ...]
    kind: str
    source: str


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _permuted(arr: Arrangement, rng: random.Random, label: str | None = None) -> Arrangement:
    order = list(range(arr.r))
    rng.shuffle(order)
    return arr.reordered(order, label)


def _pgl_image(arr: Arrangement, rng: random.Random) -> Arrangement:
    """Image of ``arr`` under a seeded invertible integer matrix."""
    while True:
        m = [[rng.randint(*MATRIX_ENTRIES) for _ in range(3)] for _ in range(3)]
        try:
            return proj_transform(arr, m)
        except ValueError:  # singular draw
            continue


def _signed_swap_image(arr: Arrangement, rng: random.Random) -> Arrangement:
    """Image of ``arr`` under a seeded block-diagonal GL2 matrix that swaps and negates x and y.

    The matrix fixes z, so forms in x and y stay binary.  Such images keep
    every coefficient's height, so each seed does the same doubling work.
    A generic GL2 image changes the pencil's coefficients: over 200 seeded
    matrices with entries in [-1, 1], ``--steps 4`` took from 0.75x to 1.2x
    of its median time.
    """
    m = [[rng.choice((1, -1)), 0, 0], [0, rng.choice((1, -1)), 0], [0, 0, 1]]
    if rng.random() < 0.5:
        m[0], m[1] = m[1], m[0]
    return proj_transform(arr, m)


def corpus_crosscheck(seed: int, corpus_dir: Path, out_dir: Path) -> list[Op]:
    """The shipped corpus with every file's lines permuted by the seed."""
    rng = random.Random(seed)
    dest = out_dir / "corpus"
    dest.mkdir(parents=True)
    for name in CORPUS_FILES:
        source = corpus_dir / f"{name}.json"
        arr = Arrangement.from_json(json.loads(source.read_text(encoding="utf-8")))
        _write(dest / source.name, _permuted(arr, rng).to_json())
    return [Op("crosscheck", ("crosscheck", str(dest)), "crosscheck", "corpus")]


def pencil_type(seed: int, out_dir: Path) -> list[Op]:
    """Permuted PGL images of the three pencil-type fixtures, one analyze each."""
    rng = random.Random(seed)
    ops = []
    for source, build in PENCIL_TYPE_SOURCES.items():
        base = build()
        for n in range(IMAGES_PER_SOURCE):
            label = f"{source}-{n}"
            arr = _permuted(_pgl_image(base, rng), rng, label)
            path = out_dir / f"{label}.json"
            _write(path, arr.to_json())
            ops.append(Op(f"analyze {label}", ("analyze", str(path)), "analyze", source))
    return ops


def descent_instance() -> dict:
    """The acceptance suite's descent instance: f^3 + g^3 - (1 + t^3) h^3 = 0."""
    t = UniPoly.t()
    one = UniPoly.one()
    f = -(t * (t**3 + UniPoly.constant(2)))
    g = t**3 * 2 + one
    h = -(t**3 - one)
    rel = QuasiToricRelation((one, one, -(one + t**3)), (f, g, h), univariate=True)
    known = [one + t, one + t * OMEGA, one + t * OMEGA2]
    return {"relation": rel.to_json(), "known_factors": [p.to_json() for p in known]}


def catalan_doubling(seed: int, out_dir: Path) -> list[Op]:
    """Doubling on a binary and a ternary pencil, plus one descent."""
    rng = random.Random(seed)
    triple = _permuted(_signed_swap_image(concurrent_triple(), rng), rng)
    braid_arr = _permuted(braid(), rng)
    ops = []
    for source, arr, steps in (("concurrent_triple", triple, 4), ("braid", braid_arr, 2)):
        pencils = find_pencils(arr)
        if len(pencils) != 1:
            raise RuntimeError(f"{source} image has {len(pencils)} pencils, expected 1")
        path = out_dir / f"{source}-pencil.json"
        _write(path, pencils[0].to_json())
        argv = ("catalan", "generate", str(path), "--steps", str(steps))
        ops.append(Op(f"generate {source} --steps {steps}", argv, "generate", source))
    path = out_dir / "descent.json"
    _write(path, descent_instance())
    ops.append(Op("descend criterion-8", ("catalan", "descend", str(path)), "descend", "criterion-8"))
    return ops


def build(workload: str, seed: int, corpus_dir: Path, out_dir: Path) -> list[Op]:
    """Write the workload's inputs under ``out_dir`` and return its ops in run order."""
    if workload == "corpus-crosscheck":
        return corpus_crosscheck(seed, corpus_dir, out_dir)
    if workload == "pencil-type":
        return pencil_type(seed, out_dir)
    if workload == "catalan-doubling":
        return catalan_doubling(seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
