import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from itertools import chain

import pencilfiber
from pencilfiber import cli


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


def test_src_has_no_unused_import():
    # over the package, the tests and the scripts: a top-level import is used
    # when its name is read somewhere in the module or re-exported through
    # __all__; a name read only inside a string annotation would count as unused
    root = pathlib.Path(__file__).resolve().parents[1]
    found = []
    for path in sorted(chain.from_iterable(root.glob(f"{d}/*.py") for d in ("src/pencilfiber", "tests", "scripts"))):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        found += [f"{path.relative_to(root)}:{line} {name}" for name, line in bound.items() if name not in used]
    assert found == []


def _package_trees():
    package = pathlib.Path(pencilfiber.__file__).parent
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_private_function_has_a_caller():
    # a private module-level function or method (one leading underscore, not
    # a dunder) is read by name somewhere in the package outside its own
    # body; one that nothing reads is dead code and is deleted, not kept
    trees = _package_trees()
    read = Counter(chain.from_iterable(_names(tree) for tree in trees.values()))
    found = []
    for file, tree in trees.items():
        defs = list(tree.body)
        defs += [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
        for node in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.startswith("__") and read[name] == Counter(_names(node))[name]:
                found.append(f"{file}:{node.lineno} {name}")
    assert found == []


def test_every_public_function_is_exported_read_or_a_command():
    # the public twin of the check above: a public module-level function is
    # in pencilfiber.__all__, read by name somewhere in the package outside
    # its own body, or cli.cmd_<name> for a subcommand of cli.build_parser();
    # fixtures.py is exempt, since it builds inputs for the tests and the
    # benchmark
    trees = _package_trees()
    read = Counter(chain.from_iterable(_names(tree) for tree in trees.values()))
    (subcommands,) = [a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    kept = set(pencilfiber.__all__) | {f"cmd_{name}" for name in subcommands}
    found = []
    for file, tree in trees.items():
        if file == "fixtures.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") and name not in kept and read[name] == Counter(_names(node))[name]:
                found.append(f"{file}:{node.lineno} {name}")
    assert found == []


def test_only_eisenstein_and_forms_import_fractions():
    # Q(w) numbers are built in the arithmetic and the polynomial algebra; the
    # other modules hold Z[w] pairs, and cli, pencils and resonance import no
    # field element; resonance takes weights as pairs and imports no reader
    importers, field_element, row_reader = set(), set(), set()
    for file, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                importers.update(file for alias in node.names if alias.name.split(".")[0] == "fractions")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "fractions":
                    importers.add(file)
                if any(alias.name == "EisensteinNumber" for alias in node.names):
                    field_element.add(file)
                if any(alias.name == "integer_row" for alias in node.names):
                    row_reader.add(file)
    assert sorted(importers) == ["eisenstein.py", "forms.py"]
    assert not field_element & {"cli.py", "pencils.py", "resonance.py"}
    assert "resonance.py" not in row_reader
