"""What each entry point imports: the package binds only ``__version__``, and each
subcommand loads only its layers.

The import graph is read in a fresh interpreter per case: in this process
every layer is loaded already.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eolab

from conftest import PROGRAMS

SRC = str(Path(eolab.__file__).resolve().parents[1])
BASE = {"eolab", "eolab.cli", "eolab.errors"}


def _loaded_after(code: str) -> set[str]:
    """The ``eolab`` modules, and ``json`` if loaded, that a fresh
    interpreter holds after running ``code``."""
    probe = (f"{code}\nimport sys\n"
             "loaded = [m for m in sys.modules if m.split('.')[0] == 'eolab' or m == 'json']\n"
             "import json\nprint(json.dumps(loaded))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_cli_import_loads_no_layer():
    assert _loaded_after("import eolab.cli") == BASE


def _prog(name: str) -> str:
    return str(PROGRAMS / f"{name}.json")


@pytest.mark.parametrize(
    "argv,layers",
    [
        (["pattern", "5,2,9"], {"patterns"}),
        (["cmp", "--left", "0,2,1", "--right", "1,0,2"], {"patterns"}),
        (["poset", "--n", "3", "--chain"], {"patterns", "poset"}),
        (["run", "--program", _prog("evens"), "--k", "4"], {"vm", "expressions", "patterns"}),
        (["search", "--a", _prog("evens"), "--b", _prog("evens"), "--k", "3", "--window", "2"],
         {"vm", "expressions", "patterns", "search"}),
        (["check", "--suite", "hasse", "--n", "3"],
         {"vm", "expressions", "patterns", "poset", "search", "oracle"}),
    ],
    ids=["pattern", "cmp", "poset", "run", "search", "check"],
)
def test_subcommand_loads_only_its_layers(argv, layers):
    code = ("import contextlib, io, eolab.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert eolab.cli.main({argv!r}) == 0")
    # Programs are JSON files, so json comes with vm and only with it.
    reader = {"json"} if "vm" in layers else set()
    assert _loaded_after(code) == BASE | reader | {f"eolab.{layer}" for layer in layers}


def test_version_loads_no_layer():
    assert _loaded_after("import eolab\nassert eolab.__version__") == {"eolab"}


def test_package_binds_no_public_name_but_version():
    code = "import eolab\nassert [n for n in vars(eolab) if not n.startswith('_')] == []"
    assert _loaded_after(code) == {"eolab"}


def test_layers_reexport_the_errors_cli_maps():
    from eolab import errors, expressions, poset, search, vm

    assert expressions.EvaluationError is errors.EvaluationError
    assert vm.InsufficientPrefixError is errors.InsufficientPrefixError
    assert search.InsufficientEnumerationError is errors.InsufficientEnumerationError
    assert poset.NoAntichainError is errors.NoAntichainError


def test_readme_python_example_runs(monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    # The example opens its program by bare file name.
    monkeypatch.chdir(PROGRAMS)
    for block in blocks:
        exec(block, {})
