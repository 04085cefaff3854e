"""`klcells klbasis` and `klcells cells` output is byte-identical to the
recorded goldens.

The SHA-256 digests in tests/golden/klbasis_sha256.json and
tests/golden/cells_sha256.json were taken from the stdout of
`klcells klbasis SPEC --no-cache` and `klcells cells SPEC --no-cache` for
the specs below.  Any change to group enumeration, the KL construction,
the coefficient ring, the cell order, the cell characters or the JSON
emitter that moves a single output byte fails here.  To re-record after a
deliberate output change:

    PYTHONPATH=src python tests/test_klbasis_golden.py klbasis > tests/golden/klbasis_sha256.json
    PYTHONPATH=src python tests/test_klbasis_golden.py cells > tests/golden/cells_sha256.json
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from klcells.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

SPECS = {
    "A3": "group A 3\nL s = 1\nL t = 1\nL u = 1\n",
    "H3": "group matrix\n3\n5 2\n3\nL s = 1\nL t = 1\nL u = 1\n",
    "B3_1_1_3/2": "group B 3\nL s = 1\nL t = 1\nL u = 3/2\n",
    "B3_0_0_1": "group B 3\nL s = 0\nL t = 0\nL u = 1\n",
    "B3_lex_e1_e1_e2": "group B 3\nL lex s = e_1\nL lex t = e_1\nL lex u = e_2\n",
    "I2(5)_lex_e1": "group I2 5\nL lex s = e_1\nL lex t = e_1\n",
}

SPECS_BY_COMMAND = {
    "klbasis": SPECS,
    # I2(25) has two left cells of 24 elements each.
    "cells": {**SPECS, "D4": "group D 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n",
              "I2(25)": "group I2 25\nL s = 1\nL t = 1\n"},
}


def output_sha256(command: str, spec_text: str, tmp_dir: Path) -> str:
    path = tmp_dir / "group.spec"
    path.write_text(spec_text, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, str(path), "--no-cache"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def check_golden(command: str, name: str, tmp_dir: Path) -> None:
    specs = SPECS_BY_COMMAND[command]
    golden = json.loads((GOLDEN_DIR / f"{command}_sha256.json").read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(specs)
    assert output_sha256(command, specs[name], tmp_dir) == golden[name]


@pytest.mark.parametrize("name", sorted(SPECS_BY_COMMAND["klbasis"]))
def test_klbasis_bytes_match_golden(name, tmp_path):
    check_golden("klbasis", name, tmp_path)


@pytest.mark.parametrize("name", sorted(SPECS_BY_COMMAND["cells"]))
def test_cells_bytes_match_golden(name, tmp_path):
    check_golden("cells", name, tmp_path)


if __name__ == "__main__":
    import tempfile
    command = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: output_sha256(command, text, Path(tmp))
                   for name, text in SPECS_BY_COMMAND[command].items()}
    sys.stdout.write(json.dumps(digests, sort_keys=True, indent=2) + "\n")
