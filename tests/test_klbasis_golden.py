"""`klcells klbasis` output is byte-identical to the recorded goldens.

The SHA-256 digests in tests/golden/klbasis_sha256.json were taken from
the stdout of `klcells klbasis SPEC --no-cache` for the specs below.  Any
change to the KL construction, the coefficient ring or the JSON emitter
that moves a single output byte fails here.  To re-record after a
deliberate output change:

    PYTHONPATH=src python tests/test_klbasis_golden.py > tests/golden/klbasis_sha256.json
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from klcells.cli import main

GOLDEN = Path(__file__).parent / "golden" / "klbasis_sha256.json"

SPECS = {
    "A3": "group A 3\nL s = 1\nL t = 1\nL u = 1\n",
    "H3": "group matrix\n3\n5 2\n3\nL s = 1\nL t = 1\nL u = 1\n",
    "B3_1_1_3/2": "group B 3\nL s = 1\nL t = 1\nL u = 3/2\n",
    "B3_0_0_1": "group B 3\nL s = 0\nL t = 0\nL u = 1\n",
    "B3_lex_e1_e1_e2": "group B 3\nL lex s = e_1\nL lex t = e_1\nL lex u = e_2\n",
    "I2(5)_lex_e1": "group I2 5\nL lex s = e_1\nL lex t = e_1\n",
}


def klbasis_sha256(spec_text: str, tmp_dir: Path) -> str:
    path = tmp_dir / "group.spec"
    path.write_text(spec_text, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["klbasis", str(path), "--no-cache"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_klbasis_bytes_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(SPECS)
    assert klbasis_sha256(SPECS[name], tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: klbasis_sha256(text, Path(tmp)) for name, text in SPECS.items()}
    sys.stdout.write(json.dumps(digests, sort_keys=True, indent=2) + "\n")
