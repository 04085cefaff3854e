"""`klcells cm-rank1` and `klcells conjecture` output is byte-identical to
the recorded goldens.

The SHA-256 digests in tests/golden/cm_rank1_sha256.json were taken from
the stdout of `klcells cm-rank1 ARGS` for the argument lists below: the
twelve points the benchmark draws from, an all-zero c, distinct κ values
and a κ block that holds index d.  Those in
tests/golden/conjecture_sha256.json were taken from the stdout of
`klcells conjecture --no-b2 --c-values C` for four c sets, and of the
default `klcells conjecture --reports-dir DIR` run into an empty DIR,
together with each B2 report file that run writes (keyed
"default:<file name>").  To re-record after a deliberate output change:

    PYTHONPATH=src python tests/test_cm_conjecture_golden.py cm-rank1 > tests/golden/cm_rank1_sha256.json
    PYTHONPATH=src python tests/test_cm_conjecture_golden.py conjecture > tests/golden/conjecture_sha256.json
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import Dict, List

import pytest

from klcells.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CM_RANK1_ARGS = [
    # The benchmark's pool of cm-rank1 points.
    ["--d", "2", "--c", "1"], ["--d", "2", "--c", "3/2"],
    ["--d", "3", "--c", "1,1/2"], ["--d", "3", "--c", "1,1"],
    ["--d", "3", "--kappa", "1,1,-2"], ["--d", "4", "--c", "1,1/2,1"],
    ["--d", "4", "--c", "1,0,1"], ["--d", "4", "--kappa", "1,-1,2,-2"],
    ["--d", "5", "--c", "1,1,1,1"], ["--d", "5", "--c", "1,1/2,1/3,1/4"],
    ["--d", "6", "--c", "1,1,1,1,1"], ["--d", "6", "--c", "1,0,1,0,1"],
    # One cell; d cells; a block {0, 1, 4, 5} that holds index d.
    ["--d", "6", "--c", "0,0,0,0,0"], ["--d", "4", "--kappa", "3,1,-1,-3"],
    ["--d", "6", "--kappa", "1,1,-1,-1,0,0"],
]

CONJECTURE_C_VALUES = ["0,1/2,1,3,7/5", "0,1,2,5/2", "1/3,1,4,9/7", "0,3/4,1,2"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout(argv: List[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def cm_rank1_digests() -> Dict[str, str]:
    return {" ".join(args): _sha256(_stdout(["cm-rank1", *args])) for args in CM_RANK1_ARGS}


def conjecture_no_b2_digest(c_values: str) -> str:
    return _sha256(_stdout(["conjecture", "--no-b2", "--c-values", c_values]))


def conjecture_default_digests(reports_dir: Path) -> Dict[str, str]:
    """The default run into an empty reports_dir: its stdout and each
    report file it writes."""
    digests = {"default": _sha256(_stdout(["conjecture", "--reports-dir", str(reports_dir)]))}
    for path in sorted(reports_dir.iterdir()):
        digests[f"default:{path.name}"] = _sha256(path.read_text(encoding="utf-8"))
    return digests


def _golden(name: str) -> Dict[str, str]:
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("args", CM_RANK1_ARGS, ids=" ".join)
def test_cm_rank1_bytes_match_golden(args):
    golden = _golden("cm_rank1_sha256.json")
    assert sorted(golden) == sorted(" ".join(a) for a in CM_RANK1_ARGS)
    assert _sha256(_stdout(["cm-rank1", *args])) == golden[" ".join(args)]


@pytest.mark.parametrize("c_values", CONJECTURE_C_VALUES)
def test_conjecture_no_b2_bytes_match_golden(c_values):
    golden = _golden("conjecture_sha256.json")
    assert conjecture_no_b2_digest(c_values) == golden[f"--no-b2 {c_values}"]


def test_conjecture_default_bytes_and_reports_match_golden(tmp_path):
    golden = _golden("conjecture_sha256.json")
    expected = {k: v for k, v in golden.items() if k.startswith("default")}
    assert conjecture_default_digests(tmp_path / "reports") == expected


if __name__ == "__main__":
    import tempfile
    if sys.argv[1] == "cm-rank1":
        digests = cm_rank1_digests()
    else:
        digests = {f"--no-b2 {c}": conjecture_no_b2_digest(c) for c in CONJECTURE_C_VALUES}
        with tempfile.TemporaryDirectory() as tmp:
            digests.update(conjecture_default_digests(Path(tmp) / "reports"))
    sys.stdout.write(json.dumps(digests, sort_keys=True, indent=2) + "\n")
