"""Golden output manifest: every CLI subcommand's bytes on sample_data/.

Each case runs one command in a fresh directory and compares the SHA-256
of every file it writes, and of its stdout, with ``golden.json``. The
input path in stdout is replaced by its file name, so the digests do not
depend on where the repository lives. A refactor must leave the manifest
unchanged; an intended output change regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from survmrl.cli import run_cli

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden.json"
TWO_GROUPS = ROOT / "sample_data" / "two_groups.csv"
SURVEY = ROOT / "sample_data" / "survey.csv"

# name -> (input, argv after --input, excluding output flags, write an SVG)
CASES = {
    "km": (TWO_GROUPS, ["km"], True),
    "mrl": (TWO_GROUPS, ["mrl"], True),
    "mrl_threshold_grid": (
        TWO_GROUPS, ["mrl", "--threshold", "2", "--grid", "0,0.5,1,2,3"], True
    ),
    "diff": (TWO_GROUPS, ["diff", "--permutations", "100", "--seed", "42"], True),
    "ratio": (TWO_GROUPS, ["ratio", "--permutations", "100", "--seed", "42"], True),
    "mrl_diff": (TWO_GROUPS, ["mrl-diff"], True),
    "stats": (SURVEY, ["stats"], False),
    "stats_bootstrap": (SURVEY, ["stats", "--bootstrap", "500", "--seed", "7"], False),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, out_dir: Path) -> dict:
    """Run one case into ``out_dir``; return its file and stdout digests."""
    source, argv, svg = CASES[name]
    command = [argv[0], "--input", str(source), *argv[1:], "--out-csv", str(out_dir / "out.csv")]
    if svg:
        command += ["--out", str(out_dir / "out.svg")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_cli(command)
    assert code == 0, f"{name}: exit {code}"
    text = stdout.getvalue().replace(str(source), source.name)
    return {
        "files": {p.name: _sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())},
        "stdout": _sha256(text.encode("utf-8")),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    expected = json.loads(MANIFEST.read_text())[name]
    assert run_case(name, tmp_path) == expected


def write_manifest():
    manifest = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            manifest[name] = run_case(name, Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_manifest()
    sys.exit(0)
