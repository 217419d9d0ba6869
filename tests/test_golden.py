"""Golden output: the stdout and exit code of `lint`, `metrics` and `diff` on
the fixtures, compared byte for byte with the snapshots in tests/golden/.

A snapshot changes only with a documented behaviour change. To regenerate
them all from the code on the path, run from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from emitlint.cli import main

from helpers import FIXTURES

GOLDEN = Path(__file__).parent / "golden"

_INPUTS = {"lint_tree": "lint_tree", "token": "realistic_token.sol",
           "robust": "robust"}
_MANIFEST = "manifests/basic/manifest.json"
# Emits whose arguments run past the matcher's first ')'.
_EXTENT = "manifests/extent/manifest.json"
# Whole-file rewrites that keep runs of '}' and blank lines, where the diff's
# tie-break decides which lines are kept.
_REWRITE = "manifests/rewrite/manifest.json"
# Edits where the before side's re-lex must copy, stop and fall back with
# care: a split number, a block comment over kept lines, unterminated
# strings, the first and last lines, no final newline, CRLF.
_RELEX = "manifests/relex/manifest.json"
# Blocks with zero to three emits of their own, emits that end a block and
# emits nested in an `if`: where EMIT_BEFORE_OP and REDUNDANT_EVENT can fire
# and where they cannot.
_BLOCKS = "lint_rules/blocks.sol"

# Snapshot name -> argv, with paths relative to tests/fixtures.
CASES = {
    **{f"{cmd}_{name}_{fmt}": [cmd, path, "--format", fmt]
       for cmd in ("lint", "metrics")
       for name, path in _INPUTS.items()
       for fmt in ("text", "json")},
    **{f"lint_blocks_{fmt}": ["lint", _BLOCKS, "--format", fmt]
       for fmt in ("text", "json")},
    "diff_basic_text": ["diff", "--manifest", _MANIFEST],
    "diff_basic_json": ["diff", "--manifest", _MANIFEST, "--format", "json"],
    "diff_basic_json_whole_file": ["diff", "--manifest", _MANIFEST,
                                   "--format", "json", "--whole-file-kill"],
    "diff_extent_text": ["diff", "--manifest", _EXTENT],
    "diff_extent_json": ["diff", "--manifest", _EXTENT, "--format", "json"],
    "diff_extent_json_whole_file": ["diff", "--manifest", _EXTENT,
                                    "--format", "json", "--whole-file-kill"],
    "diff_rewrite_text": ["diff", "--manifest", _REWRITE],
    "diff_rewrite_json": ["diff", "--manifest", _REWRITE, "--format", "json"],
    "diff_rewrite_json_whole_file": ["diff", "--manifest", _REWRITE,
                                     "--format", "json", "--whole-file-kill"],
    "diff_relex_text": ["diff", "--manifest", _RELEX],
    "diff_relex_json": ["diff", "--manifest", _RELEX, "--format", "json"],
}


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command run from tests/fixtures."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_snapshot(name, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    code, out = run_case(CASES[name])
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert code == _exit_codes()[name]


def test_every_snapshot_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)
    assert sorted(_exit_codes()) == sorted(CASES)


def regenerate() -> None:
    os.environ["NO_COLOR"] = "1"
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
