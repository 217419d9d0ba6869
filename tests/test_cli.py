import gc
import io
import json
import random
import sys
from collections import Counter
from functools import partial

import pytest

from emitlint import cli
from emitlint.cli import main

from helpers import FIXTURES, fixture_path, write_bench_corpus

GOLDEN = FIXTURES.parent / "golden"


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- lint

def test_lint_fig5d_text_output(capsys):
    code, out, _ = run(capsys, "lint",
                       str(fixture_path("gas", "pos_01_setdelay.sol")))
    assert code == 1
    gas_lines = [l for l in out.splitlines() if "GAS_STORAGE_PARAM" in l]
    assert len(gas_lines) == 1
    line = gas_lines[0]
    assert "delay_" in line
    assert "warning" in line
    assert "pos_01_setdelay.sol:11:" in line


def test_directive_without_semicolon_does_not_hide_the_file(capsys,
                                                           tmp_path):
    """With no ';' after its pragma, the setDelay contract keeps its finding,
    and metrics falls back to the textual count instead of reporting 0."""
    text = fixture_path("gas", "pos_01_setdelay.sol").read_text()
    damaged = tmp_path / "nosemi.sol"
    damaged.write_text(text.replace("pragma solidity ^0.8.0;",
                                    "pragma solidity ^0.8.0", 1))
    code, out, _ = run(capsys, "lint", str(damaged))
    assert code == 1
    assert "nosemi.sol:11:9: warning GAS_STORAGE_PARAM" in out
    assert out.endswith("1 finding(s)\n")
    code, out, _ = run(capsys, "metrics", str(damaged), "--format", "json")
    row = json.loads(out)["perFile"][0]
    assert code == 0 and (row["emitCount"], row["method"]) == (1, "regex")


def test_lint_clean_file_exit_zero(capsys):
    code, out, _ = run(capsys, "lint", str(fixture_path("lint_tree", "b.sol")))
    assert code == 0
    assert "0 finding(s)" in out


def test_lint_empty_directory_exit_two(capsys, tmp_path):
    code, out, _ = run(capsys, "lint", str(tmp_path))
    assert code == 2
    assert "0 file(s) analyzed" in out


def test_lint_json_array_sorted(capsys):
    code, out, _ = run(capsys, "lint", str(fixture_path("lint_tree")),
                       "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert isinstance(data, list)
    assert len(data) == 3
    keys = [(d["file"], d["startLine"], d["startCol"], d["checkId"])
            for d in data]
    assert keys == sorted(keys)
    assert {d["checkId"] for d in data} == {
        "EVENT_OVERUSE", "DEBUG_EVENT", "REDUNDANT_EVENT"}
    for d in data:
        assert set(d) == {"file", "startLine", "startCol", "endLine",
                          "endCol", "checkId", "severity", "message",
                          "suggestion"}


def test_lint_text_and_json_report_same_findings(capsys):
    _, json_out, _ = run(capsys, "lint", str(fixture_path("gas")),
                         "--format", "json")
    data = json.loads(json_out)
    _, text_out, _ = run(capsys, "lint", str(fixture_path("gas")))
    diag_lines = [l for l in text_out.splitlines()
                  if not l.endswith("finding(s)")]
    assert len(diag_lines) == len(data)
    for check_id in ("GAS_STORAGE_PARAM", "EVENT_OVERUSE", "EMIT_BEFORE_OP",
                     "REDUNDANT_EVENT", "DEBUG_EVENT"):
        in_json = sum(1 for d in data if d["checkId"] == check_id)
        in_text = sum(1 for l in diag_lines if f" {check_id}: " in l)
        assert in_json == in_text, check_id
    assert sum(1 for d in data if d["checkId"] == "GAS_STORAGE_PARAM") == 8


def test_lint_malformed_file_does_not_block_others(capsys):
    code, out, _ = run(capsys, "lint", str(fixture_path("robust")))
    assert code == 1  # good.sol still produces its finding
    assert "GAS_STORAGE_PARAM" in out
    assert "good.sol" in out


def test_lint_unreadable_path_reports_error_and_continues(capsys):
    code, out, err = run(capsys, "lint", "does/not/exist.sol",
                         str(fixture_path("gas", "pos_01_setdelay.sol")))
    assert code == 1
    assert "no such file" in err


def test_lint_unreadable_only_path_exit_two(capsys):
    code, _, err = run(capsys, "lint", "does/not/exist.sol")
    assert code == 2
    assert "no such file" in err


def test_lint_disable_check(capsys):
    code, out, _ = run(capsys, "lint",
                       str(fixture_path("gas", "pos_01_setdelay.sol")),
                       "--disable", "GAS_STORAGE_PARAM")
    assert code == 0
    assert "GAS_STORAGE_PARAM" not in out


def test_lint_enable_only_listed_checks(capsys):
    code, out, _ = run(capsys, "lint", str(fixture_path("lint_tree")),
                       "--enable", "DEBUG_EVENT")
    assert code == 1
    assert "REDUNDANT_EVENT" not in out
    assert "EVENT_OVERUSE" not in out
    assert "DEBUG_EVENT" in out


def test_lint_unknown_check_id_usage_error(capsys):
    code, _, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                       "--enable", "NOPE")
    assert code == 2
    assert "unknown check id" in err


def test_lint_overuse_threshold_flag(capsys):
    target = str(fixture_path("lint_tree", "a.sol"))
    code_low, out_low, _ = run(capsys, "lint", target,
                               "--enable", "EVENT_OVERUSE",
                               "--overuse-threshold", "0.1")
    code_high, out_high, _ = run(capsys, "lint", target,
                                 "--enable", "EVENT_OVERUSE",
                                 "--overuse-threshold", "0.5")
    assert code_low == 1 and "EVENT_OVERUSE" in out_low
    assert code_high == 0


@pytest.mark.parametrize("threshold", ["1/0", "0", "2", "abc", "nan", ""])
def test_lint_bad_overuse_threshold_is_a_usage_error(capsys, threshold):
    """A threshold that is no ratio in (0, 1] stops lint before any file is
    analyzed: one stderr line that names the flag and the value, nothing on
    stdout, exit 2."""
    code, out, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                         "--overuse-threshold", threshold)
    assert code == 2
    assert out == ""
    assert err == "emitlint: --overuse-threshold must be in (0, 1], " \
        f"not {threshold!r}\n"


@pytest.mark.parametrize("flag,value", [
    ("--enable", ""), ("--disable", ""), ("--enable", ","), ("--config", ""),
])
def test_lint_bad_check_flag_is_a_usage_error(capsys, flag, value):
    """An --enable or --disable value that names no check id, and an empty
    --config path, stop lint as any other bad flag does: one stderr line,
    nothing on stdout, exit 2."""
    code, out, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                         flag, value)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("emitlint: ")


def test_lint_config_enabled_empty_runs_no_check(capsys, tmp_path):
    """Unlike an empty --enable value, a config file's empty "enabled"
    list is a choice: no check runs, and lint exits 0."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enabled": []}))
    code, out, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                         "--config", str(config))
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1].endswith(", 0 finding(s)")


@pytest.mark.parametrize("enabled", [
    None, ["DEBUG_EVENT,EVENT_OVERUSE"], [" "], [""], ["DEBUG_EVENT", ","],
])
def test_lint_config_enabled_item_names_one_check(capsys, tmp_path, enabled):
    """Each item of a config file's "enabled" array names exactly one check
    id: an item that joins two with ',' or is blank stops lint with one
    stderr line and exit 2, as an --enable value naming no check does. None
    stands for tests/fixtures/configs/enabled_two_ids.json, the shape CI
    runs."""
    if enabled is None:
        path = fixture_path("configs", "enabled_two_ids.json")
        item = json.loads(path.read_text())["enabled"][0]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"enabled": enabled}))
        item = enabled[-1]
    code, out, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                         "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f'emitlint: {path}: "enabled" items must each name one check id, '
        f"not {item!r}"]


def test_lint_config_unknown_check_id_names_the_config_file(capsys):
    """An unknown id in a config file's "enabled" array is reported with
    the file's path, as every other config error is; the same id given to
    --enable is reported without one. Both exit 2. The config is
    tests/fixtures/configs/unknown_id.json, the shape CI runs."""
    path = fixture_path("configs", "unknown_id.json")
    code, out, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                         "--config", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"emitlint: {path}: unknown check id: NOPE"]
    code, out, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                         "--enable", "NOPE")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["emitlint: unknown check id: NOPE"]


@pytest.mark.parametrize("args,path,message", [
    (["lint", str(fixture_path("lint_tree")), "--config"],
     fixture_path("configs", "not_json.json"),
     "Expecting ',' delimiter: line 2 column 1 (char 28)"),
    (["diff", "--manifest"], fixture_path("manifests", "not_json.json"),
     "Expecting value: line 2 column 1 (char 16)"),
])
def test_not_json_file_is_named_in_its_error(capsys, args, path, message):
    """A config or manifest file that is not JSON is reported with its
    path, exit 2. The files are the shapes CI runs."""
    code, out, err = run(capsys, *args, str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"emitlint: {path}: {message}"]


def test_lint_config_file_and_flag_override(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "overuseThreshold": 0.5,
        "enabled": ["EVENT_OVERUSE"],
        "debugEventFormB": False,
    }))
    target = str(fixture_path("lint_tree", "a.sol"))
    code, out, _ = run(capsys, "lint", target, "--config", str(config))
    assert code == 0  # 0.273 below configured 0.5
    code2, out2, _ = run(capsys, "lint", target, "--config", str(config),
                         "--overuse-threshold", "0.1")
    assert code2 == 1
    assert "EVENT_OVERUSE" in out2


def test_lint_debug_form_b_flag(capsys, tmp_path):
    target = tmp_path / "trace.sol"
    target.write_text("""contract C {
    event Trace(string tag, uint value);
    function f(uint value) public {
        emit Trace("value", value);
    }
}
""")
    code_off, out_off, _ = run(capsys, "lint", str(target))
    assert "DEBUG_EVENT" not in out_off
    code_on, out_on, _ = run(capsys, "lint", str(target), "--debug-form-b")
    assert code_on == 1
    assert "DEBUG_EVENT" in out_on


def test_no_color_respected(capsys):
    _, out, _ = run(capsys, "lint",
                    str(fixture_path("gas", "pos_01_setdelay.sol")))
    assert "\x1b[" not in out


class _Terminal(io.StringIO):
    """A captured stdout that reports itself as a terminal."""

    def isatty(self):
        return True


@pytest.mark.parametrize("color", [True, False])
def test_text_findings_are_coloured_on_a_terminal_unless_no_color(
        monkeypatch, color):
    """On a terminal, each finding's severity is painted, unless NO_COLOR
    is set."""
    if color:
        monkeypatch.delenv("NO_COLOR")
    terminal = _Terminal()
    monkeypatch.setattr(sys, "stdout", terminal)
    assert main(["lint", str(fixture_path("gas", "pos_01_setdelay.sol"))]) \
        == 1
    out = terminal.getvalue()
    if color:
        assert "\x1b[33mwarning\x1b[0m GAS_STORAGE_PARAM" in out
    else:
        assert "\x1b[" not in out and "warning GAS_STORAGE_PARAM" in out


# ------------------------------------------------------------------- metrics

def test_metrics_text_three_decimals(capsys, tmp_path):
    target = tmp_path / "m.sol"
    lines = ["contract M {", "    event E(uint v);",
             "    function f(uint v) public {", "        emit E(v);",
             "        emit E(v);"]
    lines += [f"        v = v + {i};" for i in range(93)]
    lines += ["    }", "}"]
    target.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "metrics", str(target))
    assert code == 0
    assert "emits per code line: 0.020" in out


def test_metrics_no_files_zeros_exit_zero(capsys, tmp_path):
    code, out, _ = run(capsys, "metrics", str(tmp_path))
    assert code == 0
    assert "files analyzed: 0" in out


def test_metrics_unreadable_only_path_exit_two(capsys):
    code, out, err = run(capsys, "metrics", "nope.sol")
    assert code == 2
    assert "files analyzed: 0" in out
    assert err.splitlines() == ["emitlint: nope.sol: no such file or directory"]


_DAMAGED = """contract D {
    event E(uint v);
    function f(uint v) public {
        emit E(v);
        uint = = ;
    }
"""


@pytest.mark.parametrize("command", ["lint", "metrics"])
def test_each_file_is_lexed_once(capsys, monkeypatch, tmp_path, command):
    """One full-file lex per file feeds parsing, line counts and, for a
    damaged file, the regex emit count."""
    (tmp_path / "clean.sol").write_text(
        fixture_path("lint_tree", "a.sol").read_text())
    (tmp_path / "damaged.sol").write_text(_DAMAGED)
    from emitlint import lexer
    real_lex = lexer.lex
    lexed = Counter()

    def counting_lex(file):
        lexed[file.path] += 1
        return real_lex(file)

    for name, module in list(sys.modules.items()):
        if name.startswith("emitlint") and getattr(module, "lex", None) \
                is real_lex:
            monkeypatch.setattr(module, "lex", counting_lex)
    code, out, _ = run(capsys, command, str(tmp_path), "--format", "json")
    assert code in (0, 1)
    assert sorted(lexed.values()) == [1, 1], lexed
    if command == "metrics":
        methods = {row["path"].rsplit("/", 1)[-1]: row["method"]
                   for row in json.loads(out)["perFile"]}
        assert methods == {"clean.sol": "ast", "damaged.sol": "regex"}


def test_metrics_json_per_file_rows(capsys):
    code, out, _ = run(capsys, "metrics", str(fixture_path("lint_tree")),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["fileCount"] == 2
    assert len(data["perFile"]) == 2
    assert data["totalEmitCount"] == sum(f["emitCount"]
                                         for f in data["perFile"])
    assert data["totalCodeLoc"] == sum(f["codeLoc"] for f in data["perFile"])
    assert all(f["method"] == "ast" for f in data["perFile"])


def test_metrics_multi_dir_totals_equal_manual_sum(capsys):
    code, out, _ = run(capsys, "metrics", str(fixture_path("gas")),
                       str(fixture_path("lint_tree")), "--format", "json")
    data = json.loads(out)
    assert data["fileCount"] == 16
    assert data["totalEmitCount"] == sum(f["emitCount"]
                                         for f in data["perFile"])


# ---------------------------------------------------------------------- diff

def test_diff_manifest_send_revision(capsys):
    manifest = str(fixture_path("manifests", "basic", "manifest.json"))
    code, out, _ = run(capsys, "diff", "--manifest", manifest)
    assert code == 0
    assert "ParameterChange Send -> Send [HeuristicIndependent]" in out
    assert "tokens: id1,id2" in out
    assert "summary:" in out


def test_diff_manifest_json(capsys):
    manifest = str(fixture_path("manifests", "basic", "manifest.json"))
    code, out, _ = run(capsys, "diff", "--manifest", manifest,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {r["id"] for r in data["revisions"]} == {
        "send-arg-fix", "emit-only-tweak"}
    send = next(r for r in data["revisions"] if r["id"] == "send-arg-fix")
    assert send["changes"][0]["category"] == "ParameterChange"
    assert send["changes"][0]["independence"] == "HeuristicIndependent"
    assert send["changes"][0]["changedArgTokens"] == ["id1", "id2"]
    only = next(r for r in data["revisions"] if r["id"] == "emit-only-tweak")
    assert only["changes"][0]["independence"] == "AbsoluteIndependent"
    assert data["summary"]["changeCount"] == 2
    assert data["summary"]["absoluteIndependentFraction"] == 0.5
    assert data["summary"]["independentFraction"] == 1.0


def test_diff_emit_only_manifest_fraction_one(capsys, tmp_path):
    before = tmp_path / "v1.sol"
    after = tmp_path / "v2.sol"
    before.write_text("""contract C {
    event E(uint v);
    function f(uint a, uint b) public {
        emit E(a);
    }
}
""")
    after.write_text(before.read_text().replace("emit E(a);", "emit E(b);"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"revisions": [{
        "id": "only",
        "pairs": [{"path": "c.sol", "beforeFile": "v1.sol",
                   "afterFile": "v2.sol"}],
    }]}))
    code, out, _ = run(capsys, "diff", "--manifest", str(manifest),
                       "--format", "json")
    data = json.loads(out)
    assert data["summary"]["absoluteIndependentFraction"] == 1.0


def test_diff_missing_file_skips_revision(capsys, tmp_path):
    good_before = tmp_path / "g1.sol"
    good_after = tmp_path / "g2.sol"
    good_before.write_text("contract C {\n    uint a;\n}\n")
    good_after.write_text("contract C {\n    uint a;\n    uint b;\n}\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"revisions": [
        {"id": "broken", "pairs": [{"path": "x.sol",
                                    "beforeFile": "missing.sol"}]},
        {"id": "fine", "pairs": [{"path": "g.sol", "beforeFile": "g1.sol",
                                  "afterFile": "g2.sol"}]},
    ]}))
    code, out, err = run(capsys, "diff", "--manifest", str(manifest))
    assert code == 0
    assert "revision fine" in out
    assert "broken" in err


def test_diff_unreadable_manifest_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "diff", "--manifest",
                       str(tmp_path / "none.json"))
    assert code == 2


def _write_manifest(tmp_path, data) -> str:
    """data as JSON; bytes are written as they are."""
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(data if isinstance(data, bytes)
                         else json.dumps(data).encode())
    return str(manifest)


def _fine_revision(tmp_path) -> dict:
    (tmp_path / "g1.sol").write_text("contract C {\n    uint a;\n}\n")
    (tmp_path / "g2.sol").write_text("contract C {\n    uint b;\n}\n")
    return {"id": "fine", "pairs": [{"path": "g.sol", "beforeFile": "g1.sol",
                                     "afterFile": "g2.sol"}]}


@pytest.mark.parametrize("data,message", [
    ([{"id": "r", "pairs": []}],
     "top level must be a JSON object, not an array"),
    ({"revisions": {"id": "r"}},
     '"revisions" must be a JSON array, not an object'),
    ({"revisions": [{"id": "r", "pairs": "x.sol"}]},
     'revision r: "pairs" must be a JSON array, not a string'),
    (b'{"revisions": [}',
     "Expecting value: line 1 column 16 (char 15)"),
    (b'{"revisions": [], "note": "\xff"}',
     "'utf-8' codec can't decode byte 0xff in position 27: invalid start "
     "byte"),
])
def test_diff_malformed_manifest_shape_exit_two(capsys, tmp_path, data,
                                                message):
    code, out, err = run(capsys, "diff", "--manifest",
                         _write_manifest(tmp_path, data))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"emitlint: {tmp_path / 'manifest.json'}: {message}"]


def _non_object_pair(tmp_path) -> tuple[dict, str]:
    return ({"id": "bad", "pairs": ["x.sol"]},
            "emitlint: revision bad: pair must be a JSON object, not a string")


def _non_utf8_file(tmp_path) -> tuple[dict, str]:
    (tmp_path / "latin.sol").write_bytes(b"contract C { \xff }\n")
    return ({"id": "bad", "pairs": [{"path": "l.sol",
                                     "beforeFile": "latin.sol"}]},
            f"emitlint: revision bad: {tmp_path / 'latin.sol'}: 'utf-8' "
            f"codec can't decode byte 0xff in position 13: invalid start byte")


def _non_string_file_name(tmp_path, name=5, found="a number"
                          ) -> tuple[dict, str]:
    """Only a missing key, null or "" omits a side; any other non-string,
    falsy ones included, rejects the revision."""
    (tmp_path / "n2.sol").write_text("contract N {}\n")
    return ({"id": "bad", "pairs": [{"path": "x.sol", "beforeFile": name,
                                     "afterFile": "n2.sol"}]},
            'emitlint: revision bad: "beforeFile" must be a string, '
            f"not {found}")


def _non_string_pair_path(tmp_path) -> tuple[dict, str]:
    (tmp_path / "p1.sol").write_text("contract P {}\n")
    return ({"id": "bad", "pairs": [{"path": None, "beforeFile": "p1.sol"}]},
            'emitlint: revision bad: "path" must be a string, not null')


def _pair_without_files(tmp_path) -> tuple[dict, str]:
    return ({"id": "bad", "pairs": [{"path": "x.sol", "beforeFile": None,
                                     "afterFile": ""}]},
            "emitlint: revision bad: pair with no files")


def _non_object_revision(tmp_path) -> tuple[dict, str]:
    return ("bad", "emitlint: revisions[0]: must be a JSON object, "
                   "not a string")


_BAD_REVISIONS = [_non_object_pair, _non_utf8_file, _non_string_file_name,
                  _non_string_pair_path, _pair_without_files,
                  _non_object_revision] + [
    pytest.param(partial(_non_string_file_name, name=name, found=found),
                 id=f"_non_string_file_name-{json.dumps(name)}")
    for name, found in ((False, "a boolean"), (0, "a number"),
                        ([], "an array"), ({}, "an object"))]


@pytest.mark.parametrize("make_bad", _BAD_REVISIONS)
def test_diff_bad_pair_skips_revision(capsys, tmp_path, make_bad):
    bad, message = make_bad(tmp_path)
    manifest = _write_manifest(
        tmp_path, {"revisions": [bad, _fine_revision(tmp_path)]})
    code, out, err = run(capsys, "diff", "--manifest", manifest)
    assert code == 0
    assert "revision fine" in out
    assert "revision bad" not in out
    assert err.splitlines() == [message]


@pytest.mark.parametrize("make_bad", _BAD_REVISIONS)
def test_diff_bad_pair_only_revision_exit_two(capsys, tmp_path, make_bad):
    bad, message = make_bad(tmp_path)
    manifest = _write_manifest(tmp_path, {"revisions": [bad]})
    code, _, err = run(capsys, "diff", "--manifest", manifest)
    assert code == 2
    assert err.splitlines() == [message]


@pytest.mark.parametrize("path,found", [
    (7, "a number"), (None, "null"), (["c.sol"], "an array"),
    ({"p": 1}, "an object"), (True, "a boolean"),
])
def test_diff_non_string_pair_path_exit_two(capsys, tmp_path, path, found):
    """A pair's "path" is echoed into every report, so only a string is
    accepted; anything else rejects the revision like the other pair
    errors."""
    (tmp_path / "v1.sol").write_text("contract C {}\n")
    (tmp_path / "v2.sol").write_text("contract C { event E(); }\n")
    manifest = _write_manifest(tmp_path, {"revisions": [
        {"id": "r", "pairs": [{"path": path, "beforeFile": "v1.sol",
                               "afterFile": "v2.sol"}]}]})
    code, out, err = run(capsys, "diff", "--manifest", manifest,
                         "--format", "json")
    assert code == 2
    assert json.loads(out)["revisions"] == []
    assert err.splitlines() == [
        f'emitlint: revision r: "path" must be a string, not {found}']


def test_diff_pair_without_path_reports_its_file_name(capsys, tmp_path):
    """A pair with no "path" is reported under its after file's name, or
    its before file's name when the file was deleted."""
    (tmp_path / "v1.sol").write_text(
        "contract C {\n    event E(uint a);\n    function f(uint a) public {"
        "\n        emit E(a);\n    }\n}\n")
    (tmp_path / "v2.sol").write_text(
        "contract C {\n    event E(uint a);\n    function f(uint a) public {"
        "\n        emit E(a + 1);\n    }\n}\n")
    manifest = _write_manifest(tmp_path, {"revisions": [
        {"id": "r", "pairs": [
            {"beforeFile": "v1.sol", "afterFile": "v2.sol"},
            {"beforeFile": "v1.sol"},
            {"path": "named.sol", "afterFile": "v2.sol"}]}]})
    code, out, _ = run(capsys, "diff", "--manifest", manifest,
                       "--format", "json")
    assert code == 0
    changes = json.loads(out)["revisions"][0]["changes"]
    assert [(ch["path"], ch["category"]) for ch in changes] == [
        ("v2.sol", "ParameterChange"), ("v1.sol", "Deletion"),
        ("named.sol", "Addition")]


def test_diff_deeply_nested_manifest_exit_two(capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[" * 100_000)
    code, _, err = run(capsys, "diff", "--manifest", str(manifest))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command,summary", [
    ("lint", "1 file(s) analyzed, 0 finding(s)"),
    ("metrics", "files analyzed: 1"),
])
def test_deeply_nested_source_is_damage_not_a_traceback(capsys, tmp_path,
                                                         command, summary):
    ladder = "x"
    for _ in range(60):
        ladder = f"(x || x && x == x < x | x ^ x & x << x + x * {ladder})"
    mapping = "mapping(uint => " * 2000 + "uint" + ")" * 2000
    # Within each nesting limit on its own, over the interpreter stack
    # taken together.
    combined = ("{" * 118 + "x = " + "(" * 79 + "!" * 99 + "y" + ")" * 79
                + ";" + "}" * 118)
    for text in (f"contract C {{\n    {mapping} m;\n"
                 f"    function f(uint x) public {{ x = {ladder}; }}\n}}\n",
                 f"contract C {{\n    function f(bool x, bool y) public "
                 f"{combined}\n}}\n"):
        target = tmp_path / "deep.sol"
        target.write_text(text)
        code, out, err = run(capsys, command, str(target))
        assert code == 0
        assert err == ""
        assert summary in out.splitlines()


@pytest.mark.parametrize("config,message", [
    ({"enabled": "GAS_STORAGE_PARAM"},
     '"enabled" must be a JSON array of check ids, not a string'),
    ({"overuseThreshold": "lots"},
     '"overuseThreshold" must be a number, not a string'),
    ({"enabled": ["GAS_STORAGE_PARAM", 3]},
     '"enabled" items must be strings, not a number'),
    (["GAS_STORAGE_PARAM"], "top level must be a JSON object, not an array"),
    ({"debugEventFormB": "false"},
     '"debugEventFormB" must be a boolean, not a string'),
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b'{"enabled": ["DEBUG_EVENT"]',
     "Expecting ',' delimiter: line 1 column 28 (char 27)"),
    (b'{"enabled": ["\xff"]}',
     "'utf-8' codec can't decode byte 0xff in position 14: invalid start "
     "byte"),
    (b'{"overuseThreshold": NaN}',
     '"overuseThreshold" must be in (0, 1], not nan'),
    (b'{"overuseThreshold": 1e400}',
     '"overuseThreshold" must be in (0, 1], not inf'),
    (b'{"overuseThreshold": 1e-400}',
     '"overuseThreshold" must be in (0, 1], not 0.0'),
    ({"overuseThreshold": 2}, '"overuseThreshold" must be in (0, 1], not 2'),
    ({"overuseThreshold": 0}, '"overuseThreshold" must be in (0, 1], not 0'),
])
def test_lint_malformed_config_exit_two(capsys, tmp_path, config, message):
    """config as JSON; bytes are written as they are. The file is checked
    also when a flag overrides its threshold."""
    path = tmp_path / "config.json"
    path.write_bytes(config if isinstance(config, bytes)
                     else json.dumps(config).encode())
    for flags in ([], ["--overuse-threshold", "0.5"]):
        code, out, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                             "--config", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"emitlint: {path}: {message}"]


def test_usage_error_exit_two(capsys):
    assert main(["lint"]) == 2
    capsys.readouterr()


def test_whole_file_kill_flag(capsys, tmp_path):
    before = tmp_path / "w1.sol"
    after = tmp_path / "w2.sol"
    before.write_text("""contract C {
    uint public id1;
    uint public id2;
    uint public seed;
    event Send(uint id);
    function f() public {
        uint x = 1;
        id1 = seed;
        emit Send(id1);
    }
}
""")
    after.write_text(before.read_text()
                     .replace("uint x = 1;", "uint x = 2;")
                     .replace("emit Send(id1);", "emit Send(id2);"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"revisions": [{
        "id": "w",
        "pairs": [{"path": "w.sol", "beforeFile": "w1.sol",
                   "afterFile": "w2.sol"}],
    }]}))
    _, out_changed, _ = run(capsys, "diff", "--manifest", str(manifest))
    assert "HeuristicIndependent" in out_changed
    _, out_whole, _ = run(capsys, "diff", "--manifest", str(manifest),
                          "--whole-file-kill")
    assert "Dependent" in out_whole


def test_suggestion_only_on_gas_check(capsys):
    _, out, _ = run(capsys, "lint", str(fixture_path("gas")),
                    str(fixture_path("lint_tree")), "--format", "json")
    data = json.loads(out)
    for d in data:
        if d["checkId"] == "GAS_STORAGE_PARAM":
            assert d["suggestion"] is not None
            assert d["suggestion"]["replacement"]
        else:
            assert d["suggestion"] is None


def test_non_utf8_file_reported_and_skipped(capsys, tmp_path):
    bad = tmp_path / "bad.sol"
    bad.write_bytes(b"contract C { \xff\xfe }")
    good = tmp_path / "good.sol"
    good.write_text("contract D {\n    uint a;\n}\n")
    code, out, err = run(capsys, "lint", str(tmp_path))
    assert code == 0  # good.sol analyzed, no findings
    assert "bad.sol" in err
    assert "1 file(s) analyzed" in out


# ------------------------------------------------------------- the collector

def test_main_runs_no_collection_and_restores_the_collector(capsys,
                                                            monkeypatch):
    """`main` pauses the cyclic collector for the command it runs: with the
    collector on, `lint`, `metrics` and `diff` on the fixtures start no
    collection while `main` is on the stack. (The allocations made during
    the pause still count, so the first one after it may start a young
    collection.) The caller's setting comes back after a command, a command
    that raises and an argparse error, whether it was on or off."""
    commands = [
        ("lint", str(FIXTURES)),
        ("metrics", str(FIXTURES)),
        ("diff", "--manifest",
         str(fixture_path("manifests", "basic", "manifest.json"))),
    ]
    starts = []

    def hook(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not main.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            starts.append(info["generation"])

    def failing_lint(ns):
        raise RuntimeError("lint failed")

    was_enabled = gc.isenabled()
    gc.callbacks.append(hook)
    try:
        gc.enable()
        for argv in commands:
            run(capsys, *argv)
            assert gc.isenabled()
        assert starts == []
        monkeypatch.setattr(cli, "run_lint", failing_lint)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run(capsys, *commands[1])[0] == 0
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="lint failed"):
                main(list(commands[0]))
            assert gc.isenabled() is enabled
            assert run(capsys, "lint", "--no-such-option")[0] == 2
            assert gc.isenabled() is enabled
        assert starts == []
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was_enabled else gc.disable)()


# -------------------------------------------------------------- one parser

def test_one_parser_answers_each_call_as_a_fresh_one_does(capsys,
                                                         monkeypatch):
    """`main` parses with the one parser built at import. Over a sequence
    in which each call leaves out what the call before it set, every call
    prints and exits as it does with a parser built for it alone: an
    argparse error, then a valid call; `--format json`, then text;
    `--whole-file-kill`, then without it; `--enable`, then without it."""
    tree = str(fixture_path("lint_tree"))
    manifest = str(fixture_path("manifests", "relex", "manifest.json"))
    calls = [
        ["lint", tree, "--overuse-threshold"],
        ["lint", tree],
        ["metrics", "--format", "json", tree],
        ["metrics", tree],
        ["diff", "--manifest", manifest, "--whole-file-kill"],
        ["diff", "--manifest", manifest],
        ["lint", "--enable", "DEBUG_EVENT", tree],
        ["lint", tree],
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", cli.build_arg_parser())
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 1, 0, 0, 0, 0, 1, 1]
    # Each call prints other output than the one before it.
    outs = [out for _, out, _ in shared]
    assert all(outs[i] != outs[i + 1] for i in range(0, len(outs), 2))


# -------------------------------------------------------------- JSON reports

def _random_text(rng) -> str:
    """Quotes, backslashes, control characters, non-ASCII, astral and lone
    surrogate code points, and plain letters."""
    pool = ('"', "\\", "/", "\x00", "\x1f", "\x7f", "\t", "\n", "\r", "\b",
            "\f", "é", "ß", "中", "\u2028", "\ufeff", "\U0001F600",
            "\U00010348", "\ud800", "a", "Z", " ", "0")
    return "".join(rng.choice(pool) for _ in range(rng.randrange(8)))


_FLOATS = (0.0, -0.0, 1e16, 1e-7, 0.1 + 0.2, 1.5, -2.5e300, 5e-324,
           float("nan"), float("inf"), float("-inf"))


def _random_value(rng, depth: int = 0):
    """A report-shaped value: containers nest at most four deep."""
    pick = rng.randrange(10 if depth < 4 else 7)
    if pick == 0:
        return _random_text(rng)
    if pick == 1:
        return rng.choice((0, -1, 2 ** 63, -(2 ** 100), 10 ** 30,
                           rng.randint(-10 ** 6, 10 ** 6)))
    if pick == 2:
        return rng.choice(_FLOATS + (rng.uniform(-1e6, 1e6),))
    if pick == 3:
        return rng.choice((True, False))
    if pick == 4:
        return None
    if pick == 5:
        return rng.choice(([], {}))
    if pick in (6, 7):
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {_random_text(rng): _random_value(rng, depth + 1)
            for _ in range(rng.randrange(5))}


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*json*.out")),
                         ids=lambda path: path.name)
def test_report_writer_matches_json_dumps_on_the_goldens(golden):
    report = json.loads(golden.read_text())
    assert cli._json_text(report) == json.dumps(report, indent=2)


@pytest.mark.parametrize("workload", ["project", "monolith"])
def test_reports_print_as_json_dumps_indents(capsys, tmp_path, workload):
    """The seed-1 `lint`, `metrics` and `diff` reports of a perfbench
    workload print the text `json.dumps(report, indent=2)` gives."""
    tree, manifest = write_bench_corpus(workload, 1, tmp_path)
    for argv in (["lint", "--format", "json", str(tree)],
                 ["metrics", "--format", "json", str(tree)],
                 ["diff", "--format", "json", "--manifest", str(manifest)]):
        _, out, _ = run(capsys, *argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_report_writer_matches_json_dumps_on_random_values():
    rng = random.Random(39)
    values = [_random_value(rng) for _ in range(2000)]
    assert sum(isinstance(v, (list, dict)) and bool(v) for v in values) > 500
    for value in values:
        assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1, 2}, [{"a": {"b"}}], {1: "a"}, {"a": {None: 0}}, (1, 2), b"x",
], ids=["set", "nested-set", "int-key", "none-key", "tuple", "bytes"])
def test_report_writer_refuses_types_no_report_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)
