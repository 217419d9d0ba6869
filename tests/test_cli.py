import json
import sys
from collections import Counter
from functools import partial

import pytest

from emitlint.cli import main

from helpers import fixture_path


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


@pytest.mark.parametrize("threshold", ["1/0", "0", "2", "abc", "nan"])
def test_lint_bad_overuse_threshold_is_a_usage_error(capsys, threshold):
    """A threshold that is no ratio in (0, 1] stops lint before any file is
    analyzed: one stderr line, nothing on stdout, exit 2."""
    code, out, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                         "--overuse-threshold", threshold)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("emitlint: ")


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
    assert data["fileCount"] == 15
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
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(data))
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
])
def test_lint_malformed_config_exit_two(capsys, tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "lint", str(fixture_path("lint_tree")),
                         "--config", str(path))
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
