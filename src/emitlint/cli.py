"""Command-line interface.

Subcommands:
  lint     run the checks over .sol files and directories
  metrics  emit-density statistics per file and project
  diff     churn and emit-change classification over a revision manifest

Exit codes: 0 = clean, 1 = findings reported, 2 = usage or I/O failure.
Set NO_COLOR (or pipe the output) to suppress styling.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .checks import (
    CheckConfig, CheckId, Diagnostic, _sort_key, _threshold, run_checks,
)
from .evolution import (
    FilePair, Independence, Revision, RevisionAnalysis, analyze_revision,
)
from .metrics import ProjectMetrics, compute_metrics
from .source import SourceFile, Span

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

_SEVERITY_COLORS = {
    "error": "\x1b[31m",
    "warning": "\x1b[33m",
    "info": "\x1b[36m",
    "hint": "\x1b[2m",
}
_RESET = "\x1b[0m"


def _use_color(stream) -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emitlint",
        description="Static analysis for Solidity event logging.")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run lint checks over files")
    lint.add_argument("paths", nargs="+", metavar="PATH",
                      help=".sol files or directories (recursed)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--config", metavar="FILE",
                      help="JSON config file with check settings")
    lint.add_argument("--enable", metavar="ID[,ID...]",
                      help="enable only these checks")
    lint.add_argument("--disable", metavar="ID[,ID...]",
                      help="disable these checks")
    lint.add_argument("--overuse-threshold", type=str, metavar="R",
                      help="emits-per-code-line ratio above which a file is "
                           "flagged (default 0.1)")
    lint.add_argument("--debug-form-b", action="store_true",
                      help="also hint on emits mixing variables with a "
                           "string literal")

    metrics = sub.add_parser("metrics", help="emit-density statistics")
    metrics.add_argument("paths", nargs="+", metavar="PATH")
    metrics.add_argument("--format", choices=("text", "json"), default="text")

    diff = sub.add_parser("diff", help="analyze revision pairs")
    diff.add_argument("--manifest", required=True, metavar="FILE",
                      help="JSON revision manifest")
    diff.add_argument("--format", choices=("text", "json"), default="text")
    diff.add_argument("--whole-file-kill", action="store_true",
                      help="run the independence kill test over whole files "
                           "instead of changed lines only")
    return parser


# Built once: parse_args keeps nothing between calls, and building the tree
# costs a sizeable share of a small command.
_PARSER = build_arg_parser()


# ----------------------------------------------------------- config handling

def _json_type(value) -> str:
    """JSON name of a decoded value's type, for error messages."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    if isinstance(value, str):
        return "a string"
    if isinstance(value, list):
        return "an array"
    return "an object"


def _checked(value, kind, what: str):
    """value when it has the JSON type kind (a boolean is not a number);
    otherwise ValueError "<what>, not <the type found>"."""
    if isinstance(value, kind) and isinstance(value, bool) == (kind is bool):
        return value
    raise ValueError(f"{what}, not {_json_type(value)}")


def _check_ids(raw: str, prefix: str, count_error: str,
               single: bool = False) -> frozenset[CheckId]:
    """The check ids a comma-separated value names. A value naming none,
    or more than one when single, is the error prefix + count_error; an
    unknown id is the error prefix + "unknown check id: <id>"."""
    parts = [part.strip() for part in raw.split(",")]
    if not any(parts) or single and len(parts) > 1:
        raise ValueError(prefix + count_error)
    ids = []
    for part in filter(None, parts):
        try:
            ids.append(CheckId(part))
        except ValueError:
            raise ValueError(f"{prefix}unknown check id: {part}") from None
    return frozenset(ids)


def _load_json_object(path: str) -> dict:
    """The JSON object a file holds. A file that is not UTF-8, not JSON or
    not an object is ValueError "<path>: <reason>"."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    return _checked(data, dict, f"{path}: top level must be a JSON object")


def load_config(ns: argparse.Namespace) -> CheckConfig:
    """CheckConfig() with what the config file, then the flags, set."""
    config = CheckConfig()
    if ns.config is not None:
        where = ns.config
        data = _load_json_object(where)
        if "overuseThreshold" in data:
            config.overuse_threshold = _threshold(_checked(
                data["overuseThreshold"], (int, float),
                f'{where}: "overuseThreshold" must be a number'),
                f'{where}: "overuseThreshold"')
        if "enabled" in data:
            ids = _checked(data["enabled"], list, f'{where}: "enabled" must '
                           "be a JSON array of check ids")
            config.enabled = frozenset().union(*(_check_ids(_checked(
                item, str, f'{where}: "enabled" items must be strings'),
                f"{where}: ", '"enabled" items must each name one check id, '
                f"not {item!r}", single=True) for item in ids))
        if "debugEventFormB" in data:
            config.debug_event_form_b = _checked(
                data["debugEventFormB"], bool,
                f'{where}: "debugEventFormB" must be a boolean')
    if ns.overuse_threshold is not None:
        config.overuse_threshold = _threshold(ns.overuse_threshold,
                                              "--overuse-threshold")
    if ns.enable is not None:
        config.enabled = _check_ids(ns.enable, "", f"--enable {ns.enable!r} "
                                    "names no check id")
    if ns.disable is not None:
        config.enabled -= _check_ids(ns.disable, "", f"--disable "
                                     f"{ns.disable!r} names no check id")
    if ns.debug_form_b:
        config.debug_event_form_b = True
    return config


# ------------------------------------------------------------- JSON reports

# How json writes the floats that have no JSON number.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value) -> str:
    """The text json.dumps(value, indent=2) gives for a report: dicts with
    str keys, lists, str, int, float, bool and None; any other type is a
    TypeError. json.dumps with an indent runs its pure-Python encoder; this
    writer shares only its C string escaper."""
    parts: list[str] = []
    _write_json(value, "\n", parts)
    return "".join(parts)


def _write_json(value, newline: str, parts: list[str]) -> None:
    """Append value's text to parts; newline starts its enclosing line."""
    if isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        parts.append(_FLOAT_WORDS.get(text, text))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(opener + _quote(key) + ": ")
            _write_json(item, inner, parts)
            opener = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            parts.append(opener)
            _write_json(item, inner, parts)
            opener = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not "
                        "JSON serializable")


# ------------------------------------------------------------ file discovery

def collect_source_files(paths: list[str],
                         errors: list[str]) -> list[SourceFile]:
    file_paths: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            file_paths.extend(sorted(p.rglob("*.sol")))
        elif p.exists():
            file_paths.append(p)
        else:
            errors.append(f"{raw}: no such file or directory")
    files = []
    for fp in file_paths:
        try:
            files.append(SourceFile.load(fp))
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(f"{fp}: {exc}")
    return files


def _load_files(paths: list[str]) -> tuple[list[SourceFile], list[str]]:
    """collect_source_files, printing one stderr line per path or file that
    could not be read."""
    errors: list[str] = []
    files = collect_source_files(paths, errors)
    for err in errors:
        print(f"emitlint: {err}", file=sys.stderr)
    return files, errors


# ------------------------------------------------------------------ lint cmd

def _span_to_dict(span: Span) -> dict:
    return {
        "startLine": span.start_line,
        "startCol": span.start_col,
        "endLine": span.end_line,
        "endCol": span.end_col,
    }


def _diag_to_dict(diag: Diagnostic) -> dict:
    suggestion = None
    if diag.suggestion is not None:
        s = diag.suggestion
        suggestion = {"replacement": s.replacement_text,
                      **_span_to_dict(s.replace_span)}
    return {
        "file": diag.file,
        **_span_to_dict(diag.span),
        "checkId": diag.check_id.value,
        "severity": diag.severity.value,
        "message": diag.message,
        "suggestion": suggestion,
    }


def _format_diag_text(diag: Diagnostic, color: bool) -> str:
    severity = diag.severity.value
    if color:
        paint = _SEVERITY_COLORS.get(severity, "")
        severity = f"{paint}{severity}{_RESET}"
    line = (f"{diag.file}:{diag.span.start_line}:{diag.span.start_col}: "
            f"{severity} {diag.check_id.value}: {diag.message}")
    if diag.suggestion is not None:
        line += f" (suggestion: use '{diag.suggestion.replacement_text}')"
    return line


def run_lint(ns: argparse.Namespace) -> int:
    try:
        cfg = load_config(ns)
    except (ValueError, OSError) as exc:
        print(f"emitlint: {exc}", file=sys.stderr)
        return EXIT_ERROR
    files, _ = _load_files(ns.paths)
    diagnostics: list[Diagnostic] = []
    for file in files:
        diagnostics.extend(run_checks(file, cfg).diagnostics)
    diagnostics.sort(key=_sort_key)
    if ns.format == "json":
        print(_json_text([_diag_to_dict(d) for d in diagnostics]))
    else:
        color = _use_color(sys.stdout)
        for diag in diagnostics:
            print(_format_diag_text(diag, color))
        print(f"{len(files)} file(s) analyzed, "
              f"{len(diagnostics)} finding(s)")
    if not files:
        return EXIT_ERROR
    return EXIT_FINDINGS if diagnostics else EXIT_OK


# --------------------------------------------------------------- metrics cmd

def _metrics_to_dict(pm: ProjectMetrics) -> dict:
    return {
        "fileCount": pm.file_count,
        "totalCodeLoc": pm.total_code_loc,
        "totalEmitCount": pm.total_emit_count,
        "emitPerLoc": float(pm.emit_per_loc),
        "perFile": [
            {
                "path": f.path,
                "codeLoc": f.code_loc,
                "emitCount": f.emit_count,
                "emitPerLoc": float(f.emit_per_loc),
                "method": f.method,
            }
            for f in pm.per_file
        ],
    }


def run_metrics(ns: argparse.Namespace) -> int:
    files, errors = _load_files(ns.paths)
    pm = compute_metrics(files)
    if ns.format == "json":
        print(_json_text(_metrics_to_dict(pm)))
    else:
        print(f"files analyzed: {pm.file_count}")
        print(f"code lines: {pm.total_code_loc}")
        print(f"emit statements: {pm.total_emit_count}")
        print(f"emits per code line: {float(pm.emit_per_loc):.3f}")
        for f in pm.per_file:
            print(f"  {f.path}: {f.emit_count} emits / {f.code_loc} code "
                  f"lines = {float(f.emit_per_loc):.3f} ({f.method})")
    return EXIT_ERROR if errors and not files else EXIT_OK


# ------------------------------------------------------------------ diff cmd

def load_manifest(path: str) -> tuple[list[Revision], list[str]]:
    """Revisions of a manifest, plus one message per revision skipped because
    an entry or a pair is not an object or a file cannot be read. Raises
    ValueError when the file is not UTF-8 or not JSON, the top level is not
    an object, or "revisions" or a revision's "pairs" is not an array."""
    base = Path(path).parent
    data = _load_json_object(path)
    entries = _checked(data.get("revisions", []), list,
                       f'{path}: "revisions" must be a JSON array')
    revisions: list[Revision] = []
    errors: list[str] = []
    for index, entry in enumerate(entries):
        try:
            _checked(entry, dict, f"revisions[{index}]: must be a JSON object")
        except ValueError as exc:
            errors.append(str(exc))
            continue
        rev_id = str(entry.get("id", f"rev{len(revisions)}"))
        raw_pairs = _checked(entry.get("pairs", []), list,
                             f'{path}: revision {rev_id}: "pairs" must be a '
                             "JSON array")
        try:
            pairs = tuple(_load_pair(base, pair) for pair in raw_pairs)
        except (OSError, ValueError) as exc:
            errors.append(f"revision {rev_id}: {exc}")
            continue
        revisions.append(Revision(rev_id, entry.get("message"), pairs))
    return revisions, errors


def _load_pair(base: Path, pair) -> FilePair:
    _checked(pair, dict, "pair must be a JSON object")
    path = _checked(pair.get("path", ""), str, '"path" must be a string')
    sides: list[SourceFile | None] = []
    for key in ("beforeFile", "afterFile"):
        name = pair.get(key)
        if name is None or name == "":
            sides.append(None)
            continue
        _checked(name, str, f'"{key}" must be a string')
        try:
            sides.append(SourceFile.load(base / name))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{base / name}: {exc}") from None
        if "path" not in pair:
            path = name  # the after file's name, else the before file's
    if sides == [None, None]:
        raise ValueError("pair with no files")
    for file in sides:
        if file is not None:
            file.path = path
    return FilePair(path, *sides)


def _change_to_dict(change) -> dict:
    def emit_dict(match):
        if match is None:
            return None
        return {
            "event": match.event_name,
            "args": match.raw_args.strip(),
            "line": match.span.start_line,
        }

    return {
        "path": change.path,
        "category": change.category.value,
        "before": emit_dict(change.before_emit),
        "after": emit_dict(change.after_emit),
        "changedArgTokens": list(change.changed_arg_tokens),
        "independence": change.independence.value,
    }


def _report_to_dict(report: RevisionAnalysis) -> dict:
    c = report.churn
    return {
        "id": report.revision_id,
        "churn": {
            "churnedLoc": c.churned_loc,
            "totalLoc": c.total_loc,
            "locChurnRate": float(c.loc_churn_rate),
            "churnedEmits": c.churned_emits,
            "totalEmits": c.total_emits,
            "emitChurnRate": float(c.emit_churn_rate),
        },
        "changes": [_change_to_dict(ch) for ch in report.changes],
    }


def summarize_reports(reports: list[RevisionAnalysis]) -> dict:
    labels = Counter(ch.independence for rep in reports for ch in rep.changes)
    total = sum(labels.values())
    absolute = labels[Independence.ABSOLUTE_INDEPENDENT]
    independent = absolute + labels[Independence.HEURISTIC_INDEPENDENT]
    return {
        "changeCount": total,
        "absoluteIndependentFraction": absolute / total if total else 0.0,
        "independentFraction": independent / total if total else 0.0,
    }


def run_diff(ns: argparse.Namespace) -> int:
    try:
        revisions, errors = load_manifest(ns.manifest)
    except (OSError, ValueError) as exc:
        print(f"emitlint: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for err in errors:
        print(f"emitlint: {err}", file=sys.stderr)
    reports = [analyze_revision(rev, ns.whole_file_kill) for rev in revisions]
    summary = summarize_reports(reports)
    if ns.format == "json":
        print(_json_text({
            "revisions": [_report_to_dict(r) for r in reports],
            "summary": summary,
        }))
    else:
        for rep in reports:
            c = rep.churn
            print(f"revision {rep.revision_id}: "
                  f"locChurnRate {float(c.loc_churn_rate):.3f} "
                  f"({c.churned_loc}/{c.total_loc}), "
                  f"emitChurnRate {float(c.emit_churn_rate):.3f} "
                  f"({c.churned_emits}/{c.total_emits})")
            for ch in rep.changes:
                before = ch.before_emit.event_name if ch.before_emit else "-"
                after = ch.after_emit.event_name if ch.after_emit else "-"
                tokens = ",".join(ch.changed_arg_tokens) or "-"
                print(f"  {ch.category.value} {before} -> {after} "
                      f"[{ch.independence.value}] tokens: {tokens}")
        print(f"summary: {summary['changeCount']} change(s), "
              f"absoluteIndependent {summary['absoluteIndependentFraction']:.3f}, "
              f"independent {summary['independentFraction']:.3f}")
    if not reports and errors:
        return EXIT_ERROR
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused: the
    analyses make no reference cycles, so reference counting frees all they
    build, and the collector's passes over their live objects are pure cost,
    growing with the size of one file. The caller's setting comes back on
    every exit. The arguments are parsed by the one parser built at import."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            ns = _PARSER.parse_args(argv)
        except SystemExit as exc:
            return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
        if ns.command == "lint":
            return run_lint(ns)
        if ns.command == "metrics":
            return run_metrics(ns)
        return run_diff(ns)
    finally:
        if enabled:
            gc.enable()


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
