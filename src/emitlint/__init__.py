"""Static analysis for Solidity event logging.

Lints source files for event-logging defect patterns (storage reads in emit
arguments, emit overuse, stale-value placement, redundant and leftover debug
emits), computes emit-density metrics, and classifies emit modifications
between revisions by category and independence.
"""

from .checks import (
    CheckConfig, CheckId, Diagnostic, Severity, Suggestion, run_checks,
)
from .dataflow import EqualityFact, equalities_at
from .evolution import (
    ChangeCategory, ChurnReport, DiffOp, EventUseChange, FilePair,
    Independence, LineDiff, Revision, RevisionAnalysis, analyze_revision,
    churn, classify_independence, diff_lines, pair_emit_changes,
)
from .lexer import LexError, Token, TokenKind
from .metrics import FileMetrics, ProjectMetrics, compute_metrics
from .nodes import ParseError, SourceUnit
from .parser import parse, parse_file
from .scan import (
    LocStats, RegexEmitMatch, count_loc, extract_emits_regex,
)
from .source import SourceFile, Span
from .symbols import (
    LocationClass, ScopeTree, Symbol, SymbolKind, build_symbols, resolve,
    resolve_at,
)

__version__ = "0.1.0"

__all__ = [
    "ChangeCategory", "CheckConfig", "CheckId", "ChurnReport", "Diagnostic",
    "DiffOp", "EqualityFact", "EventUseChange", "FileMetrics", "FilePair",
    "Independence", "LexError", "LineDiff", "LocStats", "LocationClass",
    "ParseError", "ProjectMetrics", "RegexEmitMatch", "Revision",
    "RevisionAnalysis", "ScopeTree", "Severity", "SourceFile", "SourceUnit",
    "Span", "Suggestion", "Symbol", "SymbolKind", "Token", "TokenKind",
    "analyze_revision", "build_symbols", "churn", "classify_independence",
    "compute_metrics", "count_loc", "diff_lines", "equalities_at",
    "extract_emits_regex", "pair_emit_changes", "parse", "parse_file",
    "resolve", "resolve_at", "run_checks",
]
