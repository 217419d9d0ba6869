"""Seeded synthetic Solidity corpora, revision histories and their oracle.

Every generated line carries what the generator knows about it: its kind
(code, comment or blank), the emit it holds, the identifiers the line assigns
or passes to a call, and the lint findings planted on it. The oracle below is
computed from those records only, never from emitlint's output.

Design rules that keep the oracle exact:

- Every code line of a function contains the function's unique number, so
  code lines are unique within a file (``emit Ping();`` is the one exception,
  and it is never edited).
- Edits inside a file pair only delete, insert or replace unique lines, and a
  moved emit crosses at least two unique lines. The minimal line diff is then
  exactly the planted edit script.
- Within one file pair, the emit changes use disjoint event names and distinct
  arguments, and a pair never mixes a compound change, additions and
  deletions. emitlint's greedy pairing then reproduces the planted categories.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

OVERUSE_THRESHOLD = Fraction(1, 10)

_EMIT_RE = re.compile(r"^\s*emit (\w+)\((.*)\);$")
_WORD_RE = re.compile(r"[A-Za-z_]\w*")


# --------------------------------------------------------------------- lines

@dataclass(frozen=True)
class Line:
    text: str
    kind: str  # code | comment | blank
    kills: frozenset = frozenset()
    finds: tuple = ()  # ((check_id, replacement_or_None), ...)

    @property
    def emit(self) -> tuple[str, str] | None:
        m = _EMIT_RE.match(self.text)
        return (m.group(1), m.group(2)) if m else None


BLANK = Line("", "blank")


def code(text: str, kills=(), finds=()) -> Line:
    return Line(text, "code", frozenset(kills), tuple(finds))


def note(text: str) -> Line:
    return Line(text, "comment")


GAS = "GAS_STORAGE_PARAM"
OVERUSE = "EVENT_OVERUSE"
BEFORE_OP = "EMIT_BEFORE_OP"
REDUNDANT = "REDUNDANT_EVENT"
DEBUG = "DEBUG_EVENT"
CHECK_IDS = (GAS, OVERUSE, BEFORE_OP, REDUNDANT, DEBUG)


# ----------------------------------------------------------------- templates
#
# Each template returns the lines of one function numbered k. The kill sets
# list the identifiers a line assigns (left of an assignment operator, or next
# to ++/--) or passes inside a call's parentheses.

def t_deposit(k):
    return [
        note(f"    /// @notice Deposit funds, entry {k}."),
        code(f"    function deposit{k}(uint256 amount{k}) external {{",
             {f"amount{k}"}),
        code(f'        require(amount{k} > 0, "zero amount {k}");',
             {f"amount{k}"}),
        code(f"        balances[msg.sender] = balances[msg.sender] + amount{k};",
             {"balances", "msg", "sender"}),
        code(f"        total = total + amount{k};", {"total"}),
        code(f"        emit Deposited(msg.sender, amount{k});"),
        code(f"    }} // end deposit{k}"),
    ]


def t_withdraw(k):
    return [
        note(f"    /// @notice Withdraw funds, entry {k}."),
        code(f"    function withdraw{k}(uint256 amount{k}) external {{",
             {f"amount{k}"}),
        code(f"        uint256 held{k} = balances[msg.sender];", {f"held{k}"}),
        code(f"        if (held{k} >= amount{k}) {{"),
        code(f"            balances[msg.sender] = held{k} - amount{k}; "
             f"// settle {k}", {"balances", "msg", "sender"}),
        code(f"            emit Withdrawn(msg.sender, amount{k});"),
        code(f"        }} else {{ // short {k}"),
        code(f"            emit Snapshot(held{k}, {k});"),
        code(f"        }} // end branch {k}"),
        code(f"    }} // end withdraw{k}"),
    ]


def t_distribute(k):
    return [
        note("    /**"),
        note(f"     * @notice Split a share across payees, entry {k}."),
        note("     * @dev The loop body logs once per payee."),
        note("     */"),
        code(f"    function distribute{k}(address[] memory payees{k}, "
             f"uint256 share{k}) external {{", {f"payees{k}", f"share{k}"}),
        code(f"        uint256 paid{k} = 0;", {f"paid{k}"}),
        code(f"        for (uint256 i{k} = 0; i{k} < payees{k}.length; "
             f"i{k}++) {{", {f"i{k}"}),
        code(f"            balances[payees{k}[i{k}]] = "
             f"balances[payees{k}[i{k}]] + share{k};",
             {"balances", f"payees{k}", f"i{k}"}),
        code(f"            paid{k} = paid{k} + share{k};", {f"paid{k}"}),
        code(f"            emit Moved(msg.sender, payees{k}[i{k}], share{k});"),
        code(f"        }} // end loop {k}"),
        code(f"        total = total + paid{k};", {"total"}),
        code(f"    }} // end distribute{k}"),
    ]


def t_snapshot(k):
    # storage->memory caching: the emit reads `total` although cached{k}
    # holds the same value.
    return [
        note(f"    /// @notice Record a snapshot, entry {k}."),
        code(f"    function snapshot{k}() external {{"),
        code(f"        uint256 cached{k} = total;", {f"cached{k}"}),
        code(f"        emit Synced(total, {k});", finds=[(GAS, f"cached{k}")]),
        code(f"        counter = cached{k};", {"counter"}),
        code(f"    }} // end snapshot{k}"),
    ]


def t_set_rate(k):
    return [
        note(f"    /// @notice Update the fee rate, entry {k}."),
        code(f"    function setRate{k}(uint256 rate{k}) external {{",
             {f"rate{k}"}),
        code(f'        require(rate{k} < 10000, "rate too high {k}");',
             {f"rate{k}"}),
        code(f"        feeRate = rate{k};", {"feeRate"}),
        code(f"        emit FeeSet(feeRate, {k});", finds=[(GAS, f"rate{k}")]),
        code(f"    }} // end setRate{k}"),
    ]


def t_poke(k):
    return [
        note(f"    /// @notice Debug poke, entry {k}."),
        code(f"    function poke{k}(uint256 step{k}) external {{",
             {f"step{k}"}),
        code("        emit Ping();", finds=[(DEBUG, None)]),
        code(f"        counter = counter + step{k};", {"counter"}),
        code(f'        emit Note("poked {k}");', finds=[(DEBUG, None)]),
        code(f"    }} // end poke{k}"),
    ]


def t_trace(k):
    return [
        note(f"    /// @notice Trace a step, entry {k}."),
        code(f"    function trace{k}(uint256 start{k}) external {{",
             {f"start{k}"}),
        code(f"        uint256 step{k} = start{k} * 2;", {f"step{k}"}),
        code(f"        if (step{k} > counter) {{"),
        code(f"            emit Trace(step{k}, {k});", finds=[(DEBUG, None)]),
        code(f"        }} // end check {k}"),
        code(f"        emit Trace(start{k}, {k});"),
        code(f"    }} // end trace{k}"),
    ]


def t_settle(k):
    return [
        note(f"    /// @notice Settle a transfer, entry {k}."),
        code(f"    function settle{k}(address to{k}, uint256 amount{k}) "
             f"external {{", {f"to{k}", f"amount{k}"}),
        code(f"        balances[to{k}] = balances[to{k}] + amount{k};",
             {"balances", f"to{k}"}),
        code(f"        emit Deposited(to{k}, amount{k});",
             finds=[(REDUNDANT, None)]),
        code(f"        emit Moved(msg.sender, to{k}, amount{k});"),
        code(f"    }} // end settle{k}"),
    ]


def t_release(k):
    return [
        note(f"    /// @notice Release a payout, entry {k}."),
        code(f"    function release{k}(address payable to{k}) external {{",
             {f"to{k}"}),
        code(f"        uint256 due{k} = balances[to{k}];", {f"due{k}"}),
        code(f"        balances[to{k}] = 0;", {"balances", f"to{k}"}),
        code(f"        emit Withdrawn(to{k}, due{k});",
             finds=[(BEFORE_OP, None)]),
        code(f"        to{k}.transfer(due{k});", {f"due{k}"}),
        code(f"    }} // end release{k}"),
    ]


def t_quote(k):
    return [
        note(f"    /// @notice Quote a fee, entry {k}."),
        note(f"    /// @return fee{k} the quoted fee"),
        code(f"    function quote{k}(uint256 amount{k}) external view "
             f"returns (uint256 fee{k}) {{", {f"amount{k}"}),
        code(f"        fee{k} = amount{k} * feeRate / 10000;", {f"fee{k}"}),
        code(f"        if (fee{k} > reserve) {{"),
        code(f"            fee{k} = reserve; // capped {k}", {f"fee{k}"}),
        code(f"        }} // end cap {k}"),
        code(f"    }} // end quote{k}"),
    ]


def t_claim(k):
    return [
        note(f"    /// @notice Claim rewards, entry {k}."),
        code(f"    function claim{k}(uint256 amount{k}, bool early{k}) "
             f"external {{", {f"amount{k}", f"early{k}"}),
        code(f"        uint256 due{k} = amount{k};", {f"due{k}"}),
        code(f"        if (early{k}) {{"),
        code(f"            due{k} = due{k} / 2; // penalty {k}", {f"due{k}"}),
        code(f"        }} // end early {k}"),
        code(f"        if (due{k} > reserve) {{"),
        code(f"            due{k} = reserve - {k};", {f"due{k}"}),
        code(f"        }} // end clamp {k}"),
        code(f"        reserve = reserve - due{k};", {"reserve"}),
        code(f"        emit Claimed(msg.sender, due{k}, {k});"),
        code(f"    }} // end claim{k}"),
    ]


def t_sync(k):
    return [
        note(f"    /// @notice Sync reserves, entry {k}."),
        code(f"    function sync{k}(uint256 delta{k}) external {{",
             {f"delta{k}"}),
        code(f"        unchecked {{ // fast {k}"),
        code(f"            reserve = reserve + delta{k};", {"reserve"}),
        code(f"            counter = counter + {k};", {"counter"}),
        code(f"        }} // end unchecked {k}"),
        code(f"        emit Synced(reserve, {k});"),
        code(f"    }} // end sync{k}"),
    ]


def t_stats(k):
    return [
        note(f"    /// @notice Read accounting, entry {k}."),
        code(f"    function stats{k}(address who{k}) external view "
             f"returns (uint256 held{k}, uint256 share{k}) {{", {f"who{k}"}),
        code(f"        held{k} = balances[who{k}];", {f"held{k}"}),
        code(f"        share{k} = 0;", {f"share{k}"}),
        code(f"        if (total > 0) {{ // share {k}"),
        code(f"            share{k} = held{k} * 10000 / total;", {f"share{k}"}),
        code(f"        }} // end share {k}"),
        code(f"    }} // end stats{k}"),
    ]


def t_sweep(k):
    # Inline assembly becomes an Unparsed statement, which drops the
    # equality facts: the cached read of `reserve` is not reported.
    return [
        note(f"    /// @notice Sweep with inline assembly, entry {k}."),
        code(f"    function sweep{k}() external {{"),
        code(f"        uint256 cached{k} = reserve;", {f"cached{k}"}),
        code(f"        assembly {{ let slot{k} := sload(0) }}",
             {"let", f"slot{k}"}),
        code(f"        emit Swept(reserve, {k});"),
        code(f"    }} // end sweep{k}"),
    ]


def t_broken(k):
    # Syntax damage: one malformed statement forces the regex fallback for
    # the whole file's emit count.
    return [
        note(f"    /// @notice Damaged entry {k}."),
        code(f"    function broken{k}(uint256 amount{k}) external {{",
             {f"amount{k}"}),
        code(f"        total = total + * amount{k};", {"total"}),
        code(f"        emit Claimed(msg.sender, amount{k}, {k});"),
        code(f"    }} // end broken{k}"),
    ]


# Dense files exceed the default EVENT_OVERUSE threshold, sparse ones stay
# below it.
DENSE_CYCLE = (t_deposit, t_withdraw, t_distribute, t_snapshot, t_set_rate,
               t_poke, t_trace, t_settle, t_release, t_quote, t_claim,
               t_sync)
SPARSE_CYCLE = (t_quote, t_stats, t_claim, t_stats, t_quote, t_deposit,
                t_stats, t_quote, t_snapshot, t_stats, t_release, t_quote,
                t_stats, t_withdraw)
# Rewritten files need every function code line to be unique, which the
# shared `emit Ping();` line of t_poke is not.
REWRITE_CYCLE = tuple(t for t in DENSE_CYCLE if t is not t_poke)

EVENTS = (
    ("Deposited", "address who, uint256 amount", {"who", "amount"}),
    ("Withdrawn", "address who, uint256 amount", {"who", "amount"}),
    ("FeeSet", "uint256 rate, uint256 tag", {"rate", "tag"}),
    ("Synced", "uint256 value, uint256 tag", {"value", "tag"}),
    ("Snapshot", "uint256 value, uint256 tag", {"value", "tag"}),
    ("Trace", "uint256 step, uint256 tag", {"step", "tag"}),
    ("Ping", "", set()),
    ("Note", "string text", {"text"}),
    ("Moved", "address from, address to, uint256 amount",
     {"from", "to", "amount"}),
    ("Claimed", "address who, uint256 amount, uint256 tag",
     {"who", "amount", "tag"}),
    ("Swept", "uint256 amount, uint256 tag", {"amount", "tag"}),
)
EVENT_NAMES = tuple(name for name, _, _ in EVENTS)

_WORDS = ("Amber", "Birch", "Cedar", "Delta", "Ember", "Fjord", "Grove",
          "Harbor", "Iris", "Juniper", "Kestrel", "Lumen", "Maple", "Nova")


def header(name: str) -> list[Line]:
    lines = [
        note("// SPDX-License-Identifier: MIT"),
        code("pragma solidity ^0.8.19;"),
        BLANK,
        note(f"/// @title {name} keeps balances and logs their changes."),
        code(f"contract {name} {{"),
        code("    address public owner;"),
        code("    bool public paused;"),
        code("    uint256 public total;"),
        code("    uint256 public reserve;"),
        code("    uint256 public feeRate;"),
        code("    uint256 public counter;"),
        code("    uint256 public revision;"),
        code("    mapping(address => uint256) public balances;"),
        BLANK,
    ]
    lines += [code(f"    event {ev}({params});", kills)
              for ev, params, kills in EVENTS]
    lines += [
        BLANK,
        code("    constructor(uint256 initialRate) {"),
        code("        owner = msg.sender;", {"owner"}),
        code("        feeRate = initialRate;", {"feeRate"}),
        code("    } // end constructor"),
    ]
    return lines


@dataclass
class Source:
    """One generated file: its lines and the numbers its functions use."""
    path: str
    lines: list[Line]
    header_len: int
    body: list  # [(template, k)] in file order
    damaged: bool = False

    @property
    def text(self) -> str:
        return "".join(line.text + "\n" for line in self.lines)


def contract_source(rng: random.Random, path: str, name: str,
                    target_lines: int, cycle, extras=()) -> Source:
    """A contract of about target_lines lines: functions taken from cycle in
    turn while they fit, in seeded order, plus the extra templates placed at
    seeded positions. Which functions a file holds depends only on its size,
    cycle and extras, so the work a file makes does not depend on the seed."""
    templates: list = []
    count = len(header(name)) + 1
    for template in itertools.cycle(cycle):
        size = len(template(len(templates) + 1)) + 1
        if count + size > target_lines and templates:
            break
        templates.append(template)
        count += size
    rng.shuffle(templates)
    body = [(template, k) for k, template in enumerate(templates, 1)]
    k = len(body) + 1
    for template in extras:
        body.insert(rng.randrange(len(body) + 1), (template, k))
        k += 1
    return assemble(path, name, body, damaged=t_broken in extras)


def assemble(path: str, name: str, body, damaged: bool = False) -> Source:
    lines = header(name)
    head = len(lines)
    for template, k in body:
        lines.append(BLANK)
        lines.extend(template(k))
    lines.append(code(f"}} // end {name}"))
    return Source(path, lines, head, list(body), damaged)


# -------------------------------------------------------------- file oracle

def file_record(src: Source) -> dict:
    code_loc = sum(1 for line in src.lines if line.kind == "code")
    emits = sum(1 for line in src.lines if line.emit)
    findings = []
    for no, line in enumerate(src.lines, 1):
        for check_id, replacement in line.finds:
            findings.append([src.path, no, check_id, replacement])
    if code_loc and Fraction(emits, code_loc) > OVERUSE_THRESHOLD:
        findings.append([src.path, 1, OVERUSE, None])
    return {
        "path": src.path,
        "codeLoc": code_loc,
        "emitCount": emits,
        "method": "regex" if src.damaged else "ast",
        "findings": sorted(findings, key=_finding_key),
    }


def _finding_key(f):
    return (f[0], f[1], f[2], f[3] or "")


# ------------------------------------------------------------ revision edits

def arg_tokens(args: str) -> list[str]:
    return _WORD_RE.findall(args)


def changed_tokens(category: str, before: str | None,
                   after: str | None) -> list[str]:
    """Argument words a change removes then adds, as a multiset difference
    in source order; none for moves and replacements."""
    if category in ("Move", "Replacement"):
        return []
    if category == "Addition":
        return arg_tokens(after)
    if category == "Deletion":
        return arg_tokens(before)
    b, a = arg_tokens(before), arg_tokens(after)
    removed = Counter(b) - Counter(a)
    added = Counter(a) - Counter(b)
    out = []
    for tok in b:
        if removed[tok] > 0:
            removed[tok] -= 1
            out.append(tok)
    for tok in a:
        if added[tok] > 0:
            added[tok] -= 1
            out.append(tok)
    return out


@dataclass
class _Slot:
    line: Line
    origin: int | None  # 0-based line index in the before file, None if new


@dataclass
class PairPlan:
    """One before/after file pair and the edit script that produced it."""
    path: str
    before: Source | None
    after: Source | None
    slots: list = field(default_factory=list)
    changes: list = field(default_factory=list)  # (category, d_slot?, a_slot?)
    deleted: list = field(default_factory=list)  # before indices

    def record(self) -> dict:
        """Deleted and added line sets and the planted emit changes."""
        if self.before is None:
            added = list(range(len(self.after.lines)))
            return {"deleted": [], "added": added,
                    "changes": [self._change("Addition", None, i)
                                for i in added if self.after.lines[i].emit]}
        if self.after is None:
            deleted = list(range(len(self.before.lines)))
            return {"deleted": deleted, "added": [],
                    "changes": [self._change("Deletion", i, None)
                                for i in deleted if self.before.lines[i].emit]}
        pos = {id(s): i for i, s in enumerate(self.slots)}
        added = [i for i, s in enumerate(self.slots) if s.origin is None]
        changes = []
        for category, d_idx, a_slot in self.changes:
            a_idx = pos[id(a_slot)] if a_slot is not None else None
            changes.append(self._change(category, d_idx, a_idx))
        return {"deleted": sorted(self.deleted), "added": added,
                "changes": changes}

    def _change(self, category, d_idx, a_idx) -> dict:
        before = self.before.lines[d_idx].emit if d_idx is not None else None
        after = self.after.lines[a_idx].emit if a_idx is not None else None
        return {
            "path": self.path,
            "category": category,
            "before": [before[0], d_idx + 1] if before else None,
            "after": [after[0], a_idx + 1] if after else None,
            "tokens": changed_tokens(category, before and before[1],
                                     after and after[1]),
        }


class _Editor:
    """Applies a seeded edit script to one file, one function per edit."""

    def __init__(self, rng: random.Random, src: Source, tag: int):
        self.rng = rng
        self.src = src
        self.tag = tag  # unique number for the texts this revision writes
        self.plan = PairPlan(src.path, src, None,
                             [_Slot(line, i) for i, line in enumerate(src.lines)])
        counts = Counter(line.text for line in src.lines)
        self.unique = {i for i, line in enumerate(src.lines)
                       if line.kind == "code" and counts[line.text] == 1}
        self.used_fns: set[int] = set()
        self.used_names: set[str] = set()
        self.functions = self._functions()

    def _functions(self):
        """(first, last) body line indices of every function."""
        spans = []
        start = None
        for i, line in enumerate(self.src.lines):
            if i < self.src.header_len:
                continue
            if line.text.startswith("    function "):
                start = i
            elif line.text.startswith("    } // end ") and start is not None:
                spans.append((start, i))
                start = None
        return spans

    def _slot_index(self, origin: int) -> int:
        for i, s in enumerate(self.plan.slots):
            if s.origin == origin:
                return i
        raise KeyError(origin)

    def _free_emits(self):
        out = []
        for f, (a, b) in enumerate(self.functions):
            if f in self.used_fns:
                continue
            for i in range(a, b):
                em = self.src.lines[i].emit
                if em and i in self.unique and em[0] not in self.used_names:
                    out.append((f, i, em))
        return out

    def _fresh_name(self, *avoid) -> str:
        names = [n for n in EVENT_NAMES
                 if n not in self.used_names and n not in avoid
                 and n != "Ping"]
        return self.rng.choice(names)

    def emit_change(self, category: str) -> bool:
        """Plant one emit change; False when no function can take it."""
        if category == "Addition":
            return self._add_emit()
        free = self._free_emits()
        if category == "Move":
            free = [c for c in free if self._can_move(c[1])]
        if not free:
            return False
        f, i, (name, args) = self.rng.choice(free)
        self.used_fns.add(f)
        slot = self._slot_index(i)
        indent = " " * _indent(self.src.lines[i].text)
        if category == "Deletion":
            del self.plan.slots[slot]
            self.plan.deleted.append(i)
            self.plan.changes.append(("Deletion", i, None))
            self.used_names.add(name)
            return True
        if category == "Move":
            moved = self.plan.slots.pop(slot)
            new = _Slot(moved.line, None)
            self.plan.slots.insert(slot - 2, new)
            self.plan.deleted.append(i)
            self.plan.changes.append(("Move", i, new))
            self.used_names.add(name)
            return True
        new_name, new_args = name, args
        if category in ("ParameterChange", "Compound"):
            parts = args.split(", ")
            parts[-1] = f"counter + {self.tag}"
            new_args = ", ".join(parts)
        if category in ("Replacement", "Compound"):
            new_name = self._fresh_name(name)
        line = code(f"{indent}emit {new_name}({new_args});")
        new = _Slot(line, None)
        self.plan.slots[slot] = new
        self.plan.deleted.append(i)
        self.plan.changes.append((category, i, new))
        self.used_names.update({name, new_name})
        self.tag += 1
        return True

    def _can_move(self, i: int) -> bool:
        """Moving the emit up two lines crosses two unique statements of
        the same block."""
        indent = _indent(self.src.lines[i].text)
        for j in (i - 1, i - 2):
            line = self.src.lines[j]
            if j not in self.unique or line.emit or \
                    _indent(line.text) != indent or \
                    not line.text.endswith(";"):
                return False
        return True

    def _free_function(self, usable=lambda f: True):
        free = [f for f in range(len(self.functions))
                if f not in self.used_fns and usable(f)]
        if not free:
            return None
        f = self.rng.choice(free)
        self.used_fns.add(f)
        return f

    def _insert_after_header(self, f: int, line: Line) -> _Slot:
        first = self.functions[f][0]
        new = _Slot(line, None)
        self.plan.slots.insert(self._slot_index(first) + 1, new)
        return new

    def _add_emit(self) -> bool:
        f = self._free_function()
        if f is None:
            return False
        name = self._fresh_name()
        line = code(f"        emit {name}(counter, {self.tag});")
        new = self._insert_after_header(f, line)
        self.plan.changes.append(("Addition", None, new))
        self.used_names.add(name)
        self.tag += 1
        return True

    def _statements(self, f: int) -> list[int]:
        """Unique assignment lines of function f."""
        a, b = self.functions[f]
        return [i for i in range(a + 1, b) if i in self.unique
                and " = " in self.src.lines[i].text
                and self.src.lines[i].text.endswith(";")]

    def code_edit(self) -> None:
        """A non-emit edit: rewrite one unique statement, or insert a new
        one at the top of a function. The two take turns by the parity of
        the tag, so a fixed schedule makes the same kinds of edit for every
        seed (the kind decides how far emitlint's emit-only test reads)."""
        if self.tag % 2 == 0:
            f = self._free_function(self._statements)
            if f is not None:
                i = self.rng.choice(self._statements(f))
                old = self.src.lines[i]
                new = _Slot(code(old.text[:-1] + f" + {self.tag};",
                                 old.kills), None)
                self.plan.slots[self._slot_index(i)] = new
                self.plan.deleted.append(i)
                self.tag += 1
                return
        f = self._free_function()
        if f is None:
            return
        self._insert_after_header(
            f, code(f"        revision = {self.tag};", {"revision"}))
        self.tag += 1

    def finish(self) -> PairPlan:
        after = Source(self.src.path, [s.line for s in self.plan.slots],
                       self.src.header_len, self.src.body, self.src.damaged)
        self.plan.after = after
        _check_unique_edits(self.plan)
        return self.plan


def _indent(text: str) -> int:
    return len(text) - len(text.lstrip())


def _check_unique_edits(plan: PairPlan) -> None:
    """The planted script is the minimal diff only if no edited line can be
    matched on the other side."""
    before_texts = Counter(line.text for line in plan.before.lines)
    after_texts = Counter(s.line.text for s in plan.slots)
    moved = {plan.before.lines[d].text for cat, d, _ in plan.changes
             if cat == "Move"}
    for d in plan.deleted:
        text = plan.before.lines[d].text
        if text in moved:
            if before_texts[text] != 1 or after_texts[text] != 1:
                raise AssertionError(f"moved line not unique: {text!r}")
        elif text in after_texts:
            raise AssertionError(f"deleted line survives: {text!r}")
    for s in plan.slots:
        if s.origin is None and s.line.text not in moved and \
                s.line.text in before_texts:
            raise AssertionError(f"added line already present: {s.line.text!r}")


def rewrite_pair(src: Source, k_offset: int) -> PairPlan:
    """Regenerate every function of src with new numbers: each emit keeps
    its event and line but changes its arguments."""
    name = src.lines[4].text[len("contract "):-2]
    body = [(t, k + k_offset) for t, k in src.body]
    after = assemble(src.path, name, body)
    plan = PairPlan(src.path, src, after)
    tail = len(src.lines) - 1
    plan.deleted = [i for i in range(src.header_len, tail)
                    if src.lines[i].kind != "blank"]
    plan.slots = ([_Slot(line, i) for i, line in
                   enumerate(after.lines[:after.header_len])]
                  + [_Slot(line, None) for line in
                     after.lines[after.header_len:-1]]
                  + [_Slot(after.lines[-1], tail)])
    before_code = {line.text for line in src.lines[src.header_len:tail]
                   if line.kind == "code"}
    after_code = {line.text for line in after.lines[after.header_len:-1]
                  if line.kind == "code"}
    if before_code & after_code:
        raise AssertionError("rewrite shares code lines with its original")
    for i in range(src.header_len, tail):
        if src.lines[i].emit:
            # Same template sequence: the counterpart sits on the same line.
            plan.changes.append(("ParameterChange", i, plan.slots[i]))
    return plan


# ------------------------------------------------------------ revision oracle

def revision_record(rev_id: str, plans: list[PairPlan]) -> dict:
    churned_loc = total_loc = churned_emits = total_emits = 0
    changed_lines = []  # (Line) on both sides of every pair
    changes = []
    for plan in plans:
        rec = plan.record()
        before = plan.before.lines if plan.before else []
        after = plan.after.lines if plan.after else []
        gone = [before[i] for i in rec["deleted"]]
        new = [after[i] for i in rec["added"]]
        changed_lines += gone + new
        churned_loc += sum(1 for ln in gone + new if ln.kind == "code")
        churned_emits += sum(1 for ln in gone + new if ln.emit)
        primary = after if plan.after is not None else before
        total_loc += sum(1 for ln in primary if ln.kind == "code")
        total_emits += sum(1 for ln in primary if ln.emit)
        changes += rec["changes"]
    emit_only = all(ln.emit or ln.kind != "code" for ln in changed_lines)
    killed = set()
    for ln in changed_lines:
        if not ln.emit:
            killed |= ln.kills
    for ch in changes:
        if emit_only:
            ch["independence"] = "AbsoluteIndependent"
        elif any(tok in killed for tok in ch["tokens"]):
            ch["independence"] = "Dependent"
        else:
            ch["independence"] = "HeuristicIndependent"
    return {
        "id": rev_id,
        "churn": [churned_loc, total_loc, churned_emits, total_emits],
        "changes": changes,
    }


# ----------------------------------------------------------------- workloads

@dataclass
class Corpus:
    """Generated inputs of one workload, and what the oracle expects."""
    files: list[Source]
    revisions: list  # [(rev_id, [PairPlan])]
    oracle: dict

    def write(self, root: Path) -> tuple[Path, Path]:
        """Write the lint tree and the revision manifest under root."""
        tree = root / "tree"
        for src in self.files:
            _write(tree / src.path, src.text)
        hist = root / "history"
        manifest = {"revisions": []}
        for rev_id, plans in self.revisions:
            pairs = []
            for plan in plans:
                entry = {"path": plan.path}
                name = Path(plan.path).name
                for side, src in (("before", plan.before),
                                  ("after", plan.after)):
                    if src is not None:
                        rel = f"{rev_id}/{side}/{name}"
                        _write(hist / rel, src.text)
                        entry[f"{side}File"] = rel
                pairs.append(entry)
            manifest["revisions"].append({"id": rev_id, "pairs": pairs})
        _write(hist / "manifest.json", json.dumps(manifest, indent=2) + "\n")
        return tree, hist / "manifest.json"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _oracle(files: list[Source], revisions) -> dict:
    return {
        "files": sorted((file_record(s) for s in files),
                        key=lambda r: r["path"]),
        "revisions": [revision_record(rev_id, plans)
                      for rev_id, plans in revisions],
    }


def _name(rng: random.Random, i: int) -> str:
    return f"{rng.choice(_WORDS)}Vault{i}"


def _sizes(count: int, low: int, high: int) -> list[int]:
    """Fixed file sizes from low to high, skewed towards low, so the total
    does not depend on the seed."""
    return [low + round((high - low) * (i / (count - 1)) ** 2)
            for i in range(count)]


def _base_files(rng: random.Random, sizes, extras, cycles) -> list[Source]:
    """One file per size, in size order; extras and cycles are keyed by size
    rank, so each kind of file has the same size for every seed. The seed
    decides which path each file gets."""
    slots = list(range(len(sizes)))
    rng.shuffle(slots)
    return [contract_source(rng, f"contracts/Vault{slot:02d}.sol",
                            _name(rng, slot), size,
                            cycles.get(rank, DENSE_CYCLE),
                            extras.get(rank, ()))
            for rank, (slot, size) in enumerate(zip(slots, sizes))]


# (emit change categories, code edits) for one in-place file pair.
_PAIR_MIXES = (
    (("ParameterChange",), 0),
    (("Replacement", "Move"), 1),
    (("Compound", "ParameterChange"), 1),
    (("Addition", "Addition", "Move"), 0),
    (("Deletion", "Replacement"), 2),
    (("ParameterChange", "Move", "Deletion"), 1),
)


def _history(rng: random.Random, files: list[Source], schedule,
             new_file_lines: int) -> list:
    """Sequential revisions over files: each schedule entry is the list of
    pair mixes for one revision, or ["add"] / ["delete"] for a revision that
    adds a small file or deletes the oldest added one."""
    state = {src.path: src for src in files}
    turns = itertools.cycle([src.path for src in files])
    revisions = []
    tag = 100
    added = 0
    for r, entry in enumerate(schedule):
        rev_id = f"r{r:02d}"
        plans = []
        mixes = list(entry)
        whole = [m for m in mixes if isinstance(m, str)]
        mixes = [m for m in mixes if not isinstance(m, str)]
        # Added files are too small to take every kind of edit. The files
        # take turns in size order, so the sizes each revision touches do
        # not depend on the seed.
        paths = [next(turns) for _ in mixes]
        for path, (cats, edits) in zip(paths, mixes):
            ed = _Editor(rng, state[path], tag)
            for cat in cats:
                # Earlier revisions can leave no emit that takes the planned
                # kind of change; a parameter change fits almost anywhere.
                if not ed.emit_change(cat):
                    ed.emit_change("ParameterChange")
            for _ in range(edits):
                ed.code_edit()
            tag = ed.tag
            plan = ed.finish()
            state[path] = plan.after
            plans.append(plan)
        for kind in whole:
            if kind == "add":
                path = f"contracts/Added{added:02d}.sol"
                src = contract_source(rng, path, _name(rng, 90 + added),
                                      new_file_lines, DENSE_CYCLE)
                added += 1
                state[path] = src
                plans.append(PairPlan(path, None, src))
            else:
                path = min(p for p in state if "/Added" in p)
                plans.append(PairPlan(path, state.pop(path), None))
        revisions.append((rev_id, plans))
    return revisions


def _history_schedule(revisions: int) -> list:
    """Pair mixes per revision: 1-3 in-place pairs, with one small file added
    at 15 % and 55 % of the history and deleted again at 40 % and 85 %."""
    pairs_per_rev = ([1, 1, 2, 1, 1, 1, 1, 3, 1, 1] * 3)[:revisions]
    whole = dict(zip((round(revisions * f) for f in (0.15, 0.4, 0.55, 0.85)),
                     ("add", "delete", "add", "delete")))
    # Every seed plants the same mix of changes, so the work per run does
    # not depend on the seed; the seed picks files, functions and names.
    mixes = iter(_PAIR_MIXES * 10)
    return [[whole[r]] if r in whole else [next(mixes) for _ in range(n)]
            for r, n in enumerate(pairs_per_rev)]


def project(seed: int, files: int = 16, revisions: int = 10) -> Corpus:
    """Many modest files and a history of small edits.

    Lint tree: 16 contracts of 150-600 lines (about 4.8k lines), every third
    one by size sparse in emits, one with syntax damage and one with inline
    assembly. Manifest: 10 revisions of small edits to the six smallest
    files, with small files added and deleted along the way.
    """
    rng = random.Random(seed)
    edited = 6
    # By size rank: the history edits the smallest files; the damaged and
    # the assembly file are the next sizes up and stay as generated.
    extras = {edited + 1: (t_broken,), edited + 3: (t_sweep,)}
    cycles = {i: SPARSE_CYCLE for i in range(files) if i % 3 == 2}
    base = _base_files(rng, _sizes(files, 150, 600), extras, cycles)
    return _build(base, _history(rng, base[:edited],
                                 _history_schedule(revisions), 60))


def monolith(seed: int, lines: int = 3300,
             rewrite_lines: int = 130) -> Corpus:
    """One large file, and revisions that rewrite whole files.

    Lint tree: one contract of about 3,300 lines with hundreds of functions
    and scopes, plus two contracts of about 130 lines. Manifest: two
    revisions, each rewriting one of the small contracts almost entirely.
    """
    rng = random.Random(seed)
    base = [contract_source(rng, "contracts/Monolith.sol", _name(rng, 0),
                            lines, DENSE_CYCLE)]
    base += [contract_source(rng, f"contracts/Rewrite{i}.sol",
                             _name(rng, i + 1), rewrite_lines, REWRITE_CYCLE)
             for i in range(2)]
    revisions = [(f"r{r:02d}", [rewrite_pair(src, 1000 * (r + 1))])
                 for r, src in enumerate(base[1:])]
    return _build(base, revisions)


def _build(files: list[Source], revisions) -> Corpus:
    return Corpus(files, revisions, _oracle(files, revisions))


WORKLOADS = {
    "project": project,
    "monolith": monolith,
}
