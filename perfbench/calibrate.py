"""Host-speed calibration: a fixed pure-Python kernel timed between commands.

On a shared machine the speed of the CPU drifts, by up to 2x over minutes,
which moves every wall time alike. The kernel below does the kind of work
emitlint does (regex tokenising, small objects, dicts, a brace stack and line
scans) on a fixed text that no seed changes, and it shares no code with
emitlint. Timing it between commands gives the host's speed at that moment;
a command's time divided by the kernel's time around it, times REFERENCE_S,
is the command's time on a host where the kernel takes REFERENCE_S. A change
to emitlint moves the command and not the kernel, so it moves the ratio in
full.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time

import corpus

# The median time of ROUNDS kernel runs on the machine the benchmark was
# tuned on (2 shared vCPUs, Python 3.11): it only scales the reported values.
REFERENCE_S = 0.005
ROUNDS = 5
TIMINGS = 5
# Kernel measurements on each side of a call that set its host speed.
WINDOW = 3

_TOKEN_RE = re.compile(r"//[^\n]*|[A-Za-z_]\w*|\d+|\S")
_TEXT = corpus.contract_source(random.Random(0), "Calibration.sol",
                               "CalibrationVault", 260,
                               corpus.DENSE_CYCLE).text


def kernel() -> int:
    counts: dict = {}
    tokens = []
    for m in _TOKEN_RE.finditer(_TEXT):
        text = m.group()
        counts[text] = counts.get(text, 0) + 1
        tokens.append((text, m.start(), m.end()))
    stack: list = [[]]
    for text, start, _ in tokens:
        if text == "{":
            stack.append([])
        elif text == "}" and len(stack) > 1:
            block = stack.pop()
            stack[-1].append((start, len(block)))
        else:
            stack[-1].append(text)
    code = sum(1 for line in _TEXT.splitlines()
               if line.strip() and not line.strip().startswith("//"))
    return len(tokens) + len(counts) + len(stack[0]) + code


def measure() -> float:
    """Seconds ROUNDS runs of the kernel take now: the median of TIMINGS
    timings, with the garbage collector off, so that neither a short stall
    of the host nor a collection of the caller's objects counts."""
    times = []
    gc.disable()
    try:
        for _ in range(TIMINGS):
            start = time.perf_counter()
            for _ in range(ROUNDS):
                kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def scaled(walls: list[float], kernels: list[float]) -> list[float]:
    """walls[i] on a host where the kernel takes REFERENCE_S, where
    kernels[i] and kernels[i + 1] were measured right before and right after
    walls[i]. The host's speed for a call is the median of the kernel times
    within three gaps of it: short stalls drop out, drift over seconds is
    followed."""
    out = []
    for i, wall in enumerate(walls):
        near = kernels[max(0, i - WINDOW + 1):i + WINDOW + 1]
        out.append(wall * REFERENCE_S / statistics.median(near))
    return out
