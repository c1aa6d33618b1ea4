"""Pass 4 — hot-loop allocation audit.

The solver kernels live inside `// srsr:hot <label>` ...
`// srsr:endhot` fences. Inside a fence, anything that can touch the
allocator is flagged: `new`, owning-container construction,
growth-capable `push_back`/`emplace_back`/`insert`/`resize`/`reserve`,
`make_unique`/`make_shared`, and std::string temporaries. The fenced
kernels are the per-iteration pull/push loops — the layers whose
zero-steady-state-allocation property the micro_kernels bench
measures; this pass keeps the property true between bench runs.

Fences must be properly closed and may not nest. The pass fails if the
tree contains no fences at all — that means someone deleted the
annotations rather than the property.
"""

from __future__ import annotations

import re

from analyzelib.source import Context, PassResult, Violation

PASS_NAME = "hotloop"

RE_HOT = re.compile(r"srsr:hot\b\s*([\w.-]*)")
RE_ENDHOT = re.compile(r"srsr:endhot\b")

RULES = [
    ("new", re.compile(r"(?<![\w:])new\b(?!\s*\()"),
     "raw `new` in a hot region"),
    ("container-ctor", re.compile(
        r"\bstd::(?:vector|deque|string|map|set|unordered_\w+|list)\s*<"
        r"[^;]*>\s+\w+\s*[({;]|\bstd::string\s+\w+"),
     "owning container constructed in a hot region — hoist the buffer "
     "out of the loop"),
    ("growth", re.compile(
        r"\.(?:push_back|emplace_back|insert|emplace|resize|reserve|"
        r"assign|append)\s*\("),
     "growth-capable container operation in a hot region"),
    ("make-owned", re.compile(r"\bmake_(?:unique|shared)\s*\("),
     "heap allocation via make_unique/make_shared in a hot region"),
]


def run(ctx: Context) -> PassResult:
    violations = ctx.waiver_violations(PASS_NAME)
    regions: list[dict] = []
    checked = 0

    for sf in ctx.sources():
        checked += 1
        open_line = 0
        label = ""
        flagged = 0
        for lineno in range(1, len(sf.lines) + 1):
            comment = sf.comments.get(lineno, "")
            if RE_ENDHOT.search(comment):
                if not open_line:
                    violations.append(Violation(
                        sf.rel, lineno, PASS_NAME,
                        "srsr:endhot without a matching srsr:hot"))
                else:
                    regions.append({
                        "file": sf.rel, "label": label,
                        "lines": [open_line, lineno],
                        "findings": flagged,
                    })
                    open_line = 0
                continue
            m_open = RE_HOT.search(comment)
            if m_open:
                if open_line:
                    violations.append(Violation(
                        sf.rel, lineno, PASS_NAME,
                        f"nested srsr:hot (previous fence opened at line "
                        f"{open_line} is still open)"))
                open_line = lineno
                label = m_open.group(1) or f"{sf.rel}:{lineno}"
                flagged = 0
                continue
            if not open_line:
                continue
            line = sf.lines[lineno - 1]
            if sf.waived(lineno, PASS_NAME):
                continue
            for rule, rx, msg in RULES:
                if rx.search(line):
                    flagged += 1
                    violations.append(Violation(
                        sf.rel, lineno, PASS_NAME,
                        f"{msg} (hot region `{label}`)"))
        if open_line:
            violations.append(Violation(
                sf.rel, open_line, PASS_NAME,
                "srsr:hot fence never closed (missing srsr:endhot)"))

    if not regions and not violations:
        violations.append(Violation(
            "src", 1, PASS_NAME,
            "no srsr:hot regions found anywhere in src/ — the solver "
            "kernels must stay fenced (see DESIGN.md §14)"))

    summary = {
        "regions": regions,
        "region_count": len(regions),
    }
    return PassResult(PASS_NAME, violations, summary, checked)
