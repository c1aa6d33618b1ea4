"""Pass 1 — layering DAG.

Derives the module-level include graph of src/ (an edge A -> B for every
`#include "B/..."` in a file of src/A) and enforces the allowed-edge DAG
below: util at the bottom, serve at the top, no upward or cyclic
includes. The measured graph (with per-edge include counts) and its DOT
rendering go into the run report, so DESIGN.md's picture can never
drift from the code.
"""

from __future__ import annotations

import re

from analyzelib.source import Context, PassResult, Violation

PASS_NAME = "layering"

# module -> modules it may include. Must itself be a DAG (checked).
ALLOWED: dict[str, list[str]] = {
    "util": [],
    "obs": ["util"],
    "metrics": ["util", "obs"],
    "graph": ["util", "obs"],
    "spam": ["util", "obs", "graph"],
    "analysis": ["util"],
    "rank": ["util", "obs", "graph"],
    "core": ["util", "obs", "graph", "rank"],
    "stream": ["util", "graph", "rank", "core"],
    "serve": ["util", "obs", "graph", "core", "stream"],
}

RE_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def toposort(allowed: dict[str, list[str]]) -> list[str] | None:
    """Kahn's algorithm over the allowed spec; None on a cycle."""
    deps = {m: set(d) for m, d in allowed.items()}
    order: list[str] = []
    while deps:
        ready = sorted(m for m, d in deps.items() if not d)
        if not ready:
            return None
        for m in ready:
            order.append(m)
            del deps[m]
        for d in deps.values():
            d.difference_update(ready)
    return order


def to_dot(edges: dict[tuple[str, str], int], order: list[str]) -> str:
    lines = ["digraph srsr_layering {", "  rankdir=BT;",
             "  node [shape=box, fontname=\"monospace\"];"]
    for mod in order:
        lines.append(f"  {mod};")
    for (src, dst), count in sorted(edges.items()):
        lines.append(f"  {src} -> {dst} [label=\"{count}\"];")
    lines.append("}")
    return "\n".join(lines)


def run(ctx: Context) -> PassResult:
    violations = ctx.waiver_violations(PASS_NAME)
    edges: dict[tuple[str, str], int] = {}
    files_per_module: dict[str, int] = {}

    order = toposort(ALLOWED)
    if order is None:
        violations.append(Violation(
            "tools/analyze/analyzelib/layering.py", 1, PASS_NAME,
            "ALLOWED spec is cyclic — the layering contract itself must "
            "be a DAG"))
        return PassResult(PASS_NAME, violations)

    checked = 0
    for sf in ctx.sources():
        if not sf.module:
            continue
        checked += 1
        files_per_module[sf.module] = files_per_module.get(sf.module, 0) + 1
        if sf.module not in ALLOWED:
            violations.append(Violation(
                sf.rel, 1, PASS_NAME,
                f"module `{sf.module}` is not in the layering spec — add "
                "it to ALLOWED in analyzelib/layering.py (and DESIGN.md "
                "§14) before growing a new top-level src/ directory"))
            continue
        # Raw lines, not scrubbed: scrub() blanks string literals, and
        # the include path IS a string literal.
        for lineno, line in enumerate(sf.raw_lines, start=1):
            m = RE_INCLUDE.match(line)
            if not m:
                continue
            target = m.group(1).split("/")[0]
            if target not in ALLOWED:
                continue  # non-module include ("foo.hpp" local, etc.)
            if target == sf.module:
                continue
            edges[(sf.module, target)] = edges.get((sf.module, target), 0) + 1
            if target not in ALLOWED[sf.module] and \
                    not sf.waived(lineno, PASS_NAME):
                violations.append(Violation(
                    sf.rel, lineno, PASS_NAME,
                    f"include crosses the layering DAG upward: {sf.module} "
                    f"-> {target} is not an allowed edge (allowed from "
                    f"{sf.module}: {', '.join(ALLOWED[sf.module]) or 'none'})"))

    summary = {
        "modules": [
            {"name": m, "files": files_per_module.get(m, 0),
             "allowed_deps": ALLOWED[m]}
            for m in order
        ],
        "edges": [
            {"from": a, "to": b, "includes": n}
            for (a, b), n in sorted(edges.items())
        ],
        "topological_order": order,
        "dot": to_dot(edges, order),
    }
    return PassResult(PASS_NAME, violations, summary, checked)
