"""Pass 5 — contract coverage.

Scores every public API function declared in the core/rank/graph/serve
headers for contract presence: the function (its inline body, or its
definition in the module's .cpp files) must touch the contract layer —
SRSR_CHECK / SRSR_DCHECK / SRSR_DEBUG_VALIDATE / a validate_* helper.
Scored functions are those that can be handed bad input: public, at
least one parameter, not operators or destructors.

The per-module coverage table is written into the run report, and the
pass fails when any module's coverage regresses below the checked-in
baseline (tools/analyze/baseline.json). Reviewed exceptions carry
`// srsr-analyze: allow(contract): <why>` on the declaration and leave
the denominator. Raising coverage? Re-run with --write-baseline and
commit the new floor — the baseline is a ratchet, not a snapshot.
"""

from __future__ import annotations

import json
import os
import re

from analyzelib.source import Context, PassResult, Violation, extract_functions

PASS_NAME = "contracts"

MODULES = ("core", "rank", "graph", "serve")

RE_CONTRACT = re.compile(
    r"\bSRSR_CHECK\b|\bSRSR_DCHECK\b|\bSRSR_DEBUG_VALIDATE\b|\bvalidate_\w+\s*\(")

# Declaration: identifier + param list ending in `;` (no body) at class
# or namespace scope, extracted from scrubbed header text. A call
# statement inside an inline body has the same shape; matches that fall
# inside a body SourceFile.functions() extracted are skipped.
RE_DECL = re.compile(
    r"\b([A-Za-z_]\w*)\s*\(([^;{}()]*(?:\([^()]*\)[^;{}()]*)*)\)"
    r"\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?(?:->\s*[\w:<>&*\s]+)?\s*;")

EXEMPT_NAMES = frozenset({
    "operator", "begin", "end", "cbegin", "cend", "size", "empty",
})


def _public_lines(lines: list[str]) -> set[int]:
    """1-based line numbers that declare public API: namespace scope
    plus `public:` sections of classes/structs. Line-based heuristic —
    assumes the project style of one `class X {` opener per line."""
    public: set[int] = set()
    depth = 0
    # stack of [entry_depth, current_access] for each open class/struct
    type_stack: list[list] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        m = re.match(r"(?:template\s*<[^>]*>\s*)?(class|struct)\s+\w+",
                     stripped)
        opens_type = bool(m) and "{" in line and \
            ";" not in line.split("{", 1)[0]
        if re.match(r"public\s*:", stripped) and type_stack:
            type_stack[-1][1] = "public"
        elif re.match(r"(private|protected)\s*:", stripped) and type_stack:
            type_stack[-1][1] = "private"
        if all(t[1] == "public" for t in type_stack):
            public.add(lineno)
        depth += line.count("{") - line.count("}")
        if opens_type:
            access = "public" if m.group(1) == "struct" else "private"
            type_stack.append([depth, access])
        while type_stack and depth < type_stack[-1][0]:
            type_stack.pop()
    return public


def _has_params(paramtext: str) -> bool:
    p = paramtext.strip()
    return p not in ("", "void")


def collect_module(ctx: Context, module: str):
    """Returns (scored, checked, suppressed, unchecked_list)."""
    repo_src = os.path.join(ctx.repo, "src", module)
    headers = [p for p in ctx.src_files()
               if p.startswith(repo_src + os.sep) and p.endswith(".hpp")]
    impls = [p for p in ctx.src_files()
             if p.startswith(repo_src + os.sep) and p.endswith(".cpp")]

    # Function definitions across the module (headers for inline,
    # .cpps for out-of-line), simple name -> bodies.
    bodies: dict[str, list[str]] = {}
    for path in headers + impls:
        sf = ctx.file(path)
        for fn in sf.functions():
            bodies.setdefault(fn.simple, []).append(fn.body)

    scored = 0
    checked = 0
    suppressed = 0
    unchecked: list[str] = []

    for path in headers:
        sf = ctx.file(path)
        visible = _public_lines(sf.lines)
        body_spans = [fn.body_span for fn in sf.functions()]
        seen_in_file: set[str] = set()
        for m in RE_DECL.finditer(sf.scrubbed):
            lineno = sf.scrubbed.count("\n", 0, m.start(1)) + 1
            name = m.group(1)
            if lineno not in visible or name in seen_in_file:
                continue
            if any(lo < m.start(1) < hi for lo, hi in body_spans):
                continue
            if name in EXEMPT_NAMES or name.startswith("operator") or \
                    name.startswith("~") or name in ("if", "while", "for",
                                                     "switch", "return"):
                continue
            if not _has_params(m.group(2)):
                continue
            if re.search(r"=\s*(?:delete|default)", m.group(0)):
                continue
            seen_in_file.add(name)
            if sf.waived(lineno, "contract") or sf.waived(lineno, PASS_NAME):
                suppressed += 1
                continue
            scored += 1
            fn_bodies = bodies.get(name, [])
            if any(RE_CONTRACT.search(b) for b in fn_bodies):
                checked += 1
            else:
                unchecked.append(f"{sf.rel}:{lineno}: {name}")
    return scored, checked, suppressed, unchecked


def run(ctx: Context, baseline_path: str | None = None,
        write_baseline: bool = False) -> PassResult:
    violations = ctx.waiver_violations(PASS_NAME)
    baseline_path = baseline_path or os.path.join(
        ctx.repo, "tools", "analyze", "baseline.json")

    table = {}
    for module in MODULES:
        scored, checked, suppressed, unchecked = collect_module(ctx, module)
        coverage = (checked / scored) if scored else 1.0
        table[module] = {
            "scored": scored,
            "checked": checked,
            "suppressed": suppressed,
            "coverage": round(coverage, 4),
            "unchecked": unchecked,
        }

    baseline = None
    try:
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError):
        pass

    if write_baseline:
        payload = {
            "comment": "Per-module contract-coverage floor. Regenerate "
                       "with srsr_analyze.py --pass contracts "
                       "--write-baseline after raising coverage; never "
                       "lower a floor by hand without a review.",
            "modules": {m: {"coverage": table[m]["coverage"],
                            "scored": table[m]["scored"]}
                        for m in MODULES},
        }
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        baseline = payload

    if baseline is None:
        violations.append(Violation(
            "tools/analyze/baseline.json", 1, PASS_NAME,
            "missing contract-coverage baseline — run srsr_analyze.py "
            "--pass contracts --write-baseline and commit the result"))
    else:
        floors = baseline.get("modules", {})
        for module in MODULES:
            if module not in floors:
                # A module with nothing to score (e.g. a fixture tree)
                # needs no floor; real modules always have scored APIs.
                if table[module]["scored"] == 0:
                    continue
                violations.append(Violation(
                    "tools/analyze/baseline.json", 1, PASS_NAME,
                    f"module `{module}` has no baseline floor — "
                    "regenerate the baseline"))
                continue
            floor = float(floors[module].get("coverage", 0.0))
            got = table[module]["coverage"]
            if got + 1e-9 < floor:
                sample = "; ".join(table[module]["unchecked"][:5])
                violations.append(Violation(
                    f"src/{module}", 1, PASS_NAME,
                    f"contract coverage regressed: {got:.1%} < baseline "
                    f"{floor:.1%} ({table[module]['checked']}/"
                    f"{table[module]['scored']} checked). First unchecked: "
                    f"{sample}"))

    summary = {"modules": table,
               "baseline": baseline.get("modules") if baseline else None}
    return PassResult(PASS_NAME, violations, summary,
                      checked_files=len(MODULES))
