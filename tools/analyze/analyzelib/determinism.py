"""Pass 3 — determinism taint.

The sigma the serve layer publishes must be bit-reproducible: the
reproduced fig2–fig4 profit curves, the snapshot-vs-model.rank()
parity tests, and the warm-start coalescing tests all compare exact
floating-point sequences. This pass walks the lexical call graph from
the sigma-publishing entry points (`rank`, every `RecomputePipeline`
method) and rejects, anywhere on the tainted path:

  * iteration over unordered containers (order is hash-seed dependent);
  * `std::reduce` / `std::transform_reduce` (unspecified operand order);
  * wall-clock or RNG reads (`::now()`, `time(nullptr)`, `rand`,
    `random_device`, `mt19937` construction);
  * any parallel reduction other than `parallel_sum_deterministic`
    (OpenMP's `reduction(+)` combine order depends on the thread
    count).

The walk is lexical (callee matched by name, no overload resolution) —
deliberately conservative. Functions defined under src/obs/ and in
util/timer.hpp / util/log.* are not descended into: observability is
metadata, not sigma, and banning clocks there would just force a
hundred waivers. A time/RNG read in solver code proper still needs a
reviewed `// srsr-analyze: allow(determinism): <why>` waiver.
"""

from __future__ import annotations

import re

from analyzelib.source import Context, FuncDef, PassResult, Violation

PASS_NAME = "determinism"

ENTRY_SIMPLE = {"rank"}
ENTRY_QUAL_PREFIX = ("RecomputePipeline::", "IncrementalRanker::")

# Modules / files whose function bodies are metadata-only: taint does
# not propagate into them and their bodies are not scanned.
SKIP_FILE = re.compile(
    r"^src/(obs/|util/timer\.hpp$|util/log\.)")

BANNED = [
    ("std-reduce", re.compile(r"std::(?:transform_)?reduce\s*\("),
     "std::reduce / std::transform_reduce has unspecified operand order"),
    ("time", re.compile(r"::now\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "wall-clock read on the sigma path"),
    ("rng", re.compile(r"\b(?:s?rand)\s*\(|random_device|mt19937"),
     "RNG on the sigma path — sigma must be a pure function of the "
     "graph and the kappa plan"),
    ("parallel-sum", re.compile(r"\bparallel_sum\s*\("),
     "thread-count-dependent reduction — use parallel_sum_deterministic "
     "on the sigma path"),
]

RE_RANGE_FOR = re.compile(
    r"for\s*\(\s*[^;:()]*?:\s*([A-Za-z_][\w.>-]*(?:\(\))?)\s*\)")


def _unordered_names(sf) -> set[str]:
    """Identifiers declared with an unordered container type anywhere in
    this file or its header/impl sibling."""
    names: set[str] = set()
    texts = [sf.scrubbed]
    sibling = (sf.path[:-4] + ".hpp") if sf.path.endswith(".cpp") else \
              (sf.path[:-4] + ".cpp")
    try:
        with open(sibling, encoding="utf-8") as f:
            from analyzelib.source import scrub
            texts.append(scrub(f.read())[0])
    except OSError:
        pass
    for text in texts:
        for m in re.finditer(
                r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
                r"[&*]?\s*([A-Za-z_]\w*)\s*[;,={(]", text):
            names.add(m.group(1))
    return names


def build_index(ctx: Context):
    """name -> [(SourceFile, FuncDef)] over all src/ functions."""
    index: dict[str, list] = {}
    for sf in ctx.sources():
        for fn in sf.functions():
            index.setdefault(fn.simple, []).append((sf, fn))
    return index


def taint_closure(ctx: Context, index) -> dict[str, list[tuple]]:
    """BFS from the entry points. Returns simple-name -> [(sf, fn)] of
    tainted definitions, with the call path recorded on each fn via a
    side table (returned separately as .path attribute emulation)."""
    tainted: dict[str, list[tuple]] = {}
    paths: dict[tuple[str, int], str] = {}
    work: list[tuple[str, str]] = []

    for name, defs in index.items():
        for sf, fn in defs:
            is_entry = fn.simple in ENTRY_SIMPLE or any(
                fn.qual.startswith(p) for p in ENTRY_QUAL_PREFIX)
            if is_entry and not SKIP_FILE.match(sf.rel):
                key = (sf.rel, fn.line)
                if key not in paths:
                    paths[key] = fn.qual
                    tainted.setdefault(name, []).append((sf, fn))
                    work.append((name, fn.qual))

    seen_names = set(tainted)
    queue = [(sf, fn, paths[(sf.rel, fn.line)])
             for defs in tainted.values() for sf, fn in defs]
    while queue:
        sf, fn, path = queue.pop()
        for callee in sorted(fn.calls()):
            if callee in seen_names or callee not in index:
                continue
            seen_names.add(callee)
            for csf, cfn in index[callee]:
                if SKIP_FILE.match(csf.rel):
                    continue
                key = (csf.rel, cfn.line)
                paths[key] = f"{path} -> {cfn.qual}"
                tainted.setdefault(callee, []).append((csf, cfn))
                queue.append((csf, cfn, paths[key]))
    return tainted, paths


def run(ctx: Context) -> PassResult:
    violations = ctx.waiver_violations(PASS_NAME)
    index = build_index(ctx)
    tainted, paths = taint_closure(ctx, index)

    n_funcs = 0
    for name, defs in sorted(tainted.items()):
        for sf, fn in defs:
            n_funcs += 1
            path = paths[(sf.rel, fn.line)]
            body_lines = fn.body.split("\n")
            unordered = None  # lazy
            for off, line in enumerate(body_lines):
                lineno = fn.body_line + off
                waived = sf.waived(lineno, PASS_NAME)
                for rule, rx, msg in BANNED:
                    if rx.search(line) and not waived:
                        violations.append(Violation(
                            sf.rel, lineno, PASS_NAME,
                            f"{msg} (tainted via {path})"))
                m = RE_RANGE_FOR.search(line)
                if m and not waived:
                    base = re.split(r"[.>-]+", m.group(1))[-1] or m.group(1)
                    base = base.replace("()", "")
                    if unordered is None:
                        unordered = _unordered_names(sf)
                    if base in unordered:
                        violations.append(Violation(
                            sf.rel, lineno, PASS_NAME,
                            f"iteration over unordered container `{base}` "
                            f"on the sigma path — order is hash-seed "
                            f"dependent (tainted via {path})"))

    summary = {
        "entry_points": sorted(ENTRY_SIMPLE) + [p + "*" for p in
                                                ENTRY_QUAL_PREFIX],
        "tainted_functions": n_funcs,
    }
    return PassResult(PASS_NAME, violations, summary, n_funcs)
