"""Pass 2 — atomics discipline.

Every atomic operation in src/ must say what it means:

  * no defaulted (seq_cst) `load/store/exchange/fetch_*` or
    compare-exchange — everything in this codebase is either
    deliberately relaxed (statistics counters) or a named
    acquire/release publication edge; an implicit seq_cst is almost
    always an unexamined one;
  * every acquire/release/acq_rel (and explicit seq_cst) site carries a
    `// pairs-with: <tag>` annotation naming its synchronization
    counterpart, and the tags must resolve: each tag needs at least one
    release-side and one acquire-side site, otherwise the "pair" is a
    one-sided fiction (a publish nobody acquires, or vice versa).

The pairing check is what caught-by-construction looks like for the
RCU publication edges the serve layer leans on (SnapshotStore head,
span-ring cursors): moving one side
without the other now fails the build instead of becoming a silent
memory-model bug.
"""

from __future__ import annotations

import re

from analyzelib.source import Context, PassResult, Violation

PASS_NAME = "atomics"

# Member ops on std::atomic<T> plus the shared_ptr atomic free functions.
RE_ATOMIC_OP = re.compile(
    r"(?:\.|->)(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(|"
    r"\b(?:std::)?(atomic_load_explicit|atomic_store_explicit|"
    r"atomic_exchange_explicit|atomic_compare_exchange_weak_explicit|"
    r"atomic_compare_exchange_strong_explicit|"
    r"atomic_load|atomic_store|atomic_exchange|"
    r"atomic_compare_exchange_weak|atomic_compare_exchange_strong)\s*\(")

RE_ORDER = re.compile(r"memory_order_(relaxed|consume|acquire|release|"
                      r"acq_rel|seq_cst)")
RE_PAIRS = re.compile(r"pairs-with:\s*([a-z0-9][a-z0-9-]*)")

# Ops whose explicit order participates in publication (vs pure loads).
RELEASE_SIDE = {"release", "acq_rel", "seq_cst"}
ACQUIRE_SIDE = {"acquire", "acq_rel", "consume", "seq_cst"}



def _call_text(sf, lineno: int, col: int) -> str:
    """The balanced call starting at the `(` at (lineno, col), possibly
    spanning lines, as scrubbed text."""
    depth = 0
    out = []
    for ln in range(lineno, min(lineno + 8, len(sf.lines) + 1)):
        line = sf.lines[ln - 1]
        start = col if ln == lineno else 0
        for i in range(start, len(line)):
            c = line[i]
            out.append(c)
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
    return "".join(out)


def _annotation(sf, lineno: int) -> str | None:
    """pairs-with tag on the op's line or the two lines above it."""
    for ln in (lineno, lineno - 1, lineno - 2):
        comment = sf.comments.get(ln, "")
        m = RE_PAIRS.search(comment)
        if m:
            return m.group(1)
    return None


def run(ctx: Context) -> PassResult:
    violations = ctx.waiver_violations(PASS_NAME)
    # tag -> {"release": [(rel,line)], "acquire": [...]}
    pairs: dict[str, dict[str, list]] = {}
    sites = 0
    checked = 0

    for sf in ctx.sources():
        checked += 1
        for lineno, line in enumerate(sf.lines, start=1):
            for m in RE_ATOMIC_OP.finditer(line):
                op = m.group(1) or m.group(2)
                paren = line.index("(", m.start())
                call = _call_text(sf, lineno, paren)
                orders = RE_ORDER.findall(call)
                waived = sf.waived(lineno, PASS_NAME)
                sites += 1

                if not orders:
                    if op in ("atomic_load", "atomic_store",
                              "atomic_exchange") and "_explicit" not in op:
                        msg = (f"`{op}` without an explicit memory order — "
                               f"use {op}_explicit(..., memory_order_*)")
                    else:
                        msg = (f"`.{op}()` defaults to seq_cst — state the "
                               "order: memory_order_relaxed for counters, "
                               "acquire/release (with a `// pairs-with:` "
                               "annotation) for publication edges")
                    if not waived:
                        violations.append(
                            Violation(sf.rel, lineno, PASS_NAME, msg))
                    continue

                strongest = set(orders)
                needs_pair = bool(strongest & (RELEASE_SIDE | ACQUIRE_SIDE))
                tag = _annotation(sf, lineno)
                if needs_pair:
                    if tag is None:
                        if not waived:
                            violations.append(Violation(
                                sf.rel, lineno, PASS_NAME,
                                f"acquire/release `{op}` without a "
                                "`// pairs-with: <tag>` annotation naming "
                                "its counterpart"))
                        continue
                    entry = pairs.setdefault(
                        tag, {"release": [], "acquire": []})
                    load_only = op == "load" or op.startswith("atomic_load")
                    store_only = op == "store" or op.startswith("atomic_store")
                    if strongest & RELEASE_SIDE and not load_only:
                        entry["release"].append((sf.rel, lineno))
                    if strongest & ACQUIRE_SIDE and not store_only:
                        entry["acquire"].append((sf.rel, lineno))
                elif tag is not None:
                    # a pairs-with on a relaxed op is a stale annotation
                    if not waived:
                        violations.append(Violation(
                            sf.rel, lineno, PASS_NAME,
                            f"`// pairs-with: {tag}` on a relaxed operation "
                            "— either strengthen the order or drop the "
                            "annotation"))

    for tag, sides in sorted(pairs.items()):
        if not sides["release"]:
            rel, line = sides["acquire"][0]
            violations.append(Violation(
                rel, line, PASS_NAME,
                f"pairs-with tag `{tag}` has acquire sites but no "
                "release-side counterpart — the publication edge is "
                "one-sided"))
        if not sides["acquire"]:
            rel, line = sides["release"][0]
            violations.append(Violation(
                rel, line, PASS_NAME,
                f"pairs-with tag `{tag}` has release sites but no "
                "acquire-side counterpart — nobody observes this publish"))

    summary = {
        "atomic_sites": sites,
        "pair_tags": {
            tag: {"release": len(s["release"]), "acquire": len(s["acquire"])}
            for tag, s in sorted(pairs.items())
        },
    }
    return PassResult(PASS_NAME, violations, summary, checked)
