#!/usr/bin/env python3
"""Project-specific lint rules for srsr, registered as the `srsr_lint`
ctest entry (see tests/CMakeLists.txt) and run by scripts/check.sh and
scripts/ci.sh.

Rules (each can be waived per line with `// srsr-lint: allow(<rule>)`):

  rng        rand()/srand()/time(nullptr) outside src/util/rng* — all
             stochastic code must flow through the seeded SplitMix/PCG
             engines so experiments replay bit-identically.
  stdout     std::cout / printf-family in src/ — library code reports
             through util/log (structured, rate-limited); stdout belongs
             to tools/, bench/, examples/.
  float-eq   bare ==/!= against a non-zero float literal — ranking
             scores are iterates, not exact values; compare through a
             tolerance helper. Exact 0.0 tests are idiomatic (mass
             conservation short-circuits) and stay legal.
  pragma     every header starts with #pragma once.
  header     every src/**/*.hpp compiles standalone (g++ -fsyntax-only)
             so include order can never hide a missing dependency.
  catch-all  `catch (...)` that swallows — a bare catch-all may only
             rethrow; silently eating ContractViolation would defeat
             the whole contract layer.
  thread     raw std::thread / std::jthread in src/ (outside
             src/serve/recompute.* and src/util) or tools/ — concurrency
             lives behind util/parallel (data parallel) and
             serve/recompute (the background worker); ad-hoc threads
             elsewhere escape the tsan test matrix. bench/ and examples/ may spawn load-
             generator threads freely.
  metric-name  a string-literal metric registration
             (.counter("…") / .gauge("…") / .histogram("…")) whose name
             does not start with "srsr." — the registry enforces the
             srsr.<subsystem>.<name> scheme at runtime; catching it at
             lint time keeps the failure out of production telemetry
             paths. Dynamically composed names (prefix + "…") are
             checked at runtime only.
  contract   a bare check(...) call anywhere outside bench/suite/
             (tests/ included) — preconditions go through SRSR_CHECK
             (util/check.hpp), which builds its message only on failure
             and names file:line and the expression. srsr::check in
             util/common.hpp survives only for the frozen bench/suite
             harness.

Exit code 0 when clean, 1 with a file:line listing otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys

WAIVER = re.compile(r"//\s*srsr-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

RE_RNG = re.compile(r"(?<![\w:])(?:s?rand\s*\(\s*\)|time\s*\(\s*(?:nullptr|NULL|0)\s*\))")
RE_STDOUT = re.compile(r"std::cout|(?<![\w:])(?:std::)?(?:printf|puts|putchar)\s*\(|fprintf\s*\(\s*stdout")
# ==/!= against a float literal such as 0.85 or 1e-9 (either side).
FLOAT_LIT = r"\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
RE_FLOAT_EQ = re.compile(
    r"[=!]=\s*-?(?:" + FLOAT_LIT + r")|(?:" + FLOAT_LIT + r")\s*[=!]=")
RE_FLOAT_ZERO = re.compile(r"[=!]=\s*-?0\.0(?![\d])|0\.0\s*[=!]=")
RE_CATCH_ALL = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
RE_THREAD = re.compile(r"std::(?:jthread|thread)\b")
# Literal metric registration whose name does not start with "srsr.".
# Runs against the RAW line (strip_comments_and_strings would empty the
# very literal being checked).
RE_METRIC_NAME = re.compile(
    r"\.(?:counter|gauge|histogram)\s*\(\s*\"(?!srsr\.)")
# A call of the free function check(...) or srsr::check(...); members
# (x.check(), p->check()) and other names ending in check do not match.
RE_CHECK_CALL = re.compile(r"(?:(?<![\w:.>])|(?<=srsr::))check\s*\(")
# What may precede `check(` when the line declares it instead of calling.
RE_CHECK_DECL = re.compile(
    r"\b(?!(?:return|else|do|case)\b)[A-Za-z_][\w:<>]*(?:\s+|\s*[&*]\s*)$")
SRC_EXTS = (".cpp", ".hpp")


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of string/char literals and // comments so the
    regex rules don't fire on documentation or log text."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote + quote)  # keep token boundaries
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def iter_sources(repo: str, subdirs: list[str]):
    for sub in subdirs:
        root = os.path.join(repo, sub)
        for dirpath, dirnames, filenames in os.walk(root):
            # Selftest fixtures (tools/analyze/fixtures/) contain
            # deliberately-bad code; they are linted only through
            # tools/analyze/selftest.py, never as part of the tree.
            dirnames[:] = [d for d in dirnames if d != "fixtures"]
            for fn in sorted(filenames):
                if fn.endswith(SRC_EXTS):
                    yield os.path.join(dirpath, fn)


class Linter:
    def __init__(self, repo: str):
        self.repo = repo
        self.failures: list[str] = []

    def fail(self, path: str, lineno: int, rule: str, msg: str) -> None:
        rel = os.path.relpath(path, self.repo)
        self.failures.append(f"{rel}:{lineno}: [{rule}] {msg}")

    def waived(self, raw_line: str, rule: str) -> bool:
        m = WAIVER.search(raw_line)
        if not m:
            return False
        allowed = {r.strip() for r in m.group(1).split(",")}
        return rule in allowed

    # -- line rules ------------------------------------------------------

    def lint_lines(self, path: str) -> None:
        rel = os.path.relpath(path, self.repo).replace(os.sep, "/")
        in_src = rel.startswith("src/")
        is_rng = rel.startswith("src/util/rng")
        is_logger = rel in ("src/util/log.cpp", "src/util/log.hpp")
        thread_banned = (
            in_src
            and not rel.startswith("src/serve/recompute.")
            and not rel.startswith("src/util/")
        ) or rel.startswith("tools/")
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()

        pending_catch = 0  # > 0: inside a catch (...) body, looking for rethrow
        catch_line = 0
        catch_has_rethrow = False

        for lineno, raw in enumerate(raw_lines, start=1):
            line = strip_comments_and_strings(raw)

            if not is_rng and RE_RNG.search(line) and not self.waived(raw, "rng"):
                self.fail(path, lineno, "rng",
                          "rand()/time(nullptr) — use util/rng engines "
                          "(seeded, replayable)")

            if in_src and not is_logger and RE_STDOUT.search(line) \
                    and not self.waived(raw, "stdout"):
                self.fail(path, lineno, "stdout",
                          "direct stdout in library code — use util/log")

            if thread_banned and RE_THREAD.search(line) \
                    and not self.waived(raw, "thread"):
                self.fail(path, lineno, "thread",
                          "raw std::thread outside serve/recompute and "
                          "src/util — route work through util/parallel "
                          "or serve/recompute")

            if RE_METRIC_NAME.search(raw) \
                    and not self.waived(raw, "metric-name"):
                self.fail(path, lineno, "metric-name",
                          "metric name must follow the "
                          "srsr.<subsystem>.<name> scheme")

            if RE_FLOAT_EQ.search(line) and not RE_FLOAT_ZERO.search(line) \
                    and not self.waived(raw, "float-eq"):
                self.fail(path, lineno, "float-eq",
                          "exact ==/!= on a float literal — use a "
                          "tolerance helper or waive with "
                          "// srsr-lint: allow(float-eq)")

            if pending_catch:
                if re.search(r"(?<!\w)throw\s*;", line):
                    catch_has_rethrow = True
                depth = line.count("{") - line.count("}")
                pending_catch += depth
                if pending_catch <= 0:
                    if not catch_has_rethrow:
                        self.fail(path, catch_line, "catch-all",
                                  "catch (...) must rethrow (`throw;`) — "
                                  "swallowing hides ContractViolation")
                    pending_catch = 0
            elif RE_CATCH_ALL.search(line) and not self.waived(raw, "catch-all"):
                catch_line = lineno
                catch_has_rethrow = bool(re.search(r"(?<!\w)throw\s*;", line))
                body_opened = line.count("{")
                if body_opened == 0:
                    pending_catch = 1  # brace on a following line
                else:
                    pending_catch = body_opened - line.count("}")
                    if pending_catch <= 0 and not catch_has_rethrow:
                        self.fail(path, lineno, "catch-all",
                                  "catch (...) must rethrow (`throw;`) — "
                                  "swallowing hides ContractViolation")
                        pending_catch = 0

        if pending_catch and not catch_has_rethrow:
            self.fail(path, catch_line, "catch-all",
                      "catch (...) must rethrow (`throw;`)")

    def lint_contract(self, path: str) -> None:
        rel = os.path.relpath(path, self.repo).replace(os.sep, "/")
        if rel.startswith("bench/suite/"):
            return
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        for lineno, raw in enumerate(raw_lines, start=1):
            line = strip_comments_and_strings(raw)
            for m in RE_CHECK_CALL.finditer(line):
                before = line[:m.start()]
                if before.endswith("srsr::"):
                    before = before[:-len("srsr::")]
                if RE_CHECK_DECL.search(before):
                    continue
                if not self.waived(raw, "contract"):
                    self.fail(path, lineno, "contract",
                              "bare check() — use SRSR_CHECK "
                              "(util/check.hpp); srsr::check is kept "
                              "only for bench/suite")
                break

    # -- header rules ----------------------------------------------------

    def lint_pragma_once(self, path: str) -> None:
        with open(path, encoding="utf-8") as f:
            for raw in f:
                stripped = raw.strip()
                if not stripped or stripped.startswith("//"):
                    continue
                if stripped != "#pragma once":
                    self.fail(path, 1, "pragma",
                              "header must open with #pragma once")
                return
        self.fail(path, 1, "pragma", "empty header")

    def lint_self_contained(self, headers: list[str], compiler: str) -> None:
        """Each src/ header must compile on its own: a TU consisting of a
        single #include of the header."""
        inc = os.path.join(self.repo, "src")
        for h in headers:
            cmd = [compiler, "-std=c++20", "-fsyntax-only", "-x", "c++",
                   "-I", inc, h]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                first = proc.stderr.strip().splitlines()
                detail = first[0] if first else "compile failed"
                self.fail(h, 1, "header",
                          f"not self-contained: {detail}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    ap.add_argument("--no-headers", action="store_true",
                    help="skip the g++ self-contained-header pass")
    args = ap.parse_args()

    repo = os.path.abspath(args.repo)
    lint = Linter(repo)

    src_headers = []
    for path in iter_sources(repo, ["tests"]):
        lint.lint_contract(path)
    for path in iter_sources(repo, ["src", "tools", "bench", "examples"]):
        lint.lint_lines(path)
        lint.lint_contract(path)
        if path.endswith(".hpp"):
            lint.lint_pragma_once(path)
            rel = os.path.relpath(path, repo).replace(os.sep, "/")
            if rel.startswith("src/"):
                src_headers.append(path)

    if not args.no_headers:
        compiler = shutil.which("g++") or shutil.which("c++") or shutil.which("clang++")
        if compiler:
            lint.lint_self_contained(src_headers, compiler)
        else:
            print("srsr_lint: no C++ compiler found; skipping "
                  "self-contained-header pass", file=sys.stderr)

    if lint.failures:
        print(f"srsr_lint: {len(lint.failures)} violation(s):")
        for f in lint.failures:
            print("  " + f)
        return 1
    print("srsr_lint: clean "
          f"({len(src_headers)} headers self-contained)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
