#!/usr/bin/env python3
"""Golden-file selftest for the project's static tooling, registered as
the `lint_selftest` ctest entry.

Each analyze pass, srsr_lint.py, and check_expfmt.py is run against a
known-good and a known-bad fixture under tools/analyze/fixtures/. A
pass that misses a planted violation — or flags a clean fixture — fails
the selftest. This is the regression net for the analyzers themselves:
a tokenizer or call-graph change that silently stops detecting a class
of violation is caught here, not months later in review.

Exit code 0 when every case behaves, 1 with a listing otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIX = os.path.join(HERE, "fixtures")
ANALYZE = os.path.join(HERE, "srsr_analyze.py")
LINT = os.path.join(REPO, "tools", "lint", "srsr_lint.py")
EXPFMT = os.path.join(REPO, "tools", "lint", "check_expfmt.py")

# (case name, argv, expect_clean, substrings that must appear when dirty)
CASES = [
    ("layering/good",
     [ANALYZE, "--repo", f"{FIX}/layering_good", "--pass", "layering"],
     True, []),
    ("layering/bad",
     [ANALYZE, "--repo", f"{FIX}/layering_bad", "--pass", "layering"],
     False, ["not an allowed edge"]),
    ("atomics/good",
     [ANALYZE, "--repo", f"{FIX}/atomics_good", "--pass", "atomics"],
     True, []),
    ("atomics/bad",
     [ANALYZE, "--repo", f"{FIX}/atomics_bad", "--pass", "atomics"],
     False, ["seq_cst", "pairs-with", "fx-orphan"]),
    ("determinism/good",
     [ANALYZE, "--repo", f"{FIX}/determinism_good", "--pass", "determinism"],
     True, []),
    ("determinism/bad",
     [ANALYZE, "--repo", f"{FIX}/determinism_bad", "--pass", "determinism"],
     False, ["unordered container", "tainted via"]),
    ("hotloop/good",
     [ANALYZE, "--repo", f"{FIX}/hotloop_good", "--pass", "hotloop"],
     True, []),
    ("hotloop/bad",
     [ANALYZE, "--repo", f"{FIX}/hotloop_bad", "--pass", "hotloop"],
     False, ["hot region"]),
    ("contracts/good",
     [ANALYZE, "--repo", f"{FIX}/contracts_good", "--pass", "contracts",
      "--baseline", f"{FIX}/contracts_good/baseline.json"],
     True, []),
    ("contracts/bad",
     [ANALYZE, "--repo", f"{FIX}/contracts_bad", "--pass", "contracts",
      "--baseline", f"{FIX}/contracts_bad/baseline.json"],
     False, ["coverage regressed"]),
    ("hygiene/good",
     [ANALYZE, "--repo", f"{FIX}/hygiene_good", "--pass", "hygiene"],
     True, []),
    ("hygiene/bad",
     [ANALYZE, "--repo", f"{FIX}/hygiene_bad", "--pass", "hygiene"],
     False, ["#pragma once", "does not include <vector>"]),
    ("srsr_lint/good",
     [LINT, "--repo", f"{FIX}/lint_good", "--no-headers"],
     True, []),
    ("srsr_lint/bad",
     [LINT, "--repo", f"{FIX}/lint_bad", "--no-headers"],
     False, ["rng", "stdout", "contract"]),
    ("expfmt/good", [EXPFMT, f"{FIX}/expfmt/good.txt"], True, []),
    ("expfmt/bad", [EXPFMT, f"{FIX}/expfmt/bad.txt"], False, ["_total"]),
]


def main() -> int:
    failures = []
    for name, argv, expect_clean, substrings in CASES:
        proc = subprocess.run([sys.executable] + argv, capture_output=True,
                              text=True)
        out = proc.stdout + proc.stderr
        if expect_clean and proc.returncode != 0:
            failures.append(f"{name}: expected clean, got exit "
                            f"{proc.returncode}:\n{out}")
        elif not expect_clean and proc.returncode == 0:
            failures.append(f"{name}: planted violation was NOT detected:"
                            f"\n{out}")
        elif not expect_clean:
            for s in substrings:
                if s not in out:
                    failures.append(f"{name}: output does not mention "
                                    f"{s!r}:\n{out}")
    if failures:
        print(f"lint_selftest: {len(failures)} failure(s)")
        for f in failures:
            print(" FAIL", f)
        return 1
    print(f"lint_selftest: all {len(CASES)} cases behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
