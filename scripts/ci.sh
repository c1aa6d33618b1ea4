#!/usr/bin/env bash
# Single-exit-code CI gate: configure → build → unit tests → sanitizer
# matrix (tsan + asan) → serve/dynamic/prometheus end-to-end smokes →
# paper golden outputs → benchmark suite smoke → clang-tidy → project
# lint → static analysis (srsr_analyze) → analyzer selftest. Any stage
# failing fails the run; stages whose tooling is absent (clang-tidy on a
# gcc-only toolchain) skip with a notice rather than fail.
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

stage() { echo; echo "=== ci: $1 ==="; }

stage "configure + build + unit tests + sanitizers (scripts/check.sh)"
scripts/check.sh

stage "serve end-to-end smoke (srsr_cli serve)"
# A scripted query session against a fresh crawl: the service must come
# up, answer a top-k query, publish a recompute mid-session, report its
# push footprint in stats, and shut down cleanly. check.sh built build/ above.
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "$SERVE_DIR"' EXIT
./build/tools/srsr_cli generate --out "$SERVE_DIR" --sources 200 --spam 10 --seed 11
SERVE_OUT=$(printf 'top 5\nrecompute 0.5\nstats\nquit\n' \
  | ./build/tools/srsr_cli serve --in "$SERVE_DIR")
echo "$SERVE_OUT"
echo "$SERVE_OUT" | grep -q "serve ready: 200 sources, epoch 1" \
  || { echo "ci: serve did not come up" >&2; exit 1; }
echo "$SERVE_OUT" | grep -qE "^5 " \
  || { echo "ci: serve top 5 missing rank-5 line" >&2; exit 1; }
echo "$SERVE_OUT" | grep -qE "published epoch 2 \([0-9]+ iterations, converged" \
  || { echo "ci: serve recompute did not publish" >&2; exit 1; }
# The static pipeline publishes through the same push state as the
# dynamic one. Which path the recompute took is not pinned: at 200
# sources its seed mass can exceed the full-solve threshold.
echo "$SERVE_OUT" | grep -qE "last_path (delta|full|fallback), last_pushes [1-9][0-9]*," \
  || { echo "ci: serve stats missing the recompute's push footprint" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q "^bye$" \
  || { echo "ci: serve did not shut down cleanly" >&2; exit 1; }
# The crawl reader must not care how edges.txt is laid out: a copy whose
# edge lines are shuffled (fixed seed) and CRLF-terminated serves the
# same ranking as the original.
SHUF_DIR="$SERVE_DIR/shuffled"
mkdir -p "$SHUF_DIR"
cp "$SERVE_DIR/pages.txt" "$SERVE_DIR/labels.txt" "$SHUF_DIR/"
python3 - "$SERVE_DIR/edges.txt" "$SHUF_DIR/edges.txt" <<'PY'
import random, sys
lines = open(sys.argv[1]).read().splitlines()
random.Random(20070326).shuffle(lines)
open(sys.argv[2], "w", newline="").write("".join(l + "\r\n" for l in lines))
PY
HOST=$(head -n 1 "$SERVE_DIR/pages.txt" | sed -E 's#^[0-9]+ [a-z]+://([^/:]+).*#\1#')
QUERIES=$(printf 'top 5\nrank %s\nscore %s\nquit\n' "$HOST" "$HOST")
ORIG_OUT=$(echo "$QUERIES" | ./build/tools/srsr_cli serve --in "$SERVE_DIR")
SHUF_OUT=$(echo "$QUERIES" | ./build/tools/srsr_cli serve --in "$SHUF_DIR")
echo "$SHUF_OUT"
echo "$ORIG_OUT" | grep -qE "^$HOST rank [0-9]+ of 200$" \
  || { echo "ci: serve rank query malformed" >&2; exit 1; }
[ "$ORIG_OUT" = "$SHUF_OUT" ] \
  || { echo "ci: shuffled CRLF edges.txt served a different ranking" >&2; exit 1; }

stage "dynamic serve end-to-end (srsr_cli serve --dynamic)"
# The stream subsystem driven exactly as a deployment would: stage
# page-level link edits over the update protocol, commit, and require
# the publish to ride the warm DELTA path — a fresh epoch without a
# full re-solve — with the dynamic counters surfaced in stats. A second
# commit then links from the page the first one added, which lives only
# in the page store's edit overlay; it must publish epoch 3 the same way.
# Between the two, readers must resolve the added host: the grown host
# index reaches the published epoch.
NEW_PAGE=$(printf 'update status\nquit\n' \
  | ./build/tools/srsr_cli serve --in "$SERVE_DIR" --dynamic \
  | sed -nE 's/^pending 0, pages ([0-9]+), .*/\1/p')
DYN_OUT=$(printf 'update status\nupdate link 0 1\nupdate unlink 0 1\nupdate link 2 3\nupdate page crawl-new.example\nupdate commit\nrank crawl-new.example\nstats\nupdate status\nupdate link %s 0\nupdate commit\nquit\n' "$NEW_PAGE" \
  | ./build/tools/srsr_cli serve --in "$SERVE_DIR" --dynamic)
echo "$DYN_OUT"
echo "$DYN_OUT" | grep -q "serve ready: 200 sources, epoch 1.*dynamic" \
  || { echo "ci: dynamic serve did not come up" >&2; exit 1; }
echo "$DYN_OUT" | grep -qE "^published epoch 2 \(delta, [0-9]+ pushes, [0-9]+ dirty rows, converged, [0-9]+ mutations\)$" \
  || { echo "ci: dynamic serve commit did not publish via the delta path" >&2; exit 1; }
echo "$DYN_OUT" | grep -qE "^crawl-new\.example rank [0-9]+ of 201$" \
  || { echo "ci: dynamic serve epoch 2 does not resolve the added host" >&2; exit 1; }
echo "$DYN_OUT" | grep -qE "^published epoch 3 \(delta, [0-9]+ pushes, 1 dirty rows, converged, 1 mutations\)$" \
  || { echo "ci: dynamic serve link from an added page did not publish via the delta path" >&2; exit 1; }
echo "$DYN_OUT" | grep -qE "queue_depth [0-9]+, coalesced_batches [0-9]+, mutations [0-9]+, last_path delta, last_pushes [0-9]+" \
  || { echo "ci: dynamic serve stats missing stream fields" >&2; exit 1; }
echo "$DYN_OUT" | grep -qE "^pending 0, pages [0-9]+, sources 20[01], queue_depth 0$" \
  || { echo "ci: dynamic serve update status malformed" >&2; exit 1; }
echo "$DYN_OUT" | grep -q "^bye$" \
  || { echo "ci: dynamic serve did not shut down cleanly" >&2; exit 1; }

stage "prometheus exposition (stats --prometheus | check_expfmt.py)"
# The exporter's output must be a valid 0.0.4 text exposition: names,
# TYPE lines, cumulative histogram buckets ending at +Inf == _count.
./build/tools/srsr_cli stats --in "$SERVE_DIR" --prometheus \
  | python3 tools/lint/check_expfmt.py --require-metrics \
  || { echo "ci: prometheus exposition invalid" >&2; exit 1; }
# The serve-protocol `metrics` dump goes through the same validator, and
# `tracefile` must produce Perfetto-loadable trace JSON with spans.
TRACE_JSON="$SERVE_DIR/serve_trace.json"
printf 'top 3\ninfo\ntracefile %s\nmetrics\nquit\n' "$TRACE_JSON" \
  | ./build/tools/srsr_cli serve --in "$SERVE_DIR" --metrics \
  | sed -n '/^# /,$p' | sed '/^bye$/d' \
  | python3 tools/lint/check_expfmt.py --require-metrics \
  || { echo "ci: serve metrics exposition invalid" >&2; exit 1; }
grep -q '"traceEvents"' "$TRACE_JSON" \
  || { echo "ci: serve tracefile produced no trace events" >&2; exit 1; }
grep -q '"serve.recompute"' "$TRACE_JSON" \
  || { echo "ci: serve trace missing recompute span" >&2; exit 1; }

stage "paper golden outputs (table1, fig2-fig7 vs bench/golden/)"
# The paper benches' stdout is deterministic (log lines go to stderr)
# and identical at any thread count, so any byte that moves is a change
# to a reproduced figure. A PR that changes a figure on purpose
# regenerates the files and says so in CHANGES.md:
#   for g in bench/golden/*.txt; do
#     OMP_NUM_THREADS=2 "./build/bench/$(basename "$g" .txt)" > "$g"; done
for GOLDEN in bench/golden/*.txt; do
  BENCH=$(basename "$GOLDEN" .txt)
  OMP_NUM_THREADS=2 "./build/bench/$BENCH" 2>/dev/null | diff -u "$GOLDEN" - \
    || { echo "ci: $BENCH stdout differs from $GOLDEN" >&2; exit 1; }
done

stage "benchmark suite smoke (bench/suite/run.sh --smoke)"
# The suite builds its own tree (build/bench-suite) against the serve
# and stream APIs that ctest never compiles it against; smoke mode runs
# every workload once on 2k-source corpora with every correctness gate
# (published sigma vs a tight reference solve) and fails on any of them.
bench/suite/run.sh --smoke

stage "clang-tidy (scripts/tidy.sh)"
scripts/tidy.sh

stage "project lint (tools/lint/srsr_lint.py)"
python3 tools/lint/srsr_lint.py

stage "static analysis (tools/analyze/srsr_analyze.py)"
# All six passes over the full tree, findings + layering DOT +
# contract-coverage table recorded in bench_out/ANALYZE_report.json.
python3 tools/analyze/srsr_analyze.py \
  --compile-commands build/compile_commands.json \
  --report bench_out/ANALYZE_report.json --dot bench_out/layering.dot

stage "analyzer selftest (tools/analyze/selftest.py)"
python3 tools/analyze/selftest.py

echo
echo "=== ci: all gates passed ==="
