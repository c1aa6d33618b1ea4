#!/usr/bin/env python3
"""Compares two sets of benchmark-suite runs, workload by workload.

    python3 bench/suite/compare.py BASE_DIR NEW_DIR
    python3 bench/suite/compare.py --self RUNS_A RUNS_B

Each directory holds the detail records srsr_bench writes
(bench_out/suite/*.json); traced and smoke runs are skipped. Every metric
an untraced run measures is compared, on each workload that measures it:
the end-to-end metrics of BENCHMARK.json first, then the per-layer ones.
For each it prints both sides' median and quartiles, the change of the
medians and the larger of the two quartile spreads, (q3 - q1) / median.

End-to-end metrics are flagged

  REGRESSION  NEW's median is worse than BASE's by more than the bound;
  UNRESOLVED  a side's spread exceeds the bound, so the runs cannot tell
              a change from noise.

Per-layer metrics have no bound; one whose medians differ by more than
the larger spread is marked MOVED, with its direction.

--self compares two sets of runs of one commit: they must agree, so an
end-to-end change of the medians beyond the bound in either direction is
flagged as DISAGREE. Exits 1 when an end-to-end metric is flagged, 0
otherwise.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(directory):
    """{workload: {metric: [values]}} from the untraced detail records."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path) as f:
                record = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if record.get("schema") != "srsr-bench-suite/1" or record["traced"] or record["smoke"]:
            continue
        metrics = runs.setdefault(record["workload"], {})
        for name, m in record["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    """(q1, median, q3, spread) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="both directories hold runs of one commit; they must agree")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_runs(args.base), load_runs(args.new)
    flagged = 0
    header = (f"{'workload':<12} {'metric':<28} {'n':>5} {'base median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'change':>8} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name, bound = metric["name"], metric.get("bound")
            a = base.get(workload, {}).get(name, [])
            b = new.get(workload, {}).get(name, [])
            if bound is None and not (a and b):
                continue  # a layer this workload does not run untraced
            if not a or not b:
                print(f"{workload:<12} {name:<28} missing runs")
                flagged += 1
                continue
            (aq1, am, aq3, aspread), (bq1, bm, bq3, bspread) = summary(a), summary(b)
            change = (bm - am) / am if am else (0.0 if bm == am else float("inf"))
            worse = change if metric["better"] == "lower" else -change
            spread = max(aspread, bspread)
            verdicts = []
            if bound is None:
                if abs(change) > spread:
                    verdicts.append("MOVED " + ("worse" if worse > 0 else "better"))
            else:
                if args.self_check and abs(change) > bound:
                    verdicts.append("DISAGREE")
                elif not args.self_check and worse > bound:
                    verdicts.append("REGRESSION")
                if spread > bound:
                    verdicts.append("UNRESOLVED")
                flagged += bool(verdicts)
            print(f"{workload:<12} {name:<28} {len(a):>2}/{len(b):<2} "
                  f"{am:>12.4g} [{aq1:.4g}, {aq3:.4g}]".ljust(80) +
                  f"{bm:>12.4g} [{bq1:.4g}, {bq3:.4g}]".ljust(33) +
                  f"{change:>+8.1%} {spread:>7.1%} " +
                  (f"{bound:>6.0%}" if bound is not None else f"{'-':>6}") +
                  f"  {' '.join(verdicts) or 'ok'}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
