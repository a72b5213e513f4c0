#!/usr/bin/env python3
"""Throughput and accuracy regression gate for CI.

Usage:
    check_bench_regression.py --baseline BENCH_realspace.json \
        --candidate build/BENCH_realspace.json [--threshold 0.30] \
        [--metric t_rebuild_s] [--max fp32_ep=5e-3] ...
    check_bench_regression.py --health health.json --ep-max 1e-3
    check_bench_regression.py --candidate build/BENCH_realspace.json \
        --history BENCH_HISTORY.ndjson [--history-window 5]

Trend: --history gates the candidate's p50s against the *median of the
last N committed history entries* for the same bench and the same
configuration (tools/bench_history.py NDJSON) with the same threshold
rules — a slow creep that stays under the single-baseline threshold each
PR still trips once the cumulative drift shows against the trend median.
The configuration is the entry's "manifest" (seed, particles, box, radius
and the PME mesh/order/rmax/xi): a change of the measured parameters
starts a new series, since times taken at another mesh or cutoff (and
ratios between tiers whose parameters moved) are not a trend of the same
measurement.  An empty (or bench-less) series passes vacuously with a
note, so the first run seeds it without ceremony; the --baseline gate
against the committed report still applies.

Throughput: compares the p50 of each metric between the committed baseline
report and a freshly measured candidate (both in the shared BENCH_*.json
schema).  Timing metrics ("t_*") must not be slower than baseline by more
than the threshold fraction; ratio metrics containing "speedup" or
"reduction" (e.g. the modeled SpMV traffic reduction of the half-stored
near field) must not be smaller by more than the threshold.  Without
--metric, every timing, speedup, and reduction key shared by both reports
is gated.  --max KEY=BOUND additionally enforces an absolute upper bound on
a candidate metric's p50 regardless of the baseline — used to pin the
measured FP32 storage-rounding error (fp32_ep) under the paper's e_p budget.

Accuracy: --health reads an HBD_HEALTH report and fails when the maximum
probed PME error e_p exceeds --ep-max, when the maximum probed Brownian
covariance error exceeds --cov-max (wavespace sampler runs), or when any
Krylov update failed to converge.

Observability: --metrics reads an HBD_METRICS registry dump and
--max-gauge KEY=BOUND enforces an absolute upper bound on a gauge — CI uses
it to pin the live-telemetry hook's self-measured cost (obs.overhead_frac)
under the documented 2% budget.

CI runs this in the bench-regression job; a PR that intentionally trades
throughput (or relaxes accuracy) skips the gate with the
'perf-regression-ok' label (see .github/workflows/ci.yml).

Exits non-zero with one line per violation.
"""

import argparse
import json
import sys

from bench_history import entry_from_report


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"{path}: not readable JSON: {exc}")


def p50(report, key, path):
    entry = report.get("percentiles", {}).get(key)
    if not isinstance(entry, dict) or "p50" not in entry:
        sys.exit(f"{path}: no p50 for metric {key}")
    return float(entry["p50"])


def gated_metrics(baseline, candidate, requested):
    if requested:
        return requested
    shared = set(baseline.get("percentiles", {})) & set(
        candidate.get("percentiles", {}))
    return sorted(k for k in shared
                  if k.startswith("t_") or "speedup" in k
                  or "reduction" in k)


def check_throughput(args, failures):
    baseline = load(args.baseline)
    candidate = load(args.candidate)
    metrics = gated_metrics(baseline, candidate, args.metric)
    if not metrics:
        sys.exit(f"{args.candidate}: no metrics to gate")
    for key in metrics:
        base = p50(baseline, key, args.baseline)
        cand = p50(candidate, key, args.candidate)
        higher_better = "speedup" in key or "reduction" in key
        if base <= 0:
            print(f"  skip {key}: non-positive baseline {base:g}")
            continue
        ratio = cand / base
        if higher_better:
            ok = ratio >= 1.0 - args.threshold
            verdict = f"{ratio:.3f}x of baseline (floor {1 - args.threshold:.2f})"
        else:
            ok = ratio <= 1.0 + args.threshold
            verdict = f"{ratio:.3f}x of baseline (ceiling {1 + args.threshold:.2f})"
        status = "ok" if ok else "REGRESSION"
        print(f"  {status} {key}: {base:g} -> {cand:g}, {verdict}")
        if not ok:
            failures.append(f"{key}: {verdict}")


def check_bounds(args, failures):
    candidate = load(args.candidate)
    for spec in args.max:
        key, sep, bound = spec.partition("=")
        if not sep:
            sys.exit(f"--max {spec}: expected KEY=BOUND")
        try:
            limit = float(bound)
        except ValueError:
            sys.exit(f"--max {spec}: bound is not a number")
        value = p50(candidate, key, args.candidate)
        ok = value <= limit
        status = "ok" if ok else "VIOLATION"
        print(f"  {status} {key}: {value:g} (bound {limit:g})")
        if not ok:
            failures.append(f"{key}: {value:g} exceeds bound {limit:g}")


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2 == 1:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def check_history(args, failures):
    """Trend gate: candidate p50s vs the median of the last N history
    entries for the same bench and manifest (tools/bench_history.py NDJSON).
    A creeping regression that stays under the single-baseline threshold
    each PR still trips here once the drift from the recent median exceeds
    it."""
    candidate = load(args.candidate)
    bench = candidate.get("bench")
    if not bench:
        sys.exit(f"{args.candidate}: missing bench name")
    series = entry_from_report(candidate, args.candidate, "")["manifest"]
    entries = []
    other_configs = 0
    try:
        with open(args.history, encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    sys.exit(f"{args.history}:{i + 1}: bad NDJSON: {exc}")
                if entry.get("bench") != bench:
                    continue
                if entry.get("manifest") == series:
                    entries.append(entry)
                else:
                    other_configs += 1
    except OSError as exc:
        sys.exit(f"{args.history}: not readable: {exc}")
    window = entries[-args.history_window:]
    if other_configs:
        print(f"  {other_configs} {bench!r} entries measured another "
              f"configuration; not in this series")
    if not window:
        print(f"  {args.history}: no history for bench {bench!r} at "
              f"{series} yet — trend gate passes vacuously")
        return
    keys = sorted(
        k for k in candidate.get("percentiles", {})
        if (k.startswith("t_") or "speedup" in k or "reduction" in k)
        and any(k in e.get("metrics", {}) for e in window))
    if not keys:
        sys.exit(f"{args.history}: no shared metrics with {args.candidate}")
    print(f"  trend window: last {len(window)} {bench!r} entries")
    for key in keys:
        history = [float(e["metrics"][key]) for e in window
                   if key in e.get("metrics", {})]
        base = median(history)
        cand = p50(candidate, key, args.candidate)
        if base <= 0:
            print(f"  skip {key}: non-positive history median {base:g}")
            continue
        higher_better = "speedup" in key or "reduction" in key
        ratio = cand / base
        if higher_better:
            ok = ratio >= 1.0 - args.threshold
            verdict = (f"{ratio:.3f}x of trend median "
                       f"(floor {1 - args.threshold:.2f})")
        else:
            ok = ratio <= 1.0 + args.threshold
            verdict = (f"{ratio:.3f}x of trend median "
                       f"(ceiling {1 + args.threshold:.2f})")
        status = "ok" if ok else "TREND REGRESSION"
        print(f"  {status} {key}: median {base:g} -> {cand:g}, {verdict}")
        if not ok:
            failures.append(f"{key} (trend): {verdict}")


def check_health(args, failures):
    doc = load(args.health)
    ep = doc.get("ep", {})
    cov = doc.get("covariance", {})
    krylov = doc.get("krylov", {})
    probes = len(ep.get("series", []))
    cov_probes = len(cov.get("series", []))
    ep_max = float(ep.get("max", 0.0))
    cov_max = float(cov.get("max", 0.0))
    nonconverged = int(krylov.get("nonconverged", 0))
    if probes == 0:
        failures.append(f"{args.health}: no e_p probes ran")
    if args.ep_max is not None and ep_max > args.ep_max:
        failures.append(
            f"{args.health}: max e_p {ep_max:g} exceeds bound {args.ep_max:g}")
    if args.cov_max is not None:
        if cov_probes == 0:
            failures.append(f"{args.health}: no covariance probes ran")
        elif cov_max > args.cov_max:
            failures.append(f"{args.health}: max covariance error "
                            f"{cov_max:g} exceeds bound {args.cov_max:g}")
    if nonconverged > 0:
        failures.append(
            f"{args.health}: {nonconverged} Krylov update(s) did not converge")
    print(f"  {args.health}: {probes} probes, max e_p {ep_max:g}, "
          f"{cov_probes} covariance probes, max cov {cov_max:g}, "
          f"{nonconverged} non-converged")


def check_gauges(args, failures):
    doc = load(args.metrics)
    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        sys.exit(f"{args.metrics}: no gauges section")
    for spec in args.max_gauge:
        key, sep, bound = spec.partition("=")
        if not sep:
            sys.exit(f"--max-gauge {spec}: expected KEY=BOUND")
        try:
            limit = float(bound)
        except ValueError:
            sys.exit(f"--max-gauge {spec}: bound is not a number")
        if key not in gauges:
            failures.append(f"{args.metrics}: gauge {key} not present")
            continue
        value = float(gauges[key])
        ok = value <= limit
        status = "ok" if ok else "VIOLATION"
        print(f"  {status} gauge {key}: {value:g} (bound {limit:g})")
        if not ok:
            failures.append(
                f"gauge {key}: {value:g} exceeds bound {limit:g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed BENCH_*.json report")
    parser.add_argument("--candidate", help="freshly measured report")
    parser.add_argument("--metric", action="append", default=[],
                        help="percentile key to gate (default: all t_* and "
                             "*speedup* keys shared by both reports)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed relative slowdown / speedup loss")
    parser.add_argument("--max", action="append", default=[],
                        metavar="KEY=BOUND",
                        help="absolute upper bound on a candidate metric's "
                             "p50 (e.g. fp32_ep=5e-3)")
    parser.add_argument("--health", help="HBD_HEALTH JSON report to gate")
    parser.add_argument("--ep-max", type=float, default=None,
                        help="maximum allowed probed PME error e_p")
    parser.add_argument("--cov-max", type=float, default=None,
                        help="maximum allowed probed Brownian covariance "
                             "error (wavespace sampler runs)")
    parser.add_argument("--history",
                        help="BENCH_HISTORY.ndjson trend file "
                             "(tools/bench_history.py); gates the candidate "
                             "against the median of its recent entries")
    parser.add_argument("--history-window", type=int, default=5,
                        help="history entries per bench in the trend median")
    parser.add_argument("--metrics", help="HBD_METRICS registry JSON dump")
    parser.add_argument("--max-gauge", action="append", default=[],
                        metavar="KEY=BOUND",
                        help="absolute upper bound on a gauge in the "
                             "--metrics dump (e.g. obs.overhead_frac=0.02)")
    args = parser.parse_args()

    if args.baseline and not args.candidate:
        parser.error("--baseline requires --candidate")
    if args.candidate and not args.baseline and not args.max \
            and not args.history:
        parser.error("--candidate without --baseline needs --max bounds "
                     "or --history")
    if args.max and not args.candidate:
        parser.error("--max requires --candidate")
    if args.history and not args.candidate:
        parser.error("--history requires --candidate")
    if args.history_window < 1:
        parser.error("--history-window must be >= 1")
    if bool(args.metrics) != bool(args.max_gauge):
        parser.error("--metrics and --max-gauge go together")
    if not args.baseline and not args.health and not args.max \
            and not args.metrics and not args.history:
        parser.error("nothing to check")

    failures = []
    if args.baseline:
        check_throughput(args, failures)
    if args.history:
        check_history(args, failures)
    if args.max:
        check_bounds(args, failures)
    if args.health:
        check_health(args, failures)
    if args.metrics:
        check_gauges(args, failures)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        sys.exit(1)
    print("regression gate passed")


if __name__ == "__main__":
    main()
