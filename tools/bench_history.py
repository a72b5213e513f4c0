#!/usr/bin/env python3
"""Append bench runs to the committed NDJSON history.

Usage:
    bench_history.py --history BENCH_HISTORY.ndjson \
        --report BENCH_realspace.json [--report BENCH_block_mobility.json] \
        [--timestamp 2026-08-09T12:00:00Z]

Each --report appends one line to the history file:

    {"bench": "realspace", "version": "...", "build_type": "Release",
     "omp_threads": 1, "n": 16000, "timestamp": "...",
     "manifest": {"seed": ..., "particles": ..., "box": ..., "radius": ...,
                  "mesh": ..., "order": ..., "rmax": ..., "xi": ...},
     "metrics": {"t_rebuild_s": <p50>, ...}}

"metrics" holds the p50 of every percentile key in the report — the same
values check_bench_regression.py gates, so `--history` trend gates read
directly from this file.

The history is append-only and committed (BENCH_HISTORY.ndjson at the repo
root): every line is one (bench, version) measurement, so regressions that
creep in under the single-baseline threshold still show as a trend.
"""

import argparse
import datetime
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"{path}: not readable JSON: {exc}")


def entry_from_report(report, path, timestamp):
    for key in ("bench", "manifest", "percentiles"):
        if key not in report:
            sys.exit(f"{path}: missing {key} (not a BENCH_*.json report?)")
    manifest = report["manifest"]
    pme = manifest.get("pme", {})
    metrics = {}
    for key, pct in report["percentiles"].items():
        if isinstance(pct, dict) and "p50" in pct:
            metrics[key] = pct["p50"]
    if not metrics:
        sys.exit(f"{path}: no p50 percentiles to record")
    return {
        "bench": report["bench"],
        "version": manifest.get("version", ""),
        "build_type": manifest.get("build_type", ""),
        "omp_threads": manifest.get("omp_threads", 0),
        "n": report.get("n", 0),
        "timestamp": timestamp,
        "manifest": {
            "seed": manifest.get("seed", 0),
            "particles": manifest.get("particles", 0),
            "box": manifest.get("box", 0.0),
            "radius": manifest.get("radius", 0.0),
            "mesh": pme.get("mesh", 0),
            "order": pme.get("order", 0),
            "rmax": pme.get("rmax", 0.0),
            "xi": pme.get("xi", 0.0),
        },
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--history", required=True,
                        help="NDJSON history file to append to")
    parser.add_argument("--report", action="append", default=[],
                        required=True, help="BENCH_*.json report to record")
    parser.add_argument("--timestamp",
                        help="ISO-8601 stamp (default: now, UTC)")
    args = parser.parse_args()

    timestamp = args.timestamp or datetime.datetime.now(
        datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

    lines = []
    for path in args.report:
        entry = entry_from_report(load(path), path, timestamp)
        lines.append(json.dumps(entry, sort_keys=True))
    try:
        with open(args.history, "a", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        sys.exit(f"{args.history}: cannot append: {exc}")
    for line, path in zip(lines, args.report):
        bench = json.loads(line)["bench"]
        print(f"{args.history}: appended {bench} ({path})")


if __name__ == "__main__":
    main()
