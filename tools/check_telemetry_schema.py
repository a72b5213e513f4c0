#!/usr/bin/env python3
"""Schema checks for the telemetry JSON artifacts.

Usage:
    check_telemetry_schema.py --trace trace.json --metrics metrics.json
    check_telemetry_schema.py --bench BENCH_block_mobility.json ...
    check_telemetry_schema.py --health health.json

Validates that
  * a trace file is Chrome trace_event JSON: a "traceEvents" list of "X"
    (complete) events with name/pid/tid/ts/dur fields;
  * a metrics file has the registry export shape: "counters"/"gauges" maps
    of numbers and a "histograms" map whose entries carry
    count/sum/mean/min/max/p50/p90/p99;
  * a bench file follows the shared BENCH_*.json schema: bench/n/params/
    samples/percentiles, with every percentile entry keyed by a sample field
    and holding p50/p90/max;
  * a health report (HBD_HEALTH=<path>) carries the manifest, the e_p probe
    series, the covariance probe series, the Krylov convergence series, and
    the events list;
  * a stream file (HBD_STREAM=<path>, NDJSON) opens with an hbd.stream.v1
    header line embedding the manifest and continues with window lines
    carrying contiguous step ranges, wall aggregates, and per-phase seconds;
  * a flight bundle (HBD_FLIGHT=<path>) is an hbd.flight.v1 document whose
    snapshot (positions, RNG states, skin) and record hashes are valid hex
    bit patterns and whose recorded steps are contiguous;
  * a Prometheus exposition dump (GET /metrics) lints as text format 0.0.4:
    every sample belongs to a # TYPE'd family, names match the identifier
    grammar, counters carry the _total suffix, native histogram families
    carry cumulative le buckets ending at +Inf plus _sum/_count, and
    hbd_build_info is there;
  * every artifact embeds the run-provenance manifest (version, compiler,
    run configuration, PME parameters, and the fidelity tier block: mobility_tier/switches/error_budget); --require-tier NAME
    additionally pins the manifest's active tier (the CI leg that forces
    HBD_TIER=tea uses it to prove the tier actually took).  Stream files pin
    the last window's live tier field instead — their header manifest is
    written at stream-open, before an env-forced set_tier takes effect.

Exits non-zero (with a message per problem) on the first malformed file.
"""

import argparse
import json
import numbers
import sys


MOBILITY_TIERS = ("tea", "pse_wavespace", "pme_krylov", "dense")

# Set from --require-tier: every checked manifest must then carry this
# active tier (used by the forced-HBD_TIER CI legs).
EXPECTED_TIER = None


def fail(path, message):
    sys.exit(f"{path}: {message}")


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(path, f"not readable JSON: {exc}")


def require(cond, path, message):
    if not cond:
        fail(path, message)


def is_num(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_manifest(doc, path, pin_tier=True):
    """The run-provenance block every exporter embeds (obs::RunManifest).

    pin_tier=False skips the --require-tier equality (stream headers are
    written at stream-open, before an env-forced set_tier takes effect —
    their manifest legitimately records the construction-time tier; the
    per-window tier field is the live signal and is pinned instead).
    """
    m = doc.get("manifest")
    require(isinstance(m, dict), path, "missing manifest object")
    for key in ("version", "compiler", "flags", "build_type"):
        require(isinstance(m.get(key), str), path,
                f"manifest.{key} must be a string")
    require(m.get("version"), path, "manifest.version is empty")
    require(isinstance(m.get("telemetry"), bool), path,
            "manifest.telemetry must be a bool")
    for key in ("omp_threads", "seed", "dt", "kbt", "mu0", "lambda_rpy",
                "particles", "box", "radius"):
        require(is_num(m.get(key)), path, f"manifest.{key} must be numeric")
    pme = m.get("pme")
    require(isinstance(pme, dict), path, "manifest.pme must be an object")
    for key in ("mesh", "order", "rmax", "xi", "skin"):
        require(is_num(pme.get(key)), path,
                f"manifest.pme.{key} must be numeric")
    require(pme.get("precision") in ("fp64", "fp32"), path,
            "manifest.pme.precision must be 'fp64' or 'fp32'")
    require(pme.get("brownian_method") in ("cholesky", "krylov",
                                           "wavespace", "tea"), path,
            "manifest.pme.brownian_method must be "
            "cholesky/krylov/wavespace/tea")
    require(pme.get("ewald_kernel") in ("beenakker", "pse"), path,
            "manifest.pme.ewald_kernel must be 'beenakker' or 'pse'")
    rng = m.get("rng_streams")
    require(isinstance(rng, dict), path,
            "manifest.rng_streams must be an object")
    for key in ("trajectory", "wavespace"):
        require(is_num(rng.get(key)), path,
                f"manifest.rng_streams.{key} must be numeric")
    tier = m.get("tier")
    require(isinstance(tier, dict), path, "manifest.tier must be an object")
    require(tier.get("mobility_tier") in MOBILITY_TIERS, path,
            "manifest.tier.mobility_tier must be one of "
            + "/".join(MOBILITY_TIERS))
    require(is_num(tier.get("switches")) and tier["switches"] >= 0, path,
            "manifest.tier.switches must be a non-negative number")
    require(is_num(tier.get("error_budget")), path,
            "manifest.tier.error_budget must be numeric")
    if pin_tier and EXPECTED_TIER is not None:
        require(tier["mobility_tier"] == EXPECTED_TIER, path,
                f"manifest.tier.mobility_tier is {tier['mobility_tier']!r}, "
                f"expected {EXPECTED_TIER!r} (--require-tier)")
    hw = m.get("hardware")
    require(isinstance(hw, dict), path,
            "manifest.hardware must be an object")
    require(isinstance(hw.get("name"), str), path,
            "manifest.hardware.name must be a string")
    for key in ("peak_dp_gflops", "stream_bw_gbs"):
        require(is_num(hw.get(key)), path,
                f"manifest.hardware.{key} must be numeric")


def check_trace(path):
    doc = load(path)
    require(isinstance(doc, dict), path, "top level must be an object")
    check_manifest(doc, path)
    events = doc.get("traceEvents")
    require(isinstance(events, list), path, "missing traceEvents list")
    require(events, path, "traceEvents is empty")
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        require(isinstance(e, dict), path, f"{where} must be an object")
        require(e.get("ph") == "X", path, f"{where}: expected complete event")
        require(isinstance(e.get("name"), str) and e["name"], path,
                f"{where}: missing name")
        for key in ("pid", "tid", "ts", "dur"):
            require(is_num(e.get(key)), path, f"{where}: missing {key}")
        require(e["dur"] >= 0, path, f"{where}: negative duration")
    print(f"{path}: ok ({len(events)} events)")


def check_metrics(path):
    doc = load(path)
    require(isinstance(doc, dict), path, "top level must be an object")
    check_manifest(doc, path)
    for section in ("counters", "gauges", "histograms"):
        require(isinstance(doc.get(section), dict), path,
                f"missing {section} object")
    for name, v in doc["counters"].items():
        require(is_num(v), path, f"counter {name} must be numeric")
    for name, v in doc["gauges"].items():
        require(is_num(v), path, f"gauge {name} must be numeric")
    for name, h in doc["histograms"].items():
        require(isinstance(h, dict), path, f"histogram {name} not an object")
        for key in ("count", "sum", "mean", "min", "max", "p50", "p90",
                    "p99"):
            require(is_num(h.get(key)), path,
                    f"histogram {name} missing {key}")
        require(h["count"] >= 0, path, f"histogram {name}: negative count")
        if h["count"] > 0:
            require(h["min"] <= h["p50"] <= h["max"], path,
                    f"histogram {name}: p50 outside [min, max]")
    n = (len(doc["counters"]), len(doc["gauges"]), len(doc["histograms"]))
    print(f"{path}: ok ({n[0]} counters, {n[1]} gauges, {n[2]} histograms)")


def check_bench(path):
    doc = load(path)
    require(isinstance(doc, dict), path, "top level must be an object")
    require(isinstance(doc.get("bench"), str) and doc["bench"], path,
            "missing bench name")
    require(is_num(doc.get("n")), path, "missing n")
    check_manifest(doc, path)
    require(isinstance(doc.get("params"), dict), path, "missing params")
    samples = doc.get("samples")
    require(isinstance(samples, list) and samples, path,
            "missing non-empty samples list")
    # Samples may be heterogeneous (e.g. a sweep plus a one-off arm with its
    # own fields); percentiles are computed per key over the samples that
    # carry it, so each percentile key just has to appear somewhere.
    keys = set()
    for i, s in enumerate(samples):
        require(isinstance(s, dict) and s, path,
                f"samples[{i}] must be a non-empty object")
        for k, v in s.items():
            require(is_num(v), path, f"samples[{i}].{k} must be numeric")
        keys |= set(s)
    pct = doc.get("percentiles")
    require(isinstance(pct, dict), path, "missing percentiles")
    for key, entry in pct.items():
        require(key in keys, path, f"percentile key {key} not in samples")
        for p in ("p50", "p90", "max"):
            require(is_num(entry.get(p)), path,
                    f"percentiles.{key} missing {p}")
    print(f"{path}: ok ({len(samples)} samples)")


def check_health(path):
    doc = load(path)
    require(isinstance(doc, dict), path, "top level must be an object")
    check_manifest(doc, path)

    ep = doc.get("ep")
    require(isinstance(ep, dict), path, "missing ep object")
    for key in ("tolerance", "samples_per_probe", "probe_interval_rebuilds",
                "last", "max"):
        require(is_num(ep.get(key)), path, f"ep.{key} must be numeric")
    series = ep.get("series")
    require(isinstance(series, list), path, "ep.series must be a list")
    for i, p in enumerate(series):
        require(isinstance(p, dict) and is_num(p.get("step"))
                and is_num(p.get("ep")), path,
                f"ep.series[{i}] must carry step and ep")

    cov = doc.get("covariance")
    require(isinstance(cov, dict), path, "missing covariance object")
    for key in ("tolerance", "last", "max"):
        require(is_num(cov.get(key)), path,
                f"covariance.{key} must be numeric")
    cseries = cov.get("series")
    require(isinstance(cseries, list), path,
            "covariance.series must be a list")
    for i, p in enumerate(cseries):
        require(isinstance(p, dict) and is_num(p.get("step"))
                and is_num(p.get("error")), path,
                f"covariance.series[{i}] must carry step and error")

    krylov = doc.get("krylov")
    require(isinstance(krylov, dict), path, "missing krylov object")
    for key in ("updates", "iterations_total", "iterations_max",
                "nonconverged"):
        require(is_num(krylov.get(key)), path,
                f"krylov.{key} must be numeric")
    kseries = krylov.get("series")
    require(isinstance(kseries, list), path, "krylov.series must be a list")
    for i, u in enumerate(kseries):
        require(isinstance(u, dict), path,
                f"krylov.series[{i}] must be an object")
        for key in ("step", "iterations", "relative_change"):
            require(is_num(u.get(key)), path,
                    f"krylov.series[{i}].{key} must be numeric")
        require(isinstance(u.get("converged"), bool), path,
                f"krylov.series[{i}].converged must be a bool")

    events = doc.get("events")
    require(isinstance(events, list), path, "events must be a list")
    for i, e in enumerate(events):
        require(isinstance(e, dict), path, f"events[{i}] must be an object")
        require(e.get("severity") in ("info", "warning", "error"), path,
                f"events[{i}]: bad severity")
        for key in ("step", "value", "threshold"):
            require(is_num(e.get(key)), path,
                    f"events[{i}].{key} must be numeric")
        for key in ("phase", "message"):
            require(isinstance(e.get(key), str), path,
                    f"events[{i}].{key} must be a string")
    print(f"{path}: ok ({len(series)} probes, {len(kseries)} krylov "
          f"updates, {len(events)} events)")


STREAM_PHASES = ("spreading", "fft", "influence", "ifft", "interpolation",
                 "realspace", "wave_sample")


def check_hex(value, path, what):
    require(isinstance(value, str), path, f"{what} must be a hex string")
    body = value[2:] if value.startswith("0x") else value
    require(body and len(body) <= 16
            and all(c in "0123456789abcdefABCDEF" for c in body),
            path, f"{what}: malformed hex {value!r}")


def check_stream(path):
    """NDJSON produced by HBD_STREAM (docs/observability.md, layer 5)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        fail(path, f"not readable: {exc}")
    require(lines, path, "stream file is empty")
    try:
        docs = [json.loads(ln) for ln in lines]
    except json.JSONDecodeError as exc:
        fail(path, f"line is not valid JSON: {exc}")

    header = docs[0]
    require(header.get("schema") == "hbd.stream.v1", path,
            "header schema must be hbd.stream.v1")
    require(header.get("kind") == "header", path,
            "first line must be the header")
    require(is_num(header.get("interval")) and header["interval"] >= 1, path,
            "header.interval must be >= 1")
    check_manifest(header, path, pin_tier=False)

    next_step = None
    steps_total = 0
    for i, w in enumerate(docs[1:], start=1):
        where = f"line {i + 1}"
        require(w.get("schema") == "hbd.stream.v1"
                and w.get("kind") == "window", path,
                f"{where}: expected an hbd.stream.v1 window")
        require(w.get("window") == i - 1, path,
                f"{where}: window index must be {i - 1}")
        for key in ("step_first", "step_last", "steps", "krylov_iters",
                    "rebuilds", "rebuild_fraction", "e_p", "rng_draws",
                    "dropped", "tier"):
            require(is_num(w.get(key)), path, f"{where}: {key} not numeric")
        require(w["tier"] == -1 or (0 <= w["tier"] < len(MOBILITY_TIERS)),
                path, f"{where}: tier must be -1 or a tier index")
        first, last, steps = w["step_first"], w["step_last"], w["steps"]
        require(last - first + 1 == steps, path,
                f"{where}: steps != step range")
        require(1 <= steps <= header["interval"], path,
                f"{where}: window holds {steps} steps")
        if next_step is not None:
            require(first == next_step, path,
                    f"{where}: windows not contiguous at step {first}")
        next_step = last + 1
        steps_total += steps
        wall = w.get("wall")
        require(isinstance(wall, dict), path, f"{where}: missing wall")
        for key in ("sum", "min", "max"):
            require(is_num(wall.get(key)), path,
                    f"{where}: wall.{key} not numeric")
        require(wall["min"] <= wall["max"] <= wall["sum"] + 1e-300, path,
                f"{where}: wall aggregates inconsistent")
        phases = w.get("phases")
        require(isinstance(phases, dict), path, f"{where}: missing phases")
        for name in STREAM_PHASES:
            require(is_num(phases.get(name)), path,
                    f"{where}: phases.{name} not numeric")
        require(w["dropped"] >= 0, path, f"{where}: negative dropped count")
    require(steps_total > 0, path, "no window lines after the header")
    if EXPECTED_TIER is not None:
        # The header manifest records the tier at stream-open; the windows
        # carry the live tier, so the steady state is what gets pinned.
        last_tier = docs[-1]["tier"]
        want = MOBILITY_TIERS.index(EXPECTED_TIER)
        require(last_tier == want, path,
                f"last window tier is {last_tier}, expected {want} "
                f"({EXPECTED_TIER!r}, --require-tier)")
    print(f"{path}: ok ({len(docs) - 1} windows, {steps_total} steps)")


def check_flight(path):
    """hbd.flight.v1 post-mortem bundle (docs/observability.md, layer 6)."""
    doc = load(path)
    require(isinstance(doc, dict), path, "top level must be an object")
    require(doc.get("schema") == "hbd.flight.v1", path,
            "schema must be hbd.flight.v1")
    check_manifest(doc, path)

    snap = doc.get("snapshot")
    require(isinstance(snap, dict), path, "missing snapshot object")
    require(is_num(snap.get("step")), path, "snapshot.step must be numeric")
    check_hex(snap.get("skin"), path, "snapshot.skin")
    positions = snap.get("positions")
    require(isinstance(positions, list) and len(positions) % 3 == 0, path,
            "snapshot.positions must be a 3n array")
    for i, p in enumerate(positions):
        check_hex(p, path, f"snapshot.positions[{i}]")
    for stream in ("rng_trajectory", "rng_wavespace"):
        state = snap.get(stream)
        require(isinstance(state, dict), path,
                f"snapshot.{stream} must be an object")
        words = state.get("s")
        require(isinstance(words, list) and len(words) == 4, path,
                f"snapshot.{stream}.s must hold 4 words")
        for w in words:
            check_hex(w, path, f"snapshot.{stream}.s word")
        check_hex(state.get("cached_gaussian"), path,
                  f"snapshot.{stream}.cached_gaussian")
        require(isinstance(state.get("has_cached"), bool), path,
                f"snapshot.{stream}.has_cached must be a bool")
        require(is_num(state.get("draws")) and state["draws"] >= 0, path,
                f"snapshot.{stream}.draws must be >= 0")

    records = doc.get("records")
    require(isinstance(records, list), path, "missing records list")
    last = None
    for i, rec in enumerate(records):
        where = f"records[{i}]"
        require(isinstance(rec, dict), path, f"{where} must be an object")
        require(is_num(rec.get("step")), path, f"{where}: missing step")
        check_hex(rec.get("pos_hash"), path, f"{where}.pos_hash")
        check_hex(rec.get("force_hash"), path, f"{where}.force_hash")
        require(isinstance(rec.get("rebuilt"), bool), path,
                f"{where}.rebuilt must be a bool")
        if last is not None:
            require(rec["step"] == last + 1, path,
                    f"{where}: records not contiguous")
        last = rec["step"]

    replay = doc.get("replay")
    require(isinstance(replay, dict), path, "missing replay section")
    for section in ("strings", "numbers"):
        require(isinstance(replay.get(section), dict), path,
                f"replay.{section} must be an object")
    failure = doc.get("failure")
    if failure is not None:
        require(isinstance(failure, dict), path,
                "failure must be an object")
        require(isinstance(failure.get("phase"), str) and failure["phase"],
                path, "failure.phase must be a non-empty string")
        require(is_num(failure.get("step")), path,
                "failure.step must be numeric")
    verdict = "with failure" if failure else "no failure"
    print(f"{path}: ok ({len(records)} records, {len(positions) // 3} "
          f"particles, {verdict})")


def check_prom(path):
    """Prometheus text exposition format 0.0.4 lint (GET /metrics dump)."""
    import re
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        fail(path, f"not readable: {exc}")
    name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
    le_re = re.compile(r'le="([^"]*)"')
    typed = {}
    samples = 0
    hist_buckets = {}  # histogram family -> list of (le, cumulative)
    hist_parts = {}    # histogram family -> set of seen suffixes
    for i, line in enumerate(lines):
        where = f"line {i + 1}"
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            require(len(parts) == 4, path, f"{where}: malformed TYPE line")
            _, _, name, kind = parts
            require(name_re.match(name), path,
                    f"{where}: bad family name {name!r}")
            require(kind in ("counter", "gauge", "summary", "histogram",
                             "untyped"), path,
                    f"{where}: unknown family type {kind!r}")
            require(name not in typed, path,
                    f"{where}: duplicate TYPE for {name}")
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        m = sample_re.match(line)
        require(m, path, f"{where}: unparseable sample {line!r}")
        name = m.group(1)
        family = name
        for suffix in ("_sum", "_count", "_bucket"):
            if family.endswith(suffix) and family[:-len(suffix)] in typed:
                family = family[:-len(suffix)]
                break
        require(family in typed, path,
                f"{where}: sample {name} has no TYPE line")
        if typed[family] == "counter":
            require(family.endswith("_total"), path,
                    f"{where}: counter {family} lacks the _total suffix")
        value = m.group(3)
        require(value in ("NaN", "+Inf", "-Inf")
                or _is_float(value), path,
                f"{where}: bad sample value {value!r}")
        if typed[family] == "histogram" and name != family:
            suffix = name[len(family):]
            hist_parts.setdefault(family, set()).add(suffix)
            if suffix == "_bucket":
                le = le_re.search(m.group(2) or "")
                require(le, path,
                        f"{where}: histogram bucket without an le label")
                bound = (float("inf") if le.group(1) == "+Inf"
                         else float(le.group(1)))
                hist_buckets.setdefault(family, []).append(
                    (bound, float(value)))
        samples += 1
    require(samples > 0, path, "no samples")
    require("hbd_build_info" in typed, path, "missing hbd_build_info gauge")
    histograms = [f for f, kind in typed.items() if kind == "histogram"]
    for family in histograms:
        parts = hist_parts.get(family, set())
        for suffix in ("_bucket", "_sum", "_count"):
            require(suffix in parts, path,
                    f"histogram {family} missing {suffix} series")
        buckets = hist_buckets[family]
        require(buckets[-1][0] == float("inf"), path,
                f"histogram {family}: final bucket must be le=\"+Inf\"")
        for (lo_le, lo), (hi_le, hi) in zip(buckets, buckets[1:]):
            require(lo_le < hi_le, path,
                    f"histogram {family}: le bounds not increasing")
            require(lo <= hi, path,
                    f"histogram {family}: cumulative counts decrease")
    print(f"{path}: ok ({len(typed)} families, {samples} samples, "
          f"{len(histograms)} native histograms)")


def _is_float(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="append", default=[],
                        help="Chrome trace_event JSON file")
    parser.add_argument("--metrics", action="append", default=[],
                        help="metrics registry JSON file")
    parser.add_argument("--bench", action="append", default=[],
                        help="BENCH_*.json benchmark report")
    parser.add_argument("--health", action="append", default=[],
                        help="HBD_HEALTH JSON report")
    parser.add_argument("--stream", action="append", default=[],
                        help="HBD_STREAM NDJSON time-series file")
    parser.add_argument("--flight", action="append", default=[],
                        help="HBD_FLIGHT post-mortem bundle")
    parser.add_argument("--prom", action="append", default=[],
                        help="saved GET /metrics Prometheus text dump")
    parser.add_argument("--require-tier", choices=MOBILITY_TIERS,
                        default=None,
                        help="require every manifest's active mobility tier "
                             "to be this tier")
    args = parser.parse_args()
    global EXPECTED_TIER
    EXPECTED_TIER = args.require_tier
    if not (args.trace or args.metrics or args.bench or args.health
            or args.stream or args.flight or args.prom):
        parser.error("nothing to check")
    for path in args.trace:
        check_trace(path)
    for path in args.metrics:
        check_metrics(path)
    for path in args.bench:
        check_bench(path)
    for path in args.health:
        check_health(path)
    for path in args.stream:
        check_stream(path)
    for path in args.flight:
        check_flight(path)
    for path in args.prom:
        check_prom(path)


if __name__ == "__main__":
    main()
