#!/usr/bin/env python3
"""Schema validator for the machine-readable bench outputs in bench_out/.

CI's perf gates are schema + coverage, never absolute speed: shared runners
are too noisy for wall-clock assertions, but an empty or malformed JSON
means the perf trajectory silently broke. Two formats are understood,
dispatched on the top-level tag:

  * BENCH_throughput.json  ({"bench": "throughput", "version": 1 or 2, ...})
    written by bench/throughput.cpp. Version 2 adds the per-result "bundle"
    interleave width (the latency-bound tier sweeps it; matrix rows carry
    bundle = 1) and requires at least two distinct widths so the
    latency-hiding tier cannot silently drop out of the artifact;
  * SWEEP_<name>.json      ({"sweep": <name>, "version": 1, 2 or 3, ...})
    written by src/sweep/report.cpp for every sweep bench. Version 2 adds
    the adaptive-trials fields (top-level "max_trials"/"ci_rel_target",
    per-series "trials_used"/"ci_rel_width"); version 3 adds the scheduler
    observability fields (top-level "pin", "unit_count",
    "unit_seconds_min"/"unit_seconds_max", "timeline_bucket_seconds", and
    the per-thread "thread_timeline" throughput-over-time series). Older
    version 1/2 files from existing artifacts are still accepted. Top-level
    keys no version requires are ignored, so files that still carry the
    flag of the sweep's former independent-graphs mode keep passing.

Usage: validate_bench_json.py FILE [FILE...]
       validate_bench_json.py --self-test
Exits non-zero (with a per-file message) on the first violation.

--self-test validates embedded sample documents (one per accepted format,
including the PCF dynamic-graph sweep shape with censored/uncovered trials)
and checks that representative corruptions of each are rejected. ctest runs
it so validator drift fails tier-1, not just the perf-smoke job that feeds
the validator real artifacts.
"""
import copy
import json
import sys


def fail(path, message):
    raise SystemExit(f"{path}: {message}")


def validate_throughput(path, d):
    version = d.get("version")
    if version not in (1, 2):
        fail(path, f"unexpected version {version}")
    results = d.get("results", [])
    if len(results) < 12:
        fail(path, f"only {len(results)} (process, family) pairs, need >= 12")
    keys = ["process", "graph", "n", "m", "steps", "seconds", "steps_per_sec"]
    if version >= 2:
        keys.append("bundle")
    for r in results:
        for key in keys:
            if key not in r:
                fail(path, f"result missing {key}: {r}")
        if not (r["steps"] > 0 and r["steps_per_sec"] > 0):
            fail(path, f"non-positive steps or rate: {r}")
        if version >= 2 and not (isinstance(r["bundle"], int)
                                 and r["bundle"] >= 1):
            fail(path, f"bad bundle width: {r}")
    if version >= 2:
        widths = sorted({r["bundle"] for r in results})
        if len(widths) < 2:
            fail(path, f"latency tier missing: only bundle widths {widths}, "
                       "need a sweep over >= 2 widths")
        print(f"{path}: OK ({len(results)} pairs, bundle widths {widths})")
    else:
        print(f"{path}: OK ({len(results)} (process, family) pairs)")


def validate_sweep(path, d):
    version = d.get("version")
    if version not in (1, 2, 3):
        fail(path, f"unexpected version {version}")
    required = ["sweep", "seed", "trials", "threads",
                "gen_seconds", "walk_seconds", "wall_seconds", "points"]
    if version >= 2:
        required += ["max_trials", "ci_rel_target"]
    if version >= 3:
        required += ["pin", "unit_count", "unit_seconds_min",
                     "unit_seconds_max", "timeline_bucket_seconds",
                     "thread_timeline"]
    for key in required:
        if key not in d:
            fail(path, f"missing top-level {key}")
    if version >= 3:
        if not isinstance(d["pin"], bool):
            fail(path, f"pin is not a bool: {d['pin']!r}")
        if not (0 <= d["unit_seconds_min"] <= d["unit_seconds_max"]):
            fail(path, "unit_seconds_min/max out of order or negative")
        if d["timeline_bucket_seconds"] <= 0:
            fail(path, f"bad timeline_bucket_seconds: "
                       f"{d['timeline_bucket_seconds']!r}")
        timeline = d["thread_timeline"]
        if not isinstance(timeline, list) or not timeline:
            fail(path, "thread_timeline missing or empty")
        buckets = None
        for entry in timeline:
            for key in ("thread", "busy_seconds", "units"):
                if key not in entry:
                    fail(path, f"thread_timeline entry missing {key}")
            if len(entry["busy_seconds"]) != len(entry["units"]):
                fail(path, f"thread {entry['thread']}: busy_seconds and "
                           "units lengths differ")
            if buckets is None:
                buckets = len(entry["busy_seconds"])
            elif len(entry["busy_seconds"]) != buckets:
                fail(path, f"thread {entry['thread']}: inconsistent bucket "
                           "count across threads")
            if any(b < 0 for b in entry["busy_seconds"]):
                fail(path, f"thread {entry['thread']}: negative busy_seconds")
    trials = d["trials"]
    if not (isinstance(trials, int) and trials > 0):
        fail(path, f"bad trials: {trials!r}")
    max_trials = d.get("max_trials", 0)
    adaptive = version >= 2 and max_trials > 0
    cap = max(max_trials, trials) if adaptive else trials
    if adaptive and not (0 < d["ci_rel_target"] < 1):
        fail(path, f"bad ci_rel_target: {d['ci_rel_target']!r}")
    points = d["points"]
    if not points:
        fail(path, "empty points array")
    param_names = None
    for point in points:
        for key in ("label", "params", "series", "gen_seconds"):
            if key not in point:
                fail(path, f"point missing {key}: {point.get('label')}")
        names = sorted(point["params"])
        if param_names is None:
            param_names = names
        elif names != param_names:
            fail(path, f"inconsistent param names at {point['label']}: "
                       f"{names} vs {param_names}")
        if not point["series"]:
            fail(path, f"point {point['label']} has no series")
        for series in point["series"]:
            keys = ["name", "mean", "ci95", "median", "min", "max",
                    "uncovered_trials", "walk_seconds", "samples"]
            if version >= 2:
                keys += ["trials_used", "ci_rel_width"]
            for key in keys:
                if key not in series:
                    fail(path, f"series missing {key} at {point['label']}")
            used = series.get("trials_used", trials)
            if not (trials <= used <= cap):
                fail(path, f"{point['label']}/{series['name']}: "
                           f"trials_used {used} outside [{trials}, {cap}]")
            if not adaptive and used != trials:
                fail(path, f"{point['label']}/{series['name']}: "
                           f"trials_used {used} != trials in fixed mode")
            if len(series["samples"]) != used:
                fail(path, f"{point['label']}/{series['name']}: "
                           f"{len(series['samples'])} samples, want {used}")
            if not (series["min"] <= series["median"] <= series["max"]):
                fail(path, f"{point['label']}/{series['name']}: "
                           "min/median/max out of order")
            if series["uncovered_trials"] > used:
                fail(path, f"{point['label']}/{series['name']}: "
                           "uncovered_trials exceeds trials_used")
            if version >= 2 and series["ci_rel_width"] < 0:
                fail(path, f"{point['label']}/{series['name']}: "
                           "negative ci_rel_width")
    n_series = sum(len(p["series"]) for p in points)
    mode = f"adaptive cap {cap}" if adaptive else f"{trials} trials/point"
    print(f"{path}: OK ({len(points)} points, {n_series} series, {mode})")


# ---- Self-test -------------------------------------------------------------
#
# Embedded minimal-but-valid documents for each accepted format. The sweep
# sample mirrors the PCF dynamic-graph scenario (bench/pcf_cover.cpp): an
# extra non-n sweep parameter (alpha) and censored trials reported through
# uncovered_trials, both of which the validator must keep accepting.

def _sample_throughput():
    results = []
    for i in range(6):
        for bundle in (1, 8):
            results.append({"process": f"proc{i}", "graph": "regular",
                            "n": 1000, "m": 2000, "steps": 10000 + i,
                            "seconds": 0.5, "steps_per_sec": 2.0e4,
                            "bundle": bundle})
    return {"bench": "throughput", "version": 2, "results": results}


def _sample_sweep():
    def series(name, uncovered):
        return {"name": name, "mean": 5.0e5, "ci95": 1.0e4, "median": 4.8e5,
                "min": 4.0e5, "max": 7.4e6, "uncovered_trials": uncovered,
                "walk_seconds": 1.25, "samples": [4.0e5, 4.8e5, 7.4e6],
                "trials_used": 3, "ci_rel_width": 0.02}

    points = []
    for n, alpha in ((1000, 0.001), (1000, 0.01), (2000, 0.001)):
        points.append({"label": f"n={n} alpha={alpha}",
                       "params": {"n": n, "alpha": alpha, "r": 4},
                       "gen_seconds": 0.1,
                       "series": [series("pcf-eprocess", 1),
                                  series("pcf-srw", 2)]})
    return {"sweep": "pcf", "version": 3, "points": points, "seed": 1, "trials": 3,
            "threads": 4, "gen_seconds": 0.3,
            "walk_seconds": 7.5, "wall_seconds": 2.1, "max_trials": 0,
            "ci_rel_target": 0.05, "pin": False, "unit_count": 18,
            "unit_seconds_min": 0.01, "unit_seconds_max": 0.9,
            "timeline_bucket_seconds": 0.25,
            "thread_timeline": [
                {"thread": t, "busy_seconds": [0.2, 0.25, 0.1],
                 "units": [3, 4, 2]} for t in range(4)]}


def _expect_fail(doc, validator, label):
    try:
        validator("<self-test>", doc)
    except SystemExit:
        return
    raise SystemExit(f"self-test: corruption not rejected: {label}")


def self_test():
    validate_throughput("<throughput sample>", _sample_throughput())
    validate_sweep("<pcf sweep sample>", _sample_sweep())
    for version in (1, 2, 3):
        d = _sample_sweep()
        d["version"] = version
        d["legacy_flag"] = True  # a key older writers emitted, now dropped
        validate_sweep(f"<v{version} sweep sample with a legacy key>", d)

    d = _sample_throughput()
    d["results"][0]["steps"] = 0
    _expect_fail(d, validate_throughput, "throughput: zero steps")

    d = _sample_throughput()
    for r in d["results"]:
        r["bundle"] = 1
    _expect_fail(d, validate_throughput, "throughput: single bundle width")

    base = _sample_sweep()
    d = copy.deepcopy(base)
    s = d["points"][0]["series"][0]
    s["median"] = s["max"] + 1
    _expect_fail(d, validate_sweep, "sweep: min/median/max out of order")

    d = copy.deepcopy(base)
    del d["points"][1]["series"][0]["samples"]
    _expect_fail(d, validate_sweep, "sweep: missing samples")

    d = copy.deepcopy(base)
    del d["points"][2]["params"]["alpha"]
    _expect_fail(d, validate_sweep, "sweep: inconsistent param names")

    d = copy.deepcopy(base)
    s = d["points"][0]["series"][1]
    s["uncovered_trials"] = s["trials_used"] + 1
    _expect_fail(d, validate_sweep, "sweep: uncovered > trials_used")

    print("self-test OK (2 formats and 3 legacy sweeps accepted, "
          "6 corruptions rejected)")


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__)
    if argv[1] == "--self-test":
        if len(argv) != 2:
            raise SystemExit("--self-test takes no further arguments")
        self_test()
        return
    for path in argv[1:]:
        with open(path) as f:
            d = json.load(f)
        if d.get("bench") == "throughput":
            validate_throughput(path, d)
        elif "sweep" in d:
            validate_sweep(path, d)
        else:
            fail(path, "neither a throughput nor a sweep JSON")


if __name__ == "__main__":
    main(sys.argv)
