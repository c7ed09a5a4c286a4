#!/usr/bin/env python3
"""Orchestration around the benchmark binary: run sets of workloads, keep
their results, and hold them to the bounds in BENCHMARK.json.

Measurement lives in the Rust binary; this file only launches it, reads
the one-line JSON results, and does the statistics the way the driver
does (`statistics.quantiles(values, n=4)`). Run through `run.sh`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 11
# Per-layer metrics that are held like end-to-end ones. The contract of
# BENCHMARK.json has every workload report every end-to-end metric, so what
# exists only on some workloads is per-layer there, without a bound; the
# bounds the issue gave them live here. A bound of 0 means the number is a
# count that repeats exactly for a seed and may not worsen at all.
HELD_PER_LAYER = {
    "bmac.wire_bytes_per_tx": 0.0,
    "store.disk_bytes_per_tx": 0.0,
    "crypto.verifications_per_tx": 0.0,
    "store.open_s": 0.15,
    "statedb.reads_per_s": 0.10,
}
# (section of a result, metric, its BENCHMARK.json entry with a bound)
HELD = [("end_to_end", m["name"], m) for m in SPEC["end_to_end"]] + [
    ("per_layer", m["name"], dict(m, bound=HELD_PER_LAYER[m["name"]]))
    for m in SPEC["per_layer"] if m["name"] in HELD_PER_LAYER]


def output_of(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def host_fingerprint(binary):
    """Who measured: the two host numbers come with each traced result;
    compiler and commit are recorded here."""
    return {
        "cpus": os.cpu_count(),
        "rustc": output_of(["rustc", "--version"]) or "unknown",
        "commit": output_of(["git", "rev-parse", "HEAD"]) or "unknown",
        "binary": binary,
    }


def run_once(binary, workload, seed, trace, smoke):
    """One invocation, in the form the driver uses. Its report goes to our
    stderr as it comes; its last stdout line is the result."""
    seconds = 2 if smoke else SPEC["run_seconds"]
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload}: no result (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        print(f"FAILED: {workload} seed {seed}: exit {proc.returncode}, correct "
              f"{result['correct']}, failed {result['failed']} of {result['attempted']}",
              file=sys.stderr)
        result["correct"] = False
    return result


def run_set(binary, seed, smoke, untraced=True, traced=True):
    workloads = {}
    for name in WORKLOADS:
        entry = {}
        if untraced:
            r = run_once(binary, name, seed, False, smoke)
            entry.update(correct=r["correct"], attempted=r["attempted"], failed=r["failed"],
                         end_to_end={k: v["value"] for k, v in r["metrics"].items()})
        if traced:
            r = run_once(binary, name, seed, True, smoke)
            entry["correct"] = entry.get("correct", True) and r["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in r["metrics"].items()}
        workloads[name] = entry
    return {"seed": seed, "workloads": workloads}


def save(out_dir, host, runs):
    path = os.path.join(out_dir, f"results-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump({"host": host, "runs": runs}, f, indent=1)
    print(f"results written to {path}", file=sys.stderr)


def all_correct(runs):
    return all(w["correct"] for run in runs for w in run["workloads"].values())


def values_of(runs, workload, section, metric):
    """The metric's value in every run that has it. A per-layer 0 is a layer
    the workload does not exercise, not a value."""
    values = [run["workloads"][workload].get(section, {}).get(metric) for run in runs]
    return [v for v in values if v is not None and (v or section == "end_to_end")]


def spread(values):
    """Distance between the quartiles over the median, as the driver takes
    it; with fewer than four values, the whole range over the median."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(spec, base, other):
    """Share of `base` by which `other` is worse (negative: better)."""
    change = (other - base) / base
    return change if spec["better"] == "lower" else -change


def cmd_run(args):
    runs = [run_set(args.bin, DEFAULT_SEED, args.smoke, untraced=not args.traced_only)]
    if not args.smoke:
        save(args.out, host_fingerprint(args.bin), runs)
    for name, w in runs[0]["workloads"].items():
        print(f"{name}: {'correct' if w['correct'] else 'INCORRECT'}")
        for section in ("end_to_end", "per_layer"):
            for metric, value in w.get(section, {}).items():
                # A per-layer 0 is a layer the workload does not exercise.
                if value or section == "end_to_end":
                    print(f"  {metric:<34} {value:>18.6f}")
    return 0 if all_correct(runs) else 1


def cmd_repeat(args):
    # One seed, so that counts must repeat exactly and the spread is that of
    # the host and not of the inputs.
    runs = [run_set(args.bin, DEFAULT_SEED, False) for _ in range(args.sets)]
    save(args.out, host_fingerprint(args.bin), runs)
    ok = all_correct(runs)
    print(f"{'workload':<22}{'metric':<30}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}")
    for name in WORKLOADS:
        for section, metric, spec in HELD:
            v = values_of(runs, name, section, metric)
            if not v:
                continue
            q1, q3 = (statistics.quantiles(v, n=4)[::2] if len(v) >= 4 else (min(v), max(v)))
            s = spread(v)
            if metric == "setup_s":
                # Like the driver, set-up time is held to its median only.
                verdict = ""
            elif spec["bound"] == 0:
                verdict = "" if min(v) == max(v) else "  NOT EXACT"
            else:
                verdict = "" if s <= spec["bound"] else "  BEYOND BOUND"
            ok &= not verdict
            print(f"{name:<22}{metric:<30}{statistics.median(v):>14.4f}{q1:>14.4f}{q3:>14.4f}"
                  f"{s:>9.3f}{spec['bound']:>7.2f}{verdict}")
    return 0 if ok else 1


def cmd_compare(args):
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    print(f"a: {a['host']}\nb: {b['host']}")
    ok = all_correct(a["runs"]) and all_correct(b["runs"])
    print(f"{'workload':<22}{'metric':<30}{'a median':>14}{'b median':>14}{'worse by':>10}{'bound':>7}")
    for name in WORKLOADS:
        for section, metric, spec in HELD:
            va = values_of(a["runs"], name, section, metric)
            vb = values_of(b["runs"], name, section, metric)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = worsening(spec, ma, mb)
            noise = max(spread(va), spread(vb))
            if worse <= spec["bound"]:
                verdict = ""
            elif noise > spec["bound"]:
                verdict = "  UNRESOLVED (spread beyond bound)"
            else:
                verdict = "  REGRESSION"
            ok &= not verdict
            print(f"{name:<22}{metric:<30}{ma:>14.4f}{mb:>14.4f}{worse:>10.3f}"
                  f"{spec['bound']:>7.2f}{verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "repeat"):
        p = sub.add_parser(name)
        p.add_argument("--bin", required=True)
        p.add_argument("--out", required=True)
    sub.choices["run"].add_argument("--smoke", action="store_true")
    sub.choices["run"].add_argument("--traced-only", action="store_true")
    sub.choices["repeat"].add_argument("--sets", type=int, required=True)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    return {"run": cmd_run, "repeat": cmd_repeat, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
