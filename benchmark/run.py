#!/usr/bin/env python3
"""The Ragnar simulator benchmark: builds ragnar_perf and runs its workloads.

One workload, one result line (what an automated harness calls):

    python3 benchmark/run.py --workload p2p_read --seed 7 --seconds 12 --trace 0

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.

Every workload, each in its own process:

    python3 benchmark/run.py [--reps R] [--seconds S] [--order forward|reverse]
                             [--sets K] [--trace 1] [--smoke] [--out FILE]

prints one `workload metric value unit` line per metric (value is the
median; iqr and sample count follow the #), checks that cloud_read_par and
cloud_read_serial simulate the same outputs, and with --out writes every
sample set to a results JSON.  --sets 2 runs two full sets in alternating
order and prints each end-to-end metric's spread between the sets next to
its bound.  Exits non-zero when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")
DRIVER = os.path.join(BUILD, "ragnar_perf")
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures build-bench on first use and (re)builds the driver."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources at " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "ragnar_perf",
                  "-j", str(min(4, nproc()))])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for results.
        subprocess.run(cmd, stdout=sys.stderr, check=True, env=env,
                       timeout=BUILD_TIMEOUT_S)


def run_driver(workload, seed, reps, seconds, trace_path, smoke):
    """Runs one workload in its own process; returns (exit code, report)."""
    cmd = [DRIVER, workload, "--seed", str(seed)]
    if reps is not None:
        cmd += ["--reps", str(reps)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace_path:
        cmd += ["--trace", trace_path]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    return proc.returncode, report


def summarize(values):
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def e2e_metrics(report):
    samples = report["samples"]
    return {
        "wall_s": summarize(samples["wall_s"]),
        "ops_per_s": summarize(samples["ops_per_s"]),
        "setup_s": summarize(samples["setup_s"]),
        "peak_rss_mb": summarize([report["peak_rss_mb"]]),
    }


def layer_metrics(report, spec):
    layers = report["layers"]
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        raise RuntimeError("driver did not report " + ", ".join(missing))
    return {m["name"]: summarize(layers[m["name"]]) for m in spec["per_layer"]}


def check_report(workload, rc, report):
    """Problems with one driver run; empty when every check passed."""
    if report is None:
        return ["%s: driver exited %d without a report" % (workload, rc)]
    problems = ["%s: check %s failed" % (workload, name)
                for name, ok in report["checks"].items() if not ok]
    problems += ["%s: %s" % (workload, v) for v in report["violations"]]
    if rc != 0 and not problems:
        problems.append("%s: driver exited %d" % (workload, rc))
    return problems


def trace_file(workload):
    return os.path.join(BUILD, "trace-%s.json" % workload)


def contract_run(args, spec):
    """One workload; the last stdout line is the result object."""
    trace = args.trace == 1
    reps = args.reps if args.reps is not None else (1 if trace else 3)
    rc, report = run_driver(args.workload, args.seed, reps, args.seconds,
                            trace_file(args.workload) if trace else None,
                            args.smoke)
    problems = check_report(args.workload, rc, report)
    for p in problems:
        log(p)
    if report is None:
        return 1
    if trace:
        metrics = layer_metrics(report, spec)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = e2e_metrics(report)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name]["median"], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not problems else 1


def run_set(args, spec, order):
    """Every workload once, in `order`; returns (results, problems)."""
    results, problems = {}, []
    for name in order:
        t0 = time.monotonic()
        rc, report = run_driver(name, args.seed, args.reps, args.seconds,
                                trace_file(name) if args.trace else None,
                                args.smoke)
        log("[run] %s exit=%d in %.1f s" % (name, rc, time.monotonic() - t0))
        problems += check_report(name, rc, report)
        if report is None:
            continue
        entry = {"digest": report["digest"], "outputs": report["outputs"],
                 "attempted": report["attempted"], "failed": report["failed"],
                 "metrics": e2e_metrics(report)}
        if args.trace:
            entry["layers"] = layer_metrics(report, spec)
        results[name] = entry
    par, ser = results.get("cloud_read_par"), results.get("cloud_read_serial")
    if par and ser and par["digest"] != ser["digest"]:
        problems.append("cloud_read_par and cloud_read_serial digests differ")
    return results, problems


def print_set(results, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, entry in results.items():
        shown = dict(entry["metrics"])
        shown.update(entry.get("layers", {}))
        for metric, s in shown.items():
            print("%s %s %.6g %s  # iqr %.3g n %d"
                  % (name, metric, s["median"], units[metric], s["iqr"], s["n"]))
        print("%s op_fail_ratio %.6g ratio"
              % (name, entry["failed"] / max(1, entry["attempted"])))


def print_spread(sets, spec, order):
    """Each end-to-end metric's drift between the first two sets."""
    print("\nspread between sets (|median 2 - median 1| / median 1) vs bound:")
    worst_ok = True
    for name in order:
        for m in spec["end_to_end"]:
            meds = [s[name]["metrics"][m["name"]]["median"] for s in sets
                    if name in s]
            if len(meds) < 2:
                continue
            drift = abs(meds[1] - meds[0]) / meds[0]
            ok = drift <= m["bound"]
            worst_ok = worst_ok and ok
            print("%-18s %-12s %8.2f%%  bound %5.1f%%  %s"
                  % (name, m["name"], 100 * drift, 100 * m["bound"],
                     "ok" if ok else "OVER"))
    return worst_ok


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def full_run(args, spec):
    order = [w["name"] for w in spec["workloads"]]
    if args.order == "reverse":
        order.reverse()
    sets, problems = [], []
    for k in range(args.sets):
        set_order = order if k % 2 == 0 else list(reversed(order))
        if args.sets > 1:
            print("\n== set %d (%s) ==" % (k + 1, " ".join(set_order)),
                  flush=True)
        results, set_problems = run_set(args, spec, set_order)
        sets.append(results)
        problems += set_problems
        print_set(results, spec)
    spread_ok = print_spread(sets, spec, order) if args.sets > 1 else True
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"git_sha": git_sha(), "seed": args.seed, "nproc": nproc(),
                       "reps": args.reps, "seconds": args.seconds,
                       "smoke": args.smoke, "order": order, "sets": sets},
                      f, indent=1)
    for p in problems:
        log("CHECK FAILED " + p)
    if not spread_ok:
        log("a metric drifted past its bound between sets")
    print("checks: %s" % ("all passed" if not problems else
                          "%d failed" % len(problems)))
    return 0 if not problems and spread_ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--reps", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--order", choices=["forward", "reverse"], default="forward")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    for flag in ("seed", "seconds", "reps"):
        v = getattr(args, flag)
        if v is not None and v < (1 if flag == "reps" else 0):
            ap.error("--%s out of range" % flag)
    if args.sets < 1:
        ap.error("--sets must be at least 1")
    if args.smoke:
        args.reps = 1
    try:
        build()
        if args.workload:
            return contract_run(args, spec)
        return full_run(args, spec)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
