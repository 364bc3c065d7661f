#!/usr/bin/env python3
"""rotind benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload ed-mem --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) into .bench_build/perfbench, writes the workload's seeded
inputs in one process, and runs the workload in another, so generating the
inputs never counts toward the workload's peak RSS. It prints a table of
every metric with its unit and sample count, then the run context, and as
the last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, and the span
file goes to .bench_build/traces/. Exit code 0 means every checked answer
was right; any wrong answer exits 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ed-mem", "serve-rw")

# Layers that do work on each workload; a traced run reports per-layer
# metrics of these layers and of no other (checked by --selftest).
LAYERS = {
    "ed-mem": {"io", "core", "fourier", "simd", "envelope", "search", "obs"},
    "serve-rw": {"io", "index", "storage", "serve", "simd", "envelope",
                 "search", "obs"},
}
END_TO_END_LAYERLESS = {"setup_s", "qps", "p50_ms", "p95_ms", "peak_rss_mb"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base)


def child_env():
    """Keeps compiler and program temporaries inside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(deadline_s=600):
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("rotind sources (src/) not found next to perfbench/")
        return None
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    start = time.monotonic()
    for cmd in steps:
        left = deadline_s - (time.monotonic() - start)
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=left)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build failed: %s" % e)
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-8000:])
            log("build failed: %s" % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def source_digest():
    """Commit of the checkout, or a digest of src/ when it is not a repo."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
        if head.returncode == 0:
            return head.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """Filesystem type of the mount holding `path`."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def run_workload(binary, workload, seed, seconds, trace, tiny=False,
                 corrupt=False, time_left=170.0):
    """Runs gen + run; returns (exit code, report dict or None)."""
    start = time.monotonic()
    run_dir = os.path.join(build_dir(), "runs",
                           "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", workload, "--seed", str(seed), "--seconds",
              str(seconds), "--dir", run_dir] + (["--tiny"] if tiny else [])
    trace_out = os.path.join(build_dir(), "traces",
                             "%s-seed%d.json" % (workload, seed))
    try:
        gen = subprocess.run([binary, "gen"] + common, env=child_env(),
                             timeout=60)
        if gen.returncode != 0:
            log("input generation failed (%d)" % gen.returncode)
            return 2, None
        cmd = [binary, "run"] + common
        if trace:
            os.makedirs(os.path.dirname(trace_out), exist_ok=True)
            cmd += ["--trace", "1", "--trace-out", trace_out]
        if corrupt:
            cmd.append("--corrupt-reference")
        left = time_left - (time.monotonic() - start)
        done = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              timeout=left)
    except subprocess.TimeoutExpired:
        log("%s timed out" % workload)
        return 3, None
    finally:
        context_fs = filesystem_of(run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log("%s run failed (%d)" % (workload, done.returncode))
        return done.returncode or 2, None
    report = json.loads(lines[-1])
    report["context"]["data_filesystem"] = context_fs
    if trace:
        report["context"]["trace_file"] = os.path.relpath(trace_out, ROOT)
    return done.returncode, report


def print_report(workload, seed, trace, report):
    print("rotind benchmark: workload=%s seed=%d trace=%d" %
          (workload, seed, trace))
    for name, m in report["metrics"].items():
        print("  %-34s %16.6g %-6s n=%d" %
              (name, m["value"], m["unit"], m["samples"]))
    print("  attempted=%d failed=%d correct=%s" %
          (report["attempted"], report["failed"], report["correct"]))
    for key, value in report["context"].items():
        print("  context %s: %s" % (key, value))
    trace_file = report["context"].get("trace_file")
    if trace_file:
        with open(os.path.join(ROOT, trace_file)) as f:
            spans = json.load(f)
        print("  span self times (name, count, total ms, self ms):")
        for s in spans["self_times"]:
            print("    %-32s %8d %12.3f %12.3f" %
                  (s["name"], s["count"], s["total_ms"], s["self_ms"]))


def result_line(report, names, fill_idle):
    """The contract line: exactly the named metrics, value and unit."""
    metrics = {}
    for spec in names:
        m = report["metrics"].get(spec["name"])
        if m is None:
            if not fill_idle:
                raise KeyError("metric %s missing" % spec["name"])
            # A layer that did no work on this workload measures zero.
            m = {"value": 0.0, "unit": spec["unit"]}
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def add_context(report, seed):
    ctx = report["context"]
    ctx["seed"] = str(seed)
    ctx["commit"] = source_digest()
    ctx["nproc"] = str(os.cpu_count())
    ctx["cpu_model"] = cpu_model()


def layer_of(name):
    return name.split(".", 1)[0]


def selftest(binary, spec):
    """Every workload at tiny scale: metrics, layers and the answer gate."""
    problems = []
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    printed = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, report = run_workload(binary, workload, 7, 2, trace,
                                      tiny=True)
            if rc != 0 or report is None or not report["correct"]:
                problems.append("%s trace=%d failed (%d)" %
                                (workload, trace, rc))
                continue
            print_report(workload, 7, trace, report)
            got = report["metrics"]
            if not trace:
                wanted = spec["end_to_end"]
            else:
                wanted = [per_layer[n] for n in got if n in per_layer]
                printed.update(m["name"] for m in wanted)
                extra = set(got) - set(per_layer) - END_TO_END_LAYERLESS
                if extra:
                    problems.append("%s: undeclared metrics %s" %
                                    (workload, sorted(extra)))
                seen = {layer_of(n) for n in got
                        if n not in END_TO_END_LAYERLESS}
                if seen != LAYERS[workload]:
                    problems.append(
                        "%s: layers %s reported, expected %s" %
                        (workload, sorted(seen), sorted(LAYERS[workload])))
            for m in wanted:
                g = got.get(m["name"])
                if g is None:
                    problems.append("%s: %s not printed" %
                                    (workload, m["name"]))
                elif g["unit"] != m["unit"] or g["samples"] < 1:
                    problems.append("%s: %s has unit %s, %d samples" %
                                    (workload, m["name"], g["unit"],
                                     g["samples"]))
        rc, report = run_workload(binary, workload, 7, 2, 0, tiny=True,
                                  corrupt=True)
        if rc == 0 or report is None or report["correct"]:
            problems.append("%s: a corrupted reference answer was not "
                            "caught (exit %d)" % (workload, rc))
    for name in sorted(set(per_layer) - printed):
        problems.append("per-layer metric %s printed on no workload" % name)
    for p in problems:
        log("selftest: " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at tiny scale and check "
                        "the benchmark itself")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary, spec)
    rc, report = run_workload(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    if report is None:
        return rc
    add_context(report, args.seed)
    print_report(args.workload, args.seed, args.trace, report)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        line = result_line(report, names, fill_idle=bool(args.trace))
    except KeyError as e:
        log(str(e))
        return 2
    print(json.dumps(line))
    return rc


if __name__ == "__main__":
    sys.exit(main())
