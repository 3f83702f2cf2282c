#!/usr/bin/env python3
"""knor benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (libknor from src/ plus the
knor_perfbench binary) into $CARGO_TARGET_DIR (default .bench_build), runs the named
workload, prints every metric by name with its unit, and prints as the
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, including each traced span's self
time. The full record (all metrics plus the run manifest) and the Chrome
trace are written under <build dir>/results/.

Exit status: 0 when every output check passed, 1 when a check failed
(the JSON line is still printed, with "correct": false), 2 when the
benchmark could not run at all (no JSON line).
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170

# Spans whose self time (duration minus the child spans nested in it on
# the same thread) the traced run reports. knor_perfbench opens the dotted
# ones around library calls; the others are knor's own phase spans.
SELF_TIME_SPANS = [
    "data.generate", "data.kmat_write", "bench.fit", "init", "assign", "update", "energy", "allreduce", "serve.construct",
    "serve.closed_loop", "serve_batch",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


_child = None  # the process group run() is waiting on


def _stop_child(signum, _frame):
    """SIGTERM/SIGINT: take the running build or benchmark binary down with us."""
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signum)


def run(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.communicate()
        fail("%s timed out after %ds" % (cmd[0], timeout))
    return _child.returncode, out


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
        for step in steps:
            code, _ = run(step, BUILD_TIMEOUT_S, stdout=log,
                          stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % log_path)
    return os.path.join(cmake_dir, "knor_perfbench")


def source_digest():
    """SHA-256 over src/ and perfbench/: identifies the code measured when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    # Only ask git when the checkout is itself a repository: git would
    # otherwise search the parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        code, out = run(["git", "-C", ROOT, "rev-parse", "HEAD"], 10,
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown (git not found)"
    return out.decode().strip() if code == 0 else "unknown"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) when
    unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def self_times(trace_path):
    """Per-span-name self time in seconds from a Chrome trace."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    total = {}
    for evs in by_tid.values():
        # Parents sort before the children they enclose.
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, covered-by-children µs]
        for e in evs:
            while stack and e["ts"] >= stack[-1][0]["ts"] + stack[-1][0]["dur"]:
                done = stack.pop()
                total[done[0]["name"]] = total.get(done[0]["name"], 0) + \
                    done[0]["dur"] - done[1]
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0])
        for done in stack:
            total[done[0]["name"]] = total.get(done[0]["name"], 0) + \
                done[0]["dur"] - done[1]
    return {name: us / 1e6 for name, us in total.items()}


def main():
    t0 = time.monotonic()
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    build_s = time.monotonic() - t0
    results_dir = os.path.join(build_dir, "results")
    trace_path = os.path.join(results_dir, "%s-seed%d-trace.json" %
                              (args.workload, args.seed))
    # A run killed mid-way can leave its knors data file behind, and an
    # earlier run's trace must not stand in for this one's.
    if os.path.isdir(results_dir):
        for name in os.listdir(results_dir):
            path = os.path.join(results_dir, name)
            if name.endswith(".kmat") or path == trace_path:
                os.remove(path)

    # The program sees only its inputs: no inherited knor overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("KNOR_")}
    steal0, total0 = cpu_ticks()
    code, out = run([binary, "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out-dir", results_dir],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, env=env)
    steal1, total1 = cpu_ticks()
    lines = out.decode().strip().splitlines()
    if code not in (0, 1) or not lines:
        fail("knor_perfbench exited with status %d" % code)
    record = json.loads(lines[-1])
    metrics = record["metrics"]

    if args.trace:
        if not os.path.exists(trace_path):
            fail("the traced run wrote no trace (see the errors above)")
        selfs = self_times(trace_path)
        for name in SELF_TIME_SPANS:
            metrics["self.%s_s" % name] = {"value": selfs.get(name, 0.0),
                                           "unit": "s"}

    manifest = record["manifest"]
    manifest["commit"] = git_commit()
    manifest["source_sha256"] = source_digest()
    manifest["build_s"] = build_s
    manifest["trace"] = args.trace
    # Share of CPU time the hypervisor gave to other guests while
    # knor_perfbench ran: on a shared host, the first thing to read when a run is slow.
    manifest["host_steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("knor_perfbench did not report: " + ", ".join(missing))
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail("%s: knor_perfbench unit %s, BENCHMARK.json unit %s" % (
                m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)):
            fail("%s is not a finite number" % m["name"])

    out_path = os.path.join(results_dir, "%s-seed%d-trace%d.json" %
                            (args.workload, args.seed, args.trace))
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for m in wanted:
        v = metrics[m["name"]]
        print("%-36s %16.6g %s" % (m["name"], v["value"], v["unit"]))
    names = {m["name"] for m in wanted}
    for name, v in metrics.items():
        if name not in names:
            value = v["value"]
            shown = "%.6g" % value if isinstance(value, (int, float)) else value
            print("%-36s %16s %s (record only)" % (name, shown, v["unit"]))
    print("fail_frac %.6g (%d of %d operations failed)" % (
        record["failed"] / max(1, record["attempted"]), record["failed"],
        record["attempted"]))
    print("record: " + os.path.relpath(out_path, ROOT))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()
