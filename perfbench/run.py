#!/usr/bin/env python3
"""Build the garfield benchmark program and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload ssmw-cnn --seed 1 --seconds 36 --trace 0

The first call configures and builds perfbench/ (the library, the
garfield_node rank launcher and the perfbench binary) into .bench_build, or into
$CARGO_TARGET_DIR when set. Every later call re-runs the incremental build,
which is a no-op when nothing changed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it carries the machine and
build fingerprint. The full record (fingerprint, raw samples, failures)
is saved under .bench_results/<workload>/, and the traced run (--trace 1)
writes its spans beside it. perfbench/compare.py reads two such directories.
The exit code is non-zero when the build fails or any correctness check
fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ssmw-cnn", "p2p-mlp", "msmw-tcp")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then build incrementally. Returns the perfbench path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # e.g. an exported source tree
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def cpu_times():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def run_bench(cmd, stderr_path):
    """Run perfbench in its own process group so a timeout also stops the
    rank processes it forked."""
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
            return None, 1
    return stdout, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    outdir = os.path.join(ROOT, ".bench_results", args.workload)
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", stem + "-spans.json"]
    started = time.time()
    steal0, total0 = cpu_times()
    stdout, code = run_bench(cmd, stem + ".stderr")
    steal1, total1 = cpu_times()
    lines = (stdout or "").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench printed no result (exit code {code}); see {stem}.stderr")
        return 1

    detail = result.get("detail", {})
    fingerprint = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": detail.get("compiler"),
        "build_type": detail.get("build_type"),
        "git_describe": git_describe(),
        "garfield_node": detail.get("garfield_node"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "wall_s": time.time() - started,
        "exit_code": code,
        # Share of CPU time the hypervisor gave to other guests during the
        # run: a high value explains a slow run on a shared host.
        "host_steal_share": (steal1 - steal0) / max(total1 - total0, 1),
        "fingerprint": fingerprint,
        **result,
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    for failure in result.get("failures", []):
        log(f"check failed: {failure}")

    print("fingerprint " + json.dumps(fingerprint))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
