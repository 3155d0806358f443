#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train-kaggle-fae --seed 1 \
        --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The library and the measuring program are
built from source in Release into $CARGO_TARGET_DIR (default .bench_build)
on first use. Each run generates its inputs from the seed into a fresh
directory under .bench_run/, measures, and removes the directory. The last
line of standard output is the result as one JSON object; the line before
it records the build, compiler, flags, core count and commit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the Release binaries; returns their dir."""
    out = build_dir()
    # The compiler's temporary files stay inside the checkout too.
    tmp = ROOT / ".bench_run" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        check=True, stdout=sys.stderr, cwd=ROOT, env=env)
    return out


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def program_metrics(bin_dir):
    out = subprocess.run([str(bin_dir / "perfbench"), "metrics"], check=True,
                         capture_output=True, text=True, cwd=ROOT)
    return json.loads(out.stdout)


def check_result(result, expected):
    """Raises unless `result` has exactly the contract's keys and metrics."""
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a count")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        raise ValueError(f"metrics {got} differ from the contract's {want}")


def run_one(bin_dir, workload, seed, seconds, trace, provenance_commit):
    """Generates, measures and checks one run; returns the result dict."""
    expected = contract()["per_layer" if trace else "end_to_end"]
    scratch_root = ROOT / ".bench_run"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-",
                                    dir=scratch_root))
    try:
        data = scratch / "inputs.faed"
        subprocess.run(
            [str(bin_dir / "perfbench"), "generate", f"--workload={workload}",
             f"--seed={seed}", f"--out={data}"],
            check=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        cmd = [str(bin_dir / "perfbench"), "run", f"--workload={workload}",
               f"--data={data}", f"--scratch={scratch}",
               f"--seconds={seconds}", f"--trace={trace}",
               f"--commit={provenance_commit}"]
        if trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            cmd.append(f"--trace-out={out_dir}/trace-{workload}-seed{seed}.json")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"perfbench run exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError("perfbench run printed nothing")
        result = json.loads(lines[-1])
        check_result(result, expected)
        for line in lines[:-1]:
            print(line)
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def selftest(bin_dir):
    """Runs the C++ self-test and checks BENCHMARK.json against the program."""
    scratch_root = ROOT / ".bench_run"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch_root))
    try:
        subprocess.run([str(bin_dir / "perfbench_selftest"),
                        f"--scratch={scratch}"], check=True, cwd=ROOT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    spec = contract()
    program = program_metrics(bin_dir)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[key]]
        got = [(m["name"], m["unit"]) for m in program[key]]
        if want != got:
            raise ValueError(f"BENCHMARK.json {key} differs from the program")
    if [w["name"] for w in spec["workloads"]] != program["workloads"]:
        raise ValueError("BENCHMARK.json workloads differ from the program")
    print("BENCHMARK.json matches the program's metrics and workloads")


def main():
    # A SIGTERM unwinds like an exception, so the running child is killed
    # and waited for and the run's scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        bin_dir = build()
        if args.selftest:
            selftest(bin_dir)
            return 0
        spec = contract()
        names = [w["name"] for w in spec["workloads"]]
        workloads = names if args.workload == "all" else [args.workload]
        if any(w not in names for w in workloads):
            parser.error(f"--workload must be one of {names} or all")
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        if seconds <= 0:
            parser.error("--seconds must be > 0")
        rev = commit()
        results = [run_one(bin_dir, w, args.seed, seconds, args.trace, rev)
                   for w in workloads]
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError,
            json.JSONDecodeError) as err:
        log(f"error: {err}")
        return 1
    for w, r in zip(workloads, results):
        if len(results) > 1:
            print(f"{w}: {json.dumps(r)}")
    print(json.dumps(results[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
