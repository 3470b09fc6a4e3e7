#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <can64|lockstorm64|sweep16>
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference --workload W
                             [--seeds 0-31]

Builds perfbench/ (the ocor library from src/ plus the benchmark
binary) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload and prints, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics; a missing name or
a wrong unit makes the result incorrect. Exits 0 only when every output
check passed. --self-test runs the benchmark's own tests at a tiny size.

--seed N runs input set N mod 32. Every simulation's RunMetrics
fingerprint must equal the one committed in
perfbench/reference/<workload>.tsv for its key (workload, profile, seed,
base or OCOR). --write-reference runs one workload on the given seeds
and adds their fingerprints to that file; use it only in a change that
means to change simulated behaviour, after deleting the lines it
replaces.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
REFERENCE_DIR = BENCH_DIR / "reference"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(targets):
    """Configure and build; returns the build directory or None."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release", *gen],
        ["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
    ]
    for cmd in steps:
        try:
            # Build chatter goes to stderr; stdout carries the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return out


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_names(result, trace):
    """Problems with the metric names and units of one result."""
    want = expected_metrics(trace)
    got = result.get("metrics", {})
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"unlisted metric {n}" for n in got if n not in want]
    problems += [f"metric {n} has unit {got[n].get('unit')!r}, "
                 f"expected {u!r}"
                 for n, u in want.items()
                 if n in got and got[n].get("unit") != u]
    return problems


def run_bench(binary, args, state_dir):
    """Run the binary; returns (exit code, parsed last line or None)."""
    cmd = [str(binary), *args, "--state-dir", str(state_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
        return 1, None
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("no JSON result from the benchmark binary")
        return done.returncode or 1, None


def reference_for(workload):
    return REFERENCE_DIR / f"{workload}.tsv"


def state_dir_for(binary):
    """Per-binary state (fingerprints the reference lacks, traces): a
    rebuilt program does not inherit the fingerprints of an older one."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    path = binary.parent / "state" / digest
    path.mkdir(parents=True, exist_ok=True)
    return path


def main_run(args):
    if not reference_for(args.workload).exists():
        log(f"missing {reference_for(args.workload).relative_to(ROOT)}")
        return 1
    out = build(["perfbench"])
    if out is None:
        return 1
    binary = out / "perfbench"
    code, result = run_bench(
        binary,
        ["--workload", args.workload, "--seed", str(args.seed),
         "--trace", str(args.trace),
         "--reference", str(reference_for(args.workload))],
        state_dir_for(binary))
    if result is None:
        return 1
    problems = check_names(result, args.trace)
    for p in problems:
        log(f"FAILED output check: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def seed_list(text):
    """Seeds from "0-31" or "1,5,9"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main_write_reference(args):
    """Run one workload on each seed untraced against no reference,
    then add the fingerprints to the committed reference file."""
    out = build(["perfbench"])
    if out is None:
        return 1

    def one(seed):
        with tempfile.TemporaryDirectory(dir=out) as state:
            code, result = run_bench(
                out / "perfbench",
                ["--workload", args.workload, "--seed", str(seed),
                 "--trace", "0"], state)
            if code != 0 or not result or not result["correct"]:
                log(f"seed {seed} failed its output checks")
                return None
            return (Path(state) / f"fingerprints-{args.workload}.tsv"
                    ).read_text().splitlines()

    runs = [one(seed) for seed in seed_list(args.seeds)]
    if None in runs:
        log("nothing written")
        return 1
    path = reference_for(args.workload)
    known = {}
    if path.exists():
        known = {line.split("\t")[0]: line
                 for line in path.read_text().splitlines()}
    lines = [line for run in runs for line in run]
    clash = [line for line in lines
             if known.get(line.split("\t")[0], line) != line]
    if clash:
        log(f"{len(clash)} key(s) already have another fingerprint; "
            "delete their lines first")
        return 1
    known.update((line.split("\t")[0], line) for line in lines)
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(f"{line}\n" for _, line in sorted(known.items())))
    log(f"{len(lines)} fingerprint(s) in {path.relative_to(ROOT)}")
    return 0


def main_self_test():
    out = build(["perfbench", "perfbench_tests"])
    if out is None:
        return 1
    failures = 0
    # Keep the tests' temporary files inside the build directory.
    tmp = out / "test-tmp"
    tmp.mkdir(exist_ok=True)
    env = {**os.environ, "TEST_TMPDIR": f"{tmp}/"}
    if subprocess.run([str(out / "perfbench_tests")], env=env,
                      check=False).returncode:
        failures += 1
    binary = out / "perfbench"
    state = state_dir_for(binary)
    for workload in ("can64", "lockstorm64", "sweep16"):
        for trace in (0, 1):
            code, result = run_bench(
                binary, ["--workload", workload, "--tiny",
                         "--trace", str(trace),
                         "--reference", str(reference_for(workload))],
                state)
            problems = [] if result else ["no result"]
            if result:
                problems += check_names(result, trace)
                if not result["correct"] or code != 0:
                    problems.append("output checks failed")
                if result["attempted"] < 1 or result["failed"] != 0:
                    problems.append("bad attempted/failed counts")
            status = "FAILED" if problems else "ok"
            print(f"{status}: {workload} --trace {trace} "
                  f"{'; '.join(problems)}")
            failures += bool(problems)
    # A fingerprint that differs from the committed reference fails
    # the run.
    wrong = tmp / "wrong-reference.tsv"
    wrong.write_text("can64-tiny seed 1 base\t1\t0000000000000000\n")
    code, result = run_bench(
        binary, ["--workload", "can64", "--tiny", "--trace", "0",
                 "--reference", str(wrong)], state)
    caught = code != 0 and result and not result["correct"] \
        and result["failed"] == 1
    print(f"{'ok' if caught else 'FAILED'}: a wrong reference fails the run")
    failures += not caught
    print(f"self-test: {failures} failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["can64", "lockstorm64", "sweep16"])
    ap.add_argument("--seed", type=int, default=1)
    # A run has a fixed amount of work; --seconds is accepted for the
    # benchmark's calling convention and not used.
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--seeds", default="0-31",
                    help="seeds for --write-reference, e.g. 0-31 or 1,5")
    args = ap.parse_args()
    if args.self_test:
        return main_self_test()
    if not args.workload:
        ap.error("--workload is required")
    if args.write_reference:
        return main_write_reference(args)
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
