#!/usr/bin/env python3
"""A-QED benchmark runner.

Builds the verifier and the benchmark binary from source (into
.bench_build/perfbench under the repository root), runs one workload, checks
the binary's result against the metric table below, and prints that result
as the last line of stdout:

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 25 --trace 0

    --workload  hunt | signoff | campaign | cube | all (default)
    --seed      workload seed: the order of the hunt's passes
    --seconds   how long the timed phase runs (whole passes; see README.md)
    --trace     0: end-to-end metrics, tracing off
                1: per-layer metrics from a traced run
                both (default): a run of each

The last line is {"correct", "attempted", "failed", "metrics"}; with
--workload all, metric names are prefixed "<workload>/". The exit code is 0
only when every correctness gate passed.

    python3 perfbench/run.py --selftest     determinism self-test
    python3 perfbench/run.py --write-spec   rewrite BENCHMARK.json

The metric tables here are the single source of BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "aqed_perfbench"
WORK = BUILD / "work"
BUILD_TYPE = "RelWithDebInfo"
# The binary is stopped after this long, so a run ends within three minutes.
RUN_TIMEOUT_S = 170

RUN_SECONDS = 25

WORKLOADS = [
    {"name": "hunt",
     "why": "bug finding, the paper's Table 1: solves that find a model, "
            "trace extraction and simulator replay; 1 worker, no cache, no "
            "cubes"},
    {"name": "signoff",
     "why": "clean sign-off, the paper's Table 2: UNSAT refutation to the "
            "full bound and deep unrolling; no counterexample, cube or cache"},
    {"name": "campaign",
     "why": "the only workload using the fault layer, the 2-worker session "
            "pool and the solve cache (cold pass writes it, warm pass reads "
            "it)"},
    {"name": "cube",
     "why": "the only workload where cube-and-conquer escalation, solver "
            "cloning and the cube worker pool do the work"},
]

# The gated times are processor times. On the shared 4-vCPU host the
# hypervisor takes the processors away for stretches (steal time): the same
# code's wall time per pass spread by up to 26% (IQR / median over ten
# seeds) on signoff, whose runs hold only two or three passes. Process CPU
# time leaves stolen time out. It does not leave out the host's speed, which
# changes in phases of many minutes (hunt: 1.6 s of CPU per pass in one,
# 3.0 s in the next), so time bounds sit at the ceiling and set-up (~1 ms)
# gets the widest. Wall time and operations per second are printed with
# every run, not gated. Peak RSS of the first pass repeats to within 2%.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

PER_LAYER = [
    {"name": "accel.build_ms", "unit": "ms", "better": "lower"},
    {"name": "aqed.instrument_ms", "unit": "ms", "better": "lower"},
    {"name": "bmc.unroll_ms", "unit": "ms", "better": "lower"},
    {"name": "bmc.frames", "unit": "count", "better": "lower"},
    {"name": "bitblast.clauses", "unit": "count", "better": "lower"},
    {"name": "sat.solve_sat_ms", "unit": "ms", "better": "lower"},
    {"name": "sat.solve_unsat_ms", "unit": "ms", "better": "lower"},
    {"name": "sat.solves", "unit": "count", "better": "lower"},
    {"name": "sat.conflicts", "unit": "count", "better": "lower"},
    {"name": "sat.decisions", "unit": "count", "better": "lower"},
    {"name": "sat.propagations", "unit": "count", "better": "lower"},
    {"name": "sat.props_per_s", "unit": "1/s", "better": "higher"},
    {"name": "sim.replay_ms", "unit": "ms", "better": "lower"},
    {"name": "sim.replays", "unit": "count", "better": "lower"},
    {"name": "sched.jobs", "unit": "count", "better": "lower"},
    {"name": "sched.retries", "unit": "count", "better": "lower"},
    {"name": "sched.occupancy", "unit": "ratio", "better": "higher"},
    {"name": "cube.escalations", "unit": "count", "better": "lower"},
    {"name": "cube.cubes", "unit": "count", "better": "lower"},
    {"name": "cube.parallelism", "unit": "ratio", "better": "higher"},
    {"name": "cube.speedup", "unit": "ratio", "better": "higher"},
    {"name": "fault.mutants", "unit": "count", "better": "higher"},
    {"name": "fault.detected_ratio", "unit": "ratio", "better": "higher"},
    {"name": "service.cache.load_ms", "unit": "ms", "better": "lower"},
    {"name": "service.cache.lookup_ms", "unit": "ms", "better": "lower"},
    {"name": "service.cache.store_ms", "unit": "ms", "better": "lower"},
    {"name": "service.cache.save_ms", "unit": "ms", "better": "lower"},
    {"name": "service.cache.hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "service.cache.warm_pass_ms", "unit": "ms", "better": "lower"},
    {"name": "telemetry.overhead_ratio", "unit": "ratio", "better": "lower"},
    {"name": "trace.accounted_min", "unit": "ratio", "better": "higher"},
]


def spec():
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


class BenchError(Exception):
    pass


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"verifier sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD), "--parallel", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def provenance():
    """What a result was measured on: the commit when the checkout is a git
    repository, and a digest of the sources either way."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns its exit code and stdout lines.
    Kills it (and waits) if it overruns."""
    proc = subprocess.Popen([str(BINARY), *args], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"aqed_perfbench overran {timeout} s")
    return proc.returncode, out.splitlines()


def run_workload(name, seed, seconds, trace):
    WORK.mkdir(parents=True, exist_ok=True)
    args = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--work-dir", str(WORK)]
    if trace:
        args += ["--spans-out", str(WORK / f"spans-{name}-{seed}.json")]
    code, lines = run_binary(args)
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        raise BenchError(f"aqed_perfbench exited with {code}")
    result = json.loads(lines[-1])
    table = PER_LAYER if trace else END_TO_END
    expected = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise BenchError(f"aqed_perfbench metrics {sorted(got.items())} differ from "
                         f"the table {sorted(expected.items())}")
    info = {k: result[k] for k in
            ("workload", "seed", "trace", "passes", "nproc", "cube_workers",
             "build_type")}
    print("run: " + json.dumps({**info, **provenance()}, sort_keys=True))
    for k, v in result["extra"].items():
        print(f"  {k:<28} {v['value']:16.6g} {v['unit']}")
    return result


def main():
    parser = argparse.ArgumentParser(
        description="A-QED benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end, 1: per-layer, both (default)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the determinism self-test")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the tables here")
    args = parser.parse_args()

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) +
                                             "\n")
        return 0
    try:
        build()
        if args.selftest:
            WORK.mkdir(parents=True, exist_ok=True)
            code, lines = run_binary(["--selftest", "--seed", str(args.seed),
                                      "--work-dir", str(WORK)], timeout=900)
            print("\n".join(lines))
            return code
        names = ([w["name"] for w in WORKLOADS] if args.workload == "all"
                 else [args.workload])
        modes = [0, 1] if args.trace == "both" else [int(args.trace)]
        results = [(n, run_workload(n, args.seed, args.seconds, trace))
                   for n in names for trace in modes]
    except BenchError as error:
        log(str(error))
        return 1

    prefix = len(names) > 1
    metrics = {f"{n}/{k}" if prefix else k: v for n, r in results
               for k, v in r["metrics"].items()}
    correct = all(r["correct"] for _, r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
