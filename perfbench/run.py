#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the measuring program (perfbench/CMakeLists.txt) from the sources in
this checkout, provides the reference event list of the workload and seed,
runs one workload and relays its output. The last line of standard output is
the result JSON object; run.py checks it against BENCHMARK.json first.

  python3 perfbench/run.py --workload grid_20k --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --store-references 0-31

Only files under the checkout are read or written: the build tree, the
decompressed or computed references, the work catalogs and the trace files
all go to $CARGO_TARGET_DIR (default .bench_build) / perfbench.
"""

import argparse
import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STORED_REFS = BENCH_DIR / "ref"
STORED_SEEDS = "0-31"  # seeds with a reference under STORED_REFS, every screen workload
CHILD_TIMEOUT_S = 170
SCREEN_WORKLOADS = ("grid_20k", "hybrid_50k", "grid_wide_20k")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def load_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found next to {BENCH_DIR.name}/")
    with open(path) as f:
        return json.load(f)


def build(targets):
    """Configures once and builds `targets`; build logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "CMakeLists.txt").is_file():
        fail("the scod sources are not in this checkout; nothing to build")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout
    jobs = str(os.cpu_count() or 4)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed", 1)
    return out


def run_child(cmd, **kwargs):
    """Runs a child process to completion, killing it at the time limit."""
    with subprocess.Popen(cmd, **kwargs) as child:
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            fail(f"{Path(cmd[0]).name} did not finish within {CHILD_TIMEOUT_S} s", 1)
        return child.returncode, out


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def reference_path(out, workload, seed):
    """The stored reference of (workload, seed), decompressed into the build
    tree, or one computed now by this checkout's grid screener.

    Cached copies are named by the digest of what they came from (the stored
    .gz, or the measuring program that computed them), so a copy made from
    another stored file or by another commit's code is never reused.
    """
    refs = out / "ref"
    refs.mkdir(parents=True, exist_ok=True)
    stored = STORED_REFS / workload / f"seed-{seed}.ref.gz"
    if stored.is_file():
        target = refs / f"{workload}-seed-{seed}-{file_digest(stored)}.ref"
        if not target.is_file():
            partial = target.with_suffix(".partial")
            with gzip.open(stored, "rb") as src, open(partial, "wb") as dst:
                shutil.copyfileobj(src, dst)
            partial.rename(target)
        return target
    # The grid under test builds this reference, so a grid change that loses
    # events loses them from the reference too: say so on the result.
    print(f"check: no stored reference for {workload} seed {seed} (stored: seeds "
          f"{STORED_SEEDS}); missed events are checked against this checkout's own "
          f"grid screener only")
    program = out / "perfbench"
    target = refs / f"{workload}-seed-{seed}-{file_digest(program)}.computed.ref"
    if not target.is_file():
        print(f"perfbench: computing the reference of {workload} seed {seed}", file=sys.stderr)
        partial = target.with_suffix(".partial")
        code, _ = run_child([str(program), "--make-reference", str(partial),
                             "--workload", workload, "--seed", str(seed)])
        if code != 0:
            fail("computing the reference failed", 1)
        partial.rename(target)
    return target


def check_result(line, spec, trace):
    """Raises ValueError unless `line` is a result object with exactly the
    metrics BENCHMARK.json names for this mode, each with its unit."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        if got[name].get("unit") != unit or not isinstance(got[name].get("value"), (int, float)):
            raise ValueError(f"metric {name}: {got[name]}")


def measure(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' (one of {', '.join(names)})")
    out = build(["perfbench"])
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.workload in SCREEN_WORKLOADS:
        cmd += ["--reference", str(reference_path(out, args.workload, args.seed))]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{args.workload}-seed-{args.seed}.trace.json"
        cmd += ["--trace-out", str(trace_file)]
    code, stdout = run_child(cmd, stdout=subprocess.PIPE, text=True)
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if code != 0:
        fail(f"measuring run exited with {code}", 1)
    try:
        check_result(lines[-1], spec, args.trace)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        fail(f"bad result line: {e}", 1)
    if args.trace:
        print(f"trace: {trace_file}")
    print(lines[-1])


def self_test(spec):
    out = build(["perfbench", "perfbench_test"])
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    code, _ = run_child([str(out / "perfbench_test")], cwd=work)
    if code != 0:
        fail("perfbench_test failed", 1)
    code, listing = run_child([str(out / "perfbench"), "--list-metrics"],
                              stdout=subprocess.PIPE, text=True)
    table = [line.split() for line in listing.splitlines()]
    for kind in ("end_to_end", "per_layer"):
        program = [(name, unit) for name, unit, k in table if k == kind]
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if program != declared:
            fail(f"{kind} metrics of the program and BENCHMARK.json differ", 1)
    workloads = sorted(w["name"] for w in spec["workloads"])
    if workloads != sorted(SCREEN_WORKLOADS + ("service_20k",)):
        fail("workloads of run.py and BENCHMARK.json differ", 1)
    for workload in SCREEN_WORKLOADS:
        for seed in parse_seeds(STORED_SEEDS):
            if not (STORED_REFS / workload / f"seed-{seed}.ref.gz").is_file():
                fail(f"no stored reference for {workload} seed {seed}", 1)
    print("perfbench self-test passed")


def store_references(seeds):
    """Computes the reference of every screen workload for `seeds` and stores
    it gzipped under perfbench/ref (maintainer command)."""
    out = build(["perfbench"])
    for workload in SCREEN_WORKLOADS:
        (STORED_REFS / workload).mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            plain = out / "ref" / f"{workload}-seed-{seed}.store"
            plain.parent.mkdir(parents=True, exist_ok=True)
            code, _ = run_child([str(out / "perfbench"), "--make-reference", str(plain),
                                 "--workload", workload, "--seed", str(seed)])
            if code != 0:
                fail(f"reference {workload} seed {seed} failed", 1)
            with open(plain, "rb") as src, open(STORED_REFS / workload / f"seed-{seed}.ref.gz", "wb") as raw:
                with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as dst:
                    shutil.copyfileobj(src, dst)
            plain.unlink()


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--store-references", metavar="SEEDS")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")
    spec = load_benchmark_json()
    if args.self_test:
        self_test(spec)
    elif args.store_references:
        store_references(parse_seeds(args.store_references))
    elif args.workload:
        measure(args, spec)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main()
