#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and compiles
`perfbench/` together with the repository's `src/` tree into
`.bench_build/perfbench` (RelWithDebInfo, the repository's default build
type); later calls rebuild only what changed. All arguments are passed to
the `perfbench` binary, whose last line of output is the JSON result.
`--workload all` runs each workload in a process of its own, one after
another, each for S seconds (so each reports its own peak RSS); it prints
one result line per workload and fails if any workload fails.
`--self-test` builds and runs the benchmark's own tests instead.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
LOG = ROOT / ".bench_build" / "perfbench-build.log"
TRACES = ROOT / ".bench_build" / "traces"
# The workloads of perfbench/src/workloads.cc, in the order `all` runs them.
WORKLOADS = ["rocksdb_sita", "mica_xdp", "rocksdb_cross_layer"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cmake(args):
    with open(LOG, "a") as log:
        return subprocess.run(["cmake", *args], cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Syrup source tree under {ROOT}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    LOG.parent.mkdir(parents=True, exist_ok=True)
    LOG.write_text("")
    jobs = str(min(os.cpu_count() or 1, 4))
    configure = ["-S", "perfbench", "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    for attempt in range(2):
        ok = ((BUILD / "CMakeCache.txt").is_file() or cmake(configure) == 0)
        if ok and cmake(["--build", str(BUILD), "--target", target,
                         "-j", jobs]) == 0:
            return BUILD / target
        if attempt == 0 and BUILD.exists():
            # A stale or foreign build tree: start over once.
            shutil.rmtree(BUILD)
            continue
        break
    tail = LOG.read_text().splitlines()[-40:]
    print("\n".join(tail), file=sys.stderr)
    fail(f"build failed (full log: {LOG})")


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        sys.exit(subprocess.run([str(build("perfbench_test"))],
                                cwd=ROOT).returncode)
    binary = build("perfbench")
    at = args.index("--workload") + 1 if "--workload" in args else None
    workload = args[at] if at is not None and at < len(args) else None
    if workload != "all":
        sys.stdout.flush()
        os.execv(str(binary), [str(binary), *with_trace_out(args, workload)])
    status = 0
    for name in WORKLOADS:
        one = [*args[:at], name, *args[at + 1:]]
        sys.stdout.flush()
        code = subprocess.run([str(binary), *with_trace_out(one, name)],
                              cwd=ROOT).returncode
        status = status or code
    sys.exit(status)


def with_trace_out(args, workload):
    """The traced pass keeps its first run's spans as a Chrome trace, one
    file per workload, overwritten by the next traced run."""
    if "--trace-out" in args or workload is None:
        return args
    TRACES.mkdir(parents=True, exist_ok=True)
    return [*args, "--trace-out", str(TRACES / f"{workload}.json")]


if __name__ == "__main__":
    main()
