#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library sources under src/ together with the benchmark program in
perfbench/ into $CARGO_TARGET_DIR (default .bench_build); later runs
rebuild only what changed. The program's report goes to stdout; the
last line is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end
metrics, with --trace 1 its per_layer metrics (the traced run also
writes its host spans under the build directory). Before printing, this
script checks that the program emitted exactly the metrics
BENCHMARK.json names, with their units.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr so stdout stays the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "tilelink_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src").is_dir():
        fail("no src/ next to perfbench/: nothing to build")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    exe = build(build_dir)
    out_dir = build_dir / "spans"
    out_dir.mkdir(parents=True, exist_ok=True)

    serve = spec["serve-mixed"]
    cmd = [str(exe), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--threads", str(min(spec["tune_threads"], os.cpu_count() or 1)),
           "--out-dir", str(out_dir),
           "--p99-limit-ms", str(serve["p99_limit_ms"]),
           "--rates", ",".join(str(r) for r in serve["rates_rps"])]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"benchmark program exited {proc.returncode} without a result", 1)

    # Smoke check: exactly the named metrics, each with its declared unit.
    declared = bench["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, unit mismatch {units}", 3)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
