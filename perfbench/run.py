#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library straight from src/ plus perfbench/main.cpp) into
.bench_build/; later calls only re-check the build. The benchmark binary
prints its tables, then one JSON line; this script compares that run's
simulated outputs and work counts with every earlier run of the same seed on
the same sources, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). It exits 1 when an output check failed and 2 when the
benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
FINGERPRINTS = ROOT / ".bench_build" / "fingerprints"
WORKLOADS = ("stream_knee", "episode_paper", "field_track")
DEFAULT_SEED = 1  # seed 7 is held out of tuning, for confirming later claims


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out, err


def build():
    if not (ROOT / "src").is_dir():
        fail("no library sources (src/) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    # Keep compiler temporaries inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        code, out, _ = run_group(cmd, 850, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True, env=env)
        if code != 0:
            sys.stderr.write(out[-4000:])
            fail("build failed")
    return BUILD / "perfbench"


def source_digest():
    """Digest of everything the benchmark binary is built from."""
    h = hashlib.sha256()
    files = sorted([p for p in (ROOT / "src").rglob("*") if p.is_file()] +
                   [HERE / "CMakeLists.txt", HERE / "main.cpp"])
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def compare_fingerprint(workload, seed, fingerprint, store):
    """Failures when this seed's outputs differ from an earlier run's on the
    same sources. Each source tree keeps its own reference file, so runs of
    two trees can alternate in one checkout; only a run whose in-process
    checks all passed becomes the reference."""
    path = FINGERPRINTS / f"{workload}-seed{seed}-{source_digest()[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"{key}: {earlier.get(key)} in an earlier run, {value} now"
                for key, value in fingerprint.items() if earlier.get(key) != value] + \
               [f"{key} missing now" for key in earlier if key not in fingerprint]
    if store:
        FINGERPRINTS.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(fingerprint))
        tmp.replace(path)
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out, _ = run_group(cmd, 170, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        fail(f"benchmark exited with code {code} without a result")
    if code not in (0, 1):
        fail(f"benchmark exited with code {code}")
    for line in lines[:-1]:
        print(line)

    failures = list(result["failures"])
    for f in compare_fingerprint(args.workload, args.seed, result["fingerprint"],
                                 store=not failures):
        failures.append(f"run-to-run identity: {f}")
    for f in failures[len(result["failures"]):]:
        print(f"CHECK FAILED: {f}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name not in result[section]:
            fail(f"metric {name} missing from the benchmark output")
        if result[section][name]["unit"] != entry["unit"]:
            fail(f"metric {name}: unit {result[section][name]['unit']} != {entry['unit']}")
        metrics[name] = {"value": result[section][name]["value"], "unit": entry["unit"]}

    print(json.dumps({"correct": not failures, "attempted": result["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
