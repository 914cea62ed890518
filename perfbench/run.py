#!/usr/bin/env python3
"""Build the perfbench package from source, run one workload, print its result.

Run from the repository root:

    python3 perfbench/run.py --workload <fig6-sweep|ensemble-1024|serve-closed> \
        --seed <n> --seconds <s> --trace <0|1>

The package is built offline in release mode (honouring CARGO_TARGET_DIR)
and the workload runs in a child process. The last line of stdout is the
child's result object; it must report exactly the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) that BENCHMARK.json at the
repository root (the parent of this script's directory) declares, with the
declared units. On any failure the script exits non-zero without printing
a result.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run must end within 180 s; keep a margin for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build perfbench and return the path of its executable."""
    proc = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(HERE / "Cargo.toml"),
            "--message-format=json-render-diagnostics",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        fail(f"build failed (exit {proc.returncode})")
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if (msg.get("reason") == "compiler-artifact"
                and msg.get("target", {}).get("name") == "perfbench"
                and msg.get("executable")):
            return msg["executable"]
    fail("build produced no perfbench executable")


def declared_units(trace):
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    exe = build()
    try:
        proc = subprocess.run([exe, "--dir", str(HERE)] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    units = declared_units(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fail(f"metrics {got} do not match BENCHMARK.json {units}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
