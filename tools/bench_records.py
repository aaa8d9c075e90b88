#!/usr/bin/env python3
"""The checked-in bench records (BENCH_*.json): counter check and regeneration.

Usage:
  bench_records.py check BASELINE.json FRESH.json [BASELINE2.json FRESH2.json ...]
  bench_records.py regen

check: every per-(dataset, scale, kernel) "stats" counter of a fresh run
must equal its baseline's. The profiler counters are deterministic across
hosts, worker counts and SIMD backends, so drift means a kernel's data
movement changed; timings are ignored. Exit 1 with a diff on drift.

regen: run each bench that keeps a record here (from build/bench) with its
CI flags and the environment of its record, stamp the git revision and
rewrite the record. Loopback benches run twice and keep the second run:
the first of a batch reads cold. Exit 1 if a bench fails to run or a gate
fails; that record is still written, with the failure in its "gates".
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (record, bench, CI flags, environment, runs). The wall-clock record
# names its worker count in its "threads" field.
RECORDS = [
    ("BENCH_vgpu_wallclock.json", "bench_vgpu_wallclock", ["--scales=8,4", "--repeats=1"],
     {"CUZC_VGPU_THREADS": "4"}, 1),
    ("BENCH_simd_speedup.json", "bench_simd_speedup", ["--repeats=3", "--check"], {}, 1),
    ("BENCH_serve_throughput.json", "bench_serve_throughput",
     ["--requests=24", "--distinct=6"], {}, 1),
    ("BENCH_net_throughput.json", "bench_net_throughput", ["--requests=200", "--check"], {}, 2),
    ("BENCH_data_plane.json", "bench_data_plane", ["--check"], {}, 2),
    ("BENCH_net_streaming.json", "bench_net_streaming", ["--check"], {}, 2),
]

# Variables that steer a bench; each regen run starts without them.
STEERING = {"CUZC_VGPU_THREADS", "CUZC_SIMD", "CUZC_FAULTS", "CUZC_BENCH_SCALE"}


def keyed_stats(path):
    out = {}
    with open(path) as f:
        for row in json.load(f)["results"]:
            key = (row["dataset"], row["scale"], row["kernel"])
            if key in out:
                raise SystemExit(f"{path}: duplicate result row {key}")
            out[key] = row["stats"]
    return out


def check(paths):
    if len(paths) < 2 or len(paths) % 2 != 0:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures, compared = [], 0
    for base_path, fresh_path in zip(paths[::2], paths[1::2]):
        base, fresh = keyed_stats(base_path), keyed_stats(fresh_path)
        compared += len(base)
        for key in sorted(set(base) | set(fresh)):
            if key not in fresh:
                failures.append(f"{base_path}: {key}: missing from fresh run")
            elif key not in base:
                failures.append(f"{base_path}: {key}: not in baseline (new kernel? regen)")
            else:
                for counter in sorted(set(base[key]) | set(fresh[key])):
                    old, new = base[key].get(counter), fresh[key].get(counter)
                    if old != new:
                        failures.append(f"{base_path}: {key}: {counter} drifted {old} -> {new}")
    if failures:
        print("profiler counter drift against checked-in baseline:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        print("If the change is intentional, regenerate the records with\n"
              "  python3 tools/bench_records.py regen", file=sys.stderr)
        return 1
    print(f"profiler counters stable across {compared} kernel runs")
    return 0


def git_revision():
    """HEAD, marked -dirty when the sources the benches build from differ."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout.strip()
    dirty = git("status", "--porcelain", "--", "src", "bench", "tools", "CMakeLists.txt")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def regen():
    revision, status = git_revision(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for record, bench, flags, env, runs in RECORDS:
            run_env = {k: v for k, v in os.environ.items() if k not in STEERING} | env
            out = Path(tmp) / record
            cmd = [str(ROOT / "build" / "bench" / bench), *flags, f"--out={out}"]
            for _ in range(runs):
                code = subprocess.run(cmd, cwd=tmp, env=run_env,
                                      stdout=subprocess.DEVNULL).returncode
            if code not in (0, 1) or not out.exists():
                print(f"{record}: {bench} exited with status {code}", file=sys.stderr)
                status = 1
                continue
            # Stamp the revision after the "bench" key, keeping the layout.
            lines = out.read_text().splitlines(keepends=True)
            at = next(i for i, line in enumerate(lines) if line.startswith('  "bench": ')) + 1
            lines.insert(at, f'  "git_sha": "{revision}",\n')
            text = "".join(lines)
            failed = [g["name"] for g in json.loads(text)["gates"] if g["outcome"] == "fail"]
            (ROOT / record).write_text(text)
            print(f"{record}: written" + (f"; failed gates: {', '.join(failed)}" if failed
                                          else ""))
            status |= 1 if failed else 0
    return status


def main(argv):
    if argv[1:2] == ["check"]:
        return check(argv[2:])
    if argv[1:] == ["regen"]:
        return regen()
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
