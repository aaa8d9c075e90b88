#!/usr/bin/env python3
"""The repository benchmark: builds cuzc_bench_suite and runs its workloads.

One run, printing one JSON result line last (BENCHMARK.json's command):
    python3 bench/suite/run.py --workload hit_storm --seed 1 --seconds 20 --trace 0

Sets of runs on one build, each run a fresh process, in alternating order,
plus one traced run per workload for the per-layer table:
    python3 bench/suite/run.py --runs 5 [--workloads a,b] [--seconds 20] [--out FILE]
    python3 bench/suite/run.py --calibrate [--out FILE]     (--runs 5, spreads vs bounds)
    python3 bench/suite/run.py --compare A.json B.json      (BENCHMARK.json bounds)

The build goes to $CARGO_TARGET_DIR (default .bench_build) and traces to
.bench_out, both under the repository root. CUZC_FAULTS and CUZC_SIMD are
removed from the benchmark's environment.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "suite"
EXE = BUILD / "cuzc_bench_suite"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170
SCRUBBED_ENV = ("CUZC_FAULTS", "CUZC_SIMD")


class RunError(Exception):
    """The benchmark itself could not run (as opposed to a failed gate)."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    return json.loads(SPEC.read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RunError(f"library sources not found under {ROOT / 'src'}")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(SUITE), "-B", str(BUILD), *generator,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "cuzc_bench_suite",
                        "-j", jobs], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        raise RunError(f"build failed: {e}") from e


def bench_env():
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    return env


def check_trace(path):
    """Returns a problem with the Chrome trace at `path`, or None."""
    try:
        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        by_id = {e["args"]["span_id"]: e for e in spans}
        for e in spans:
            if not all(k in e for k in ("name", "ts", "dur", "pid", "tid")):
                return f"span {e['args']['span_id']} lacks a trace-event field"
            parent = e["args"]["parent_span_id"]
            if parent >= 0 and by_id[parent]["args"]["request_id"] != e["args"]["request_id"]:
                return f"span {e['args']['span_id']} does not share its parent's request id"
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"trace {path.name} is not valid trace-event JSON: {e!r}"
    return None if spans else "trace has no spans"


def run_bench(workload, seed, seconds, trace):
    """One fresh cuzc_bench_suite process; returns its result object."""
    args = [str(EXE), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    trace_path = OUT / f"trace-{workload}-{seed}.json"
    if trace:
        OUT.mkdir(exist_ok=True)
        args.append(f"--trace-out={trace_path}")
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, env=bench_env(),
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise RunError(f"cuzc_bench_suite did not finish: {e}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RunError(f"cuzc_bench_suite exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if trace and result["correct"]:
        problem = check_trace(trace_path)
        if problem:
            result.update(correct=False, error=problem)
    return result


def single_run(args):
    spec = load_spec()
    expected = spec["per_layer" if args.trace else "end_to_end"]
    build()
    result = run_bench(args.workload, args.seed, args.seconds, args.trace)
    if result["correct"]:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in expected}
        if got != want:
            raise RunError(f"metrics {sorted(got.items())} disagree with BENCHMARK.json")
    else:
        log(f"run.py: {args.workload}: correctness gate failed: {result.get('error')}")
    metrics = {m["name"]: result["metrics"][m["name"]]
               for m in expected if m["name"] in result["metrics"]}
    print(json.dumps({"correct": result["correct"], "attempted": max(1, result["attempted"]),
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


# --- Sets of runs --------------------------------------------------------

def host_record(simd):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def git(*cmd):
        try:
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    sha = git("rev-parse", "HEAD") or "unknown"
    return {"cpu": cpu, "machine": platform.machine(), "system": platform.system(),
            "nproc": os.cpu_count(), "simd": simd, "git_sha": sha,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def run_sets(workloads, runs, seconds):
    """`runs` untraced runs per workload (seed = run number), alternating the
    workload order each round, then one traced run per workload."""
    record = {"seconds": seconds, "runs": {w: [] for w in workloads}, "layers": {}}
    for r in range(runs):
        for w in (workloads if r % 2 == 0 else workloads[::-1]):
            log(f"run.py: {w} run {r + 1}/{runs}")
            result = run_bench(w, r + 1, seconds, False)
            if not result["correct"]:
                raise RunError(f"{w}: correctness gate failed: {result.get('error')}")
            record["runs"][w].append(result)
    for w in workloads:
        log(f"run.py: {w} traced run")
        result = run_bench(w, 1, seconds, True)
        if not result["correct"]:
            raise RunError(f"{w}: traced run failed a gate: {result.get('error')}")
        record["layers"][w] = result["metrics"]
    first = next(iter(record["runs"].values()))[0]
    record["host"] = host_record(first["simd"])
    record["summary"] = {
        w: {name: dict(unit=results[0]["metrics"][name]["unit"],
                       **summarize([x["metrics"][name]["value"] for x in results]))
            for name in results[0]["metrics"]}
        for w, results in record["runs"].items()}
    return record


def print_summary(record):
    print(f"{'workload':<11} {'metric':<16} {'unit':<5} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'n':>3}")
    for w, metrics in record["summary"].items():
        for name, s in metrics.items():
            print(f"{w:<11} {name:<16} {s['unit']:<5} {s['median']:>12.4f} {s['q1']:>12.4f} "
                  f"{s['q3']:>12.4f} {s['spread']:>7.2%} {s['n']:>3}")
    print()
    print("per-layer (one traced run each); share = time / e2e.request_ms (1/throughput)")
    for w, metrics in record["layers"].items():
        per_request = metrics["e2e.request_ms"]["value"]
        for name, m in metrics.items():
            scale = {"ms": 1.0, "us": 1e-3}.get(m["unit"])
            share = f"{m['value'] * scale / per_request:>8.2%}" if scale and per_request else ""
            print(f"{w:<11} {name:<28} {m['value']:>16.4f} {m['unit']:<9} {share}")


def calibration(record, spec):
    """Observed spread (IQR / median) next to each end-to-end bound."""
    out = {}
    for m in spec["end_to_end"]:
        spreads = {w: s[m["name"]]["spread"] for w, s in record["summary"].items()}
        out[m["name"]] = {"bound": m["bound"], "spread": spreads,
                          "max_spread_over_bound": max(spreads.values()) / m["bound"]}
    for name, c in out.items():
        log(f"run.py: {name:<16} bound {c['bound']:.0%}  worst spread "
            f"{c['max_spread_over_bound'] * c['bound']:.2%}")
    return out


def compare(path_a, path_b, spec):
    """Median of B against median of A, per workload and end-to-end metric."""
    a, b = (json.loads(Path(p).read_text())["summary"] for p in (path_a, path_b))
    regressions = 0
    print(f"{'workload':<11} {'metric':<16} {'A median':>12} {'B median':>12} {'worse':>8} "
          f"{'bound':>6}  verdict")
    for w in a:
        if w not in b:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            ma, mb = a[w][name]["median"], b[w][name]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif a[w][name]["spread"] > m["bound"]:
                verdict = "unresolved (A spread above bound)"
            print(f"{w:<11} {name:<16} {ma:>12.4f} {mb:>12.4f} {worse:>8.2%} "
                  f"{m['bound']:>6.0%}  {verdict}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int)
    p.add_argument("--workloads")
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--out")
    args = p.parse_args()
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        if args.workload:
            args.seconds = seconds
            return single_run(args)
        if args.compare:
            return compare(*args.compare, spec)
        if args.runs or args.calibrate:
            workloads = (args.workloads.split(",") if args.workloads
                         else [w["name"] for w in spec["workloads"]])
            build()
            record = run_sets(workloads, args.runs or 5, seconds)
            print_summary(record)
            if args.calibrate:
                record["calibration"] = calibration(record, spec)
            out = Path(args.out) if args.out else OUT / (
                "calibration.json" if args.calibrate else "runs.json")
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(record, indent=1) + "\n")
            log(f"run.py: wrote {out}")
            return 0
        p.error("give --workload, --runs, --calibrate or --compare")
    except (RunError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
