#!/usr/bin/env python3
"""Builds perf_ledger (Release) and runs it; compares two sets of results.

  python3 bench/perf/run.py --workload NAME [perf_ledger flags]
  python3 bench/perf/run.py --workload all [--json-out PATH] [flags]
  python3 bench/perf/run.py --compare A B
  python3 bench/perf/run.py --smoke PATH/TO/perf_ledger

The build lands in $CARGO_TARGET_DIR/perf_ledger (default .bench_build/ at
the repository root); build output goes to stderr so the last stdout line
stays perf_ledger's result line. `--workload all` runs every workload in its
own process and merges their --json-out files into one. `--compare` takes
two --json-out files or directories of them (a directory pools every
*.json in it), and prints, per workload and metric, the change of the median
from A to B; it exits 1 when any end-to-end metric got worse by more than its
bound, and prints layer metrics as "info" rows without a verdict. `--smoke`
is the CTest check: every
workload at --quick size, result keys against BENCHMARK.json, all output
checks passing.
"""

import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def build():
    """Configures and builds perf_ledger; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perf_ledger")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    build_step = ["cmake", "--build", build_dir, "--target", "perf_ledger", "-j", jobs]
    for step in (configure, build_step):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perf_ledger")


def flag_value(args, name):
    """Value of --name in args (either --name value or --name=value)."""
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def replace_flag(args, name, value):
    """args without --name, plus --name value when value is not None."""
    out, skip = [], False
    for arg in args:
        if skip:
            skip = False
        elif arg == name:
            skip = True
        elif not arg.startswith(name + "="):
            out.append(arg)
    return out + ([name, value] if value is not None else [])


def workload_names(binary):
    listed = subprocess.run([binary, "--list"], capture_output=True, text=True, check=True)
    return listed.stdout.split()


def run_all(binary, args):
    """Each workload in its own process; merges the per-workload JSON."""
    json_out = flag_value(args, "--json-out")
    events = flag_value(args, "--trace-events")
    status, runs = 0, []
    for name in workload_names(binary):
        child = replace_flag(args, "--workload", name)
        part = None
        if json_out:
            part = f"{json_out}.{name}.part"
            child = replace_flag(child, "--json-out", part)
        if events:
            stem, ext = os.path.splitext(events)
            child = replace_flag(child, "--trace-events", f"{stem}.{name}{ext}")
        code = subprocess.run([binary] + child).returncode
        status = status or code
        if part and os.path.exists(part):
            with open(part) as f:
                runs.append(json.load(f))
            os.remove(part)
    if json_out:
        host = runs[0]["host"] if runs else {}
        with open(json_out, "w") as f:
            json.dump({"bench": "perf_ledger", "host": host, "runs": runs}, f, indent=1)
    return status


def load_runs(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name) as f:
            data = json.load(f)
        runs += data.get("runs", [data])
    return runs


def compare(path_a, path_b):
    by_workload = {}
    for side, path in (("a", path_a), ("b", path_b)):
        for run in load_runs(path):
            by_workload.setdefault(run["workload"], {"a": [], "b": []})[side].append(run)
    worst = 0
    print(f"{'workload':22} {'metric':22} {'A median':>14} {'B median':>14} "
          f"{'worse by':>9} {'bound':>7}  verdict")
    for workload in sorted(by_workload):
        sides = by_workload[workload]
        if not sides["a"] or not sides["b"]:
            print(f"{workload:22} (only in {'A' if sides['a'] else 'B'})")
            continue
        for name, meta in sides["a"][0]["metrics"].items():
            values = [[r["metrics"][name]["value"] for r in sides[s] if name in r["metrics"]]
                      for s in ("a", "b")]
            if not values[1]:
                print(f"{workload:22} {name:22} (missing in B)")
                continue
            a, b = statistics.median(values[0]), statistics.median(values[1])
            change = 0.0 if a == b else (b - a) / abs(a) if a else float("inf")
            worse = -change if meta["better"] == "higher" else change
            if meta["kind"] != "end_to_end":
                print(f"{workload:22} {name:22} {a:14.6g} {b:14.6g} {100 * worse:8.2f}% "
                      f"{'-':>7}  info")
                continue
            ok = worse <= meta["bound"] + 1e-12
            worst = worst or (0 if ok else 1)
            print(f"{workload:22} {name:22} {a:14.6g} {b:14.6g} {100 * worse:8.2f}% "
                  f"{100 * meta['bound']:6.1f}%  {'ok' if ok else 'WORSE'}")
    return worst


def smoke(binary):
    """Quick runs of every workload; keys, units and checks against BENCHMARK.json."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = workload_names(binary)
    assert names == [w["name"] for w in bench["workloads"]], names
    for name in names:
        for trace, listed in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            out = f"perf_ledger_smoke.{name}.{trace}.json"
            done = subprocess.run([binary, "--workload", name, "--quick", "--trace", trace,
                                   "--json-out", out], capture_output=True, text=True)
            assert done.returncode == 0, (name, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, got, want)
            with open(out) as f:
                full = json.load(f)
            os.remove(out)
            assert full["correct"] and all(c["failures"] == 0 for c in full["checks"].values())
            for key in ("host", "shape", "repetitions", "checks", "metrics"):
                assert key in full, key
            for m in listed:
                meta = full["metrics"][m["name"]]
                assert meta["better"] == m["better"], (m, meta)
                assert meta["bound"] == m.get("bound", 0.0), (m, meta)
    print(f"smoke ok: {len(names)} workloads")
    return 0


def main(argv):
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["--smoke"] and len(argv) == 2:
        return smoke(argv[1])
    binary = build()
    if flag_value(argv, "--workload") == "all":
        return run_all(binary, argv)
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
