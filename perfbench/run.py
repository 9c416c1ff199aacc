#!/usr/bin/env python3
"""End-to-end benchmark of exaclim: train -> emulate -> serve.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1

Run from the root of a source checkout. Builds perfbench_harness (Release)
into .bench_build/, generates the workload's inputs from --seed, runs the
workload in one process of its own, checks its outputs and prints every
metric by name with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer
ones (plus a span file under .bench_build/perfbench/results/). Exits
non-zero when an output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
RESULTS = os.path.join(BUILD, "results")

# Each workload's dataset (band limit L, years, members; monthly steps on an
# (L+1) x 2L grid), whether its rounds train on it, and the seconds of
# open-loop serving in each round (the closed loop that follows is 2 s).
WORKLOADS = {
    "pipeline-L32": {"data": (32, 20, 8), "train": True, "open_s": 1.0},
    "pipeline-long-L16": {"data": (16, 80, 8), "train": True, "open_s": 1.0},
    "serve-L32": {"data": (32, 20, 8), "train": False, "open_s": 3.0},
}
# Every workload serves a model trained on this dataset: pipeline-L32 its
# own, the others one trained while preparing inputs. Serving an L=16 model
# is bound by per-batch thread wake-ups, whose cost swings with the host's
# load (p50 0.39-1.16 ms over ten runs on a shared 4-core x86-64 virtual
# machine), so no workload serves one.
SERVED_DATA = (32, 20, 8)
# Open-loop arrivals per second. On the same machine, at 2000/s the engine
# was ~85% busy with 4-5-wide batches, and p50 swung 3.5 -> 22 ms as the
# host's steal rose from 5% to 18%; at 1000/s it stayed within 5.2-6.9 ms
# under the same steal.
OPEN_RATE = 1000.0
# Library switches cleared so they cannot change the measured program.
LIBRARY_ENV = ("EXACLIM_FAULTS", "EXACLIM_MEM_BUDGET", "EXACLIM_VERIFY",
               "EXACLIM_TUNE", "EXACLIM_THREADS", "EXACLIM_PIN")
# One workload's input generation and run together stay below this.
WORKLOAD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def threads():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the harness; exits 2 without sources."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no exaclim sources at %s; nothing to measure" % ROOT)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_harness",
                    "-j", str(threads())], check=True, stdout=sys.stderr)


def clean_env():
    env = dict(os.environ)
    for name in LIBRARY_ENV:
        env.pop(name, None)
    return env


def harness(args, env, deadline):
    cmd = [HARNESS] + [str(a) for a in args]
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                   timeout=max(deadline - time.monotonic(), 1.0))


def cpu_times():
    """(steal, total) jiffies of all CPUs since boot."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], sum(fields)


def environment(report):
    flags = set()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    return {
        "nproc": threads(),
        "threads": int(report["values"]["bench.team_threads"]),
        "tune": "fixed",
        "avx512f": "avx512f" in flags,
        "f16c": "f16c" in flags,
        "compiler": report.get("compiler"),
        "build_type": report.get("build_type"),
        "commit": commit,
        "machine": platform.machine(),
    }


def run_workload(name, seed, seconds, trace):
    """Generates inputs, runs the workload once, returns the harness report."""
    spec = WORKLOADS[name]
    env = clean_env()
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (name, seed, trace)
    try:
        def gen(dataset, path, model=None):
            band, years, members = dataset
            cmd = ["gen", "--band-limit", band, "--years", years,
                   "--ensembles", members, "--seed", seed, "--data", path]
            if model:
                # A workload that trains nothing in its rounds reports the
                # median of these trainings as its train_s: three, because
                # one training in a fresh process now and then takes 30%
                # longer.
                cmd += ["--model", model, "--report", gen_report,
                        "--trainings", 1 if spec["train"] else 3]
            harness(cmd, env, deadline)

        data = os.path.join(work, "data.bin")
        model = os.path.join(work, "served.bin")
        gen_report = os.path.join(work, "gen.json")
        serves_own = spec["train"] and spec["data"] == SERVED_DATA
        if spec["data"] == SERVED_DATA:
            gen(spec["data"], data, None if serves_own else model)
        else:
            gen(spec["data"], data)
            gen(SERVED_DATA, os.path.join(work, "served-data.bin"), model)

        schedule = os.path.join(work, "arrivals.txt")
        with open(schedule, "w") as f:
            for t in benchstats.poisson_schedule(seed, OPEN_RATE,
                                                     spec["open_s"]):
                f.write("%.9f\n" % t)

        out = os.path.join(RESULTS, tag + ".report.json")
        spans = os.path.join(RESULTS, tag + ".spans.json")
        run = ["run", "--data", data, "--work", work, "--schedule", schedule,
               "--seed", seed, "--train", int(spec["train"]),
               "--seconds", seconds,
               "--trace", trace, "--span-file", spans, "--out", out]
        if not serves_own:
            run += ["--serve-model", model]
        load_before = os.getloadavg()
        steal_before = cpu_times()
        harness(run, env, deadline)
        steal_after = cpu_times()
        load_after = os.getloadavg()

        with open(out) as f:
            report = json.load(f)
        if not serves_own:
            # The served model was trained, saved and checked while
            # preparing inputs: its checks belong to the run, and so do its
            # timings when the run trains nothing itself.
            with open(gen_report) as f:
                prepared = json.load(f)
            for check, ok in prepared["checks"].items():
                report["checks"][check] = (report["checks"].get(check, True)
                                           and ok)
            report["attempted"] += prepared["attempted"]
            report["failed"] += prepared["failed"]
            if not spec["train"]:
                report["samples"].update(prepared["samples"])
                report["values"].update(prepared["values"])
        report["env"] = environment(report)
        report["env"]["loadavg_before"] = load_before
        report["env"]["loadavg_after"] = load_after
        # Share of CPU time the hypervisor gave to others while the run
        # wanted it: serving metrics swing with it, training barely.
        report["values"]["bench.steal_share"] = (
            (steal_after[0] - steal_before[0]) /
            max(steal_after[1] - steal_before[1], 1))
        if trace:
            with open(spans) as f:
                events = json.load(f)["traceEvents"]
            layers = benchstats.self_time_by_layer(events, "bench.workload")
            report["self_time_by_layer"] = layers
            report["largest_layer"] = max(layers, key=layers.get)
            report["span_file"] = os.path.relpath(spans, ROOT)
        with open(out, "w") as f:
            json.dump(report, f, indent=1)
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def describe(name, report, metrics, declared):
    """Human-readable lines: environment, each metric with unit, checks."""
    env = report["env"]
    print("== %s  (%d threads, tune %s, %s %s, avx512f=%s f16c=%s, "
          "load %.2f -> %.2f, steal %.1f%%, commit %s)" %
          (name, env["threads"], env["tune"], env["build_type"],
           env["compiler"], env["avx512f"], env["f16c"],
           env["loadavg_before"][0], env["loadavg_after"][0],
           100.0 * report["values"]["bench.steal_share"], env["commit"]))
    units = {m["name"]: (m["unit"], m.get("better", "")) for m in declared}
    for key, value in metrics.items():
        unit, better = units[key]
        line = "  %-32s %14.6g %-10s %s" % (key, value, unit, better)
        samples = report["samples"].get(key)
        if samples and len(samples) > 1:
            s = benchstats.summarize(samples)
            line += "  [n=%d q1=%.4g q3=%.4g" % (s["n"], s["q1"], s["q3"])
            if s["tail_p"] is not None:
                line += " p%g=%.4g" % (s["tail_p"], s["tail"])
            line += "]"
        print(line)
    if "largest_layer" in report:
        layers = report["self_time_by_layer"]
        print("  largest layer by self time: %s (%.3f s); spans in %s" %
              (report["largest_layer"], layers[report["largest_layer"]],
               report["span_file"]))
    for check, ok in report["checks"].items():
        print("  check %-4s %s" % ("ok" if ok else "FAIL", check))
    for err in report["errors"]:
        print("  error %s" % err)


def result_line(results, section):
    """The final JSON line for (workload, report, metrics) results; with
    several workloads each metric name is prefixed "workload/"."""
    units = {m["name"]: m["unit"] for m in section}
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, report, metrics in results:
        out["correct"] = (out["correct"] and not report["errors"] and
                          all(report["checks"].values()))
        out["attempted"] += report["attempted"]
        out["failed"] += report["failed"]
        prefix = name + "/" if len(results) > 1 else ""
        for key, value in metrics.items():
            out["metrics"][prefix + key] = {"value": value,
                                            "unit": units[key]}
    return json.dumps(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = load_declared()
    section = declared["per_layer" if args.trace else "end_to_end"]
    build()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        started = time.monotonic()
        report = run_workload(name, args.seed, args.seconds, args.trace)
        metrics = (benchstats.per_layer_metrics(report) if args.trace
                   else benchstats.end_to_end_metrics(report))
        describe(name, report, metrics, section)
        log("%s took %.1f s" % (name, time.monotonic() - started))
        results.append((name, report, metrics))
    line = result_line(results, section)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
