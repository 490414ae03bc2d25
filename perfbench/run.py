"""flowguard benchmark: one workload under one seed, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, end to end and then layer by layer:

    for w in dual_track_cli neighbors_dup; do
        for t in 0 1; do python3 perfbench/run.py --workload $w --seed 1 --seconds 45 --trace $t; done
    done

Run from the root of a flowguard checkout. Each instance of the workload
runs in a process of its own (perfbench/worker.py), one at a time: a closed
loop with one client. The run cycles through the workload's input sets,
all derived from --seed, until --seconds have passed (each set at least
once); every repeat of a set must give byte-identical outputs. After each
untraced instance, separate processes load the bundles it saved and time
the scoring of fresh flows. Every untraced instance and scoring process
times its own set-up; a first, untimed set-up-only process warms the page
cache.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced instances and reports the per-layer metrics, then times the LOF
sweep. Every metric is printed by name with its unit; the last line of
stdout is the JSON result. Spans of the first traced instance are written
to .perfbench_traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_LIMIT_S = 170.0  # every process of a run has ended by then


def blas_env():
    threads = str(min(SPEC["blas_threads"], os.cpu_count() or 1))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Child:
    """Runs worker.py processes one at a time and reaps each with its rusage."""

    def __init__(self, workload, work, deadline):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = blas_env()
        self.count = 0

    def run(self, mode, seed, *extra):
        """(result dict or None, peak RSS in MB, directory) of one worker process.

        The directory holds what the process wrote; clean() removes it.
        """
        self.count += 1
        child_dir = self.work / str(self.count)
        child_dir.mkdir()
        result_path = child_dir / "result.json"
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), mode, self.workload, str(seed),
             str(child_dir), str(result_path), *map(str, extra)],
            env=self.env, stdout=subprocess.DEVNULL)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > self.deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                print(f"{mode} seed {seed}: killed at the run's time limit")
                break
            time.sleep(0.02)
        result = None
        if proc.returncode == 0 and result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            print(f"{mode} seed {seed}: worker exited with {proc.returncode}")
        return result, usage.ru_maxrss / 1024.0, child_dir

    def clean(self):
        for child_dir in self.work.iterdir():
            shutil.rmtree(child_dir, ignore_errors=True)


def describe(name, values, unit):
    values = sorted(values)
    print(f"{name} = {statistics.median(values):.6g} {unit} "
          f"(median of {len(values)}; min {values[0]:.6g}, max {values[-1]:.6g})")


def measure(args, child, start):
    wl = SPEC["workloads"][args.workload]
    seeds = [args.seed * 1000 + 2 * i for i in range(wl["input_sets"])]

    # A first set-up warms the page cache and writes bytecode; it is not timed.
    result, _, _ = child.run("setup", seeds[0])
    if result is None:
        return None
    env = dict(result["env"], seed=args.seed, input_seeds=seeds)
    print("env " + json.dumps(env, sort_keys=True))

    modes = ("run", "trace") if args.trace else ("run",)
    # Scoring is timed in fresh processes that load an instance's saved
    # bundles, as a deployed scorer runs. Inside the instance, the heap that
    # training leaves behind moves the scoring speed of one input set by 20%.
    scorers = 0 if args.trace else SPEC["score_processes_per_instance"]
    sweep_reserve = 60.0 if args.trace else 0.0
    # The host's speed drifts over tens of seconds. Every untraced instance
    # and every scoring process times its own set-up, so that the samples
    # span the whole run as wall_s does.
    setups = []

    def time_scoring(instance, seed, bundle_dir):
        instance["score_rates"], instance["score_problems"] = [], []
        for _ in range(scorers):
            result, _, _ = child.run("score", seed, bundle_dir)
            if result is None:
                instance["score_problems"].append("scoring process failed")
                continue
            setups.append(result["setup_s"])
            instance["score_rates"].append(result["score_rows_per_s"])
            if result["score_digests"] != [instance["score_digest"]]:
                instance["score_problems"].append(
                    "a scoring process scored differently from the instance")

    instances = []  # (mode, input seed, result or None, peak RSS MB)
    t0 = time.monotonic()
    rounds = 0
    while True:
        seed = seeds[rounds % len(seeds)]
        t_round = time.monotonic()
        for mode in modes:
            result, rss, child_dir = child.run(mode, seed)
            instances.append((mode, seed, result, rss))
            if result is not None and mode == "run":
                time_scoring(result, seed, child_dir)
        child.clean()
        rounds += 1
        now = time.monotonic()
        round_s = now - t_round
        if rounds >= len(seeds) and now - t0 + round_s > args.seconds:
            break
        if now + round_s + sweep_reserve > start + RUN_LIMIT_S:
            break

    first_digest = {}
    failed = 0
    for mode, seed, result, rss in instances:
        problems = ["worker failed"] if result is None else list(result["failures"])
        if result is not None:
            problems += result.get("score_problems", [])
            digest = first_digest.setdefault(seed, result["digest"])
            if result["digest"] != digest:
                problems.append(f"digest differs from the first run of seed {seed}")
            result["ok"] = not problems
            rates = " ".join(f"{r:.1f}" for r in result.get("score_rates", []))
            print(f"{mode} seed {seed}: wall_s {result['wall_s']:.4f} s, "
                  + (f"score_rows_per_s [{rates}] rows/s, " if rates else "")
                  + f"peak_rss_mb {rss:.1f} MB, digest {result['digest']}")
            print(f"{mode} seed {seed}: accuracy " + json.dumps(
                {k: round(v, 4) for k, v in result["accuracy"].items()}))
        for problem in problems:
            print(f"{mode} seed {seed}: CHECK FAILED: {problem}")
        failed += bool(problems)
    print(f"failed_ratio = {failed / len(instances):.4f} "
          f"({failed} failed of {len(instances)} attempted)")

    untraced = [(r, rss) for mode, _, r, rss in instances
                if mode == "run" and r is not None and r["ok"]]
    traced = [r for mode, _, r, _ in instances
              if mode == "trace" and r is not None and r["ok"]]
    if not untraced or (args.trace and not traced):
        return None
    wall = [r["wall_s"] for r, _ in untraced]
    metrics = {}
    if not args.trace:
        setups += [r["setup_s"] for r, _ in untraced]
        values = {"wall_s": wall, "setup_s": setups,
                  "peak_rss_mb": [rss for _, rss in untraced],
                  "score_rows_per_s": [x for r, _ in untraced for x in r["score_rates"]]}
        for m in BENCHMARK["end_to_end"]:
            describe(m["name"], values[m["name"]], m["unit"])
            metrics[m["name"]] = {"value": statistics.median(values[m["name"]]),
                                  "unit": m["unit"]}
    else:
        sweep, _, _ = child.run("lof_sweep", args.seed)
        if sweep is None:
            return None
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers.update(sweep["layers"])
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(wall))
        for m in BENCHMARK["per_layer"]:
            source = ("LOF sweep" if m["name"] in sweep["layers"]
                      else f"median of {len(traced)} traced instances")
            print(f"{m['name']} = {layers[m['name']]:.6g} {m['unit']} ({source})")
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        write_spans(traced[0]["spans"], args)
    return {"correct": failed == 0, "attempted": len(instances), "failed": failed,
            "metrics": metrics}


def write_spans(spans, args):
    out = Path.cwd() / ".perfbench_traces"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, t_start, t_end, parent, attrs in spans:
            fh.write(json.dumps({"name": name, "start": t_start, "end": t_end,
                                 "parent": parent, "attrs": attrs}) + "\n")
    print(f"spans of the first traced instance written to {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (Path.cwd() / "src" / "flowguard" / "__init__.py").is_file():
        print("perfbench: run from the root of a flowguard checkout "
              "(src/flowguard/__init__.py not found)", file=sys.stderr)
        return 2

    start = time.monotonic()
    work_root = Path.cwd() / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = measure(args, Child(args.workload, work, start + RUN_LIMIT_S), start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    if outcome is None:
        print("perfbench: no instance produced checked metrics", file=sys.stderr)
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
