"""Convergence-study benchmark for dpgbem.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all      # every workload, one table
  python3 perfbench/run.py --workload all --smoke --seconds 1

Every study runs in a fresh child process (child.py) that imports the
unchanged package from ``src/`` and calls ``dpgbem.cli.run_convergence``
on one of the paper's fixed experiments.  Its CSV files are checked
against stored references (gate.py) before its numbers count.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it pairs untraced and traced studies and reports per-layer metrics from
the spans of the traced ones (spans.py).

Right before and right after each study the parent times a fixed
host-speed probe (calibrate.py).  The study times are reported both as measured and
normalized: divided by the probe time and multiplied by the probe's time
on a reference host, which cancels most of the drift of a shared host's
speed between runs.

The inputs are deterministic: each workload is a fixed configuration of
the CLI.  The seed only orders the studies, the set-up probes and, with
``--workload all``, the workloads within a run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every child succeeded and passed the gate, 1 when one did
not, and 2 when the program to measure is missing.
"""

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import calibrate
import gate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(HERE, ".work")

SQUARE_RATES = {c: (0.85, 1.15) for c in ("rate_energy", "rate_u",
                                           "rate_sigma")}
LSHAPE_SIGMA_RATE = {"rate_sigma": (0.55, 0.78)}


@dataclass(frozen=True)
class Workload:
    domain: str
    solver: str
    levels: int
    rate_windows: dict

    @property
    def reference(self):
        """Stem of the reference CSV files under reference/."""
        return "{}-{}-{}".format(self.domain, self.solver, self.levels)


# Why each workload, with the stages it stresses:
#   square-dpg-5   DPG path only, finest N = 8192 (41k trial dofs): the
#                  normal equations and the sparse SPD solve; bypasses
#                  every stage of the classical coupling.
#   lshape-jn-6    singular domain, classical coupling only: BEM assembly,
#                  the dense rank-one stabilization and mesh refinement;
#                  bypasses every DPG stage.
# Not in BENCHMARKED, run only when named:
#   square-both-5  the acceptance configuration: both solvers on one BEM
#                  assembly, the agreement CSV.  Its stages are those of
#                  the two above at N = 8192; dropped so that the runs of
#                  the two benchmarked workloads can be longer.
#   square-dpg-6   finest N = 32768 (164k trial dofs), where the SPD solve
#                  dominates.  One study takes about a minute, too long
#                  for the benchmark's run budget.
WORKLOADS = {
    "square-dpg-5": Workload("square", "dpg", 5, SQUARE_RATES),
    "lshape-jn-6": Workload("lshape", "jn", 6, LSHAPE_SIGMA_RATE),
    "square-both-5": Workload("square", "both", 5, SQUARE_RATES),
    "square-dpg-6": Workload("square", "dpg", 6, SQUARE_RATES),
}
BENCHMARKED = ("square-dpg-5", "lshape-jn-6")
SMOKE_LEVELS = 2
# A two-level study's finest level takes ~0.2 s, where fixed per-call
# costs between the stages are a visible share.
SMOKE_MIN_COVERAGE = 0.5

END_TO_END_UNITS = {"wall_norm_s": "s", "finest_level_norm_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# Printed in the table for reference, not part of the result line.
RAW_UNITS = {"wall_s": "s", "finest_level_s": "s", "probe_s": "s"}
PROBES_PER_STUDY = 2      # set-up probes scheduled with every study
MIN_SETUP_SAMPLES = 12    # set-up samples per workload and run
RUN_LIMIT_S = 170.0       # no child may run past this point of a run
MAX_SECONDS = 120.0       # leaves room for the last study and the probes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def child_env():
    """Environment of every child: one BLAS thread, and bytecode cached
    under WORK_DIR, so that set-up after the warm-up loads compiled
    modules as an installed package would, and no child writes outside
    the checkout.  With one thread a study runs on one core, like the
    host-speed probe that normalizes it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK_DIR, "pycache")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class ChildOutcome:
    setup_s: float = None
    lines: list = None
    error: str = None


def run_child(argv, env, deadline):
    """Run child.py with argv; time its set-up by the READY line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE)
    out, ready_at = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready_at is None and b"READY\n" in out:
                ready_at = time.perf_counter()
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except (TimeoutError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        return ChildOutcome(error="timed out")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code < 0:
        return ChildOutcome(error="killed by signal {}".format(
            signal.Signals(-code).name))
    if code != 0:
        return ChildOutcome(error="exit code {}".format(code))
    if ready_at is None:
        return ChildOutcome(error="no READY line")
    lines = out.decode().splitlines()
    return ChildOutcome(setup_s=ready_at - start,
                        lines=lines[lines.index("READY") + 1:])


class Bench:
    """Schedules the children of one benchmark run and collects samples."""

    def __init__(self, names, smoke, seed, trace):
        self.rng = random.Random(seed)
        self.trace = trace
        self.nproc = len(os.sched_getaffinity(0))
        self.env = child_env()
        self.probe = calibrate.Probe()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.min_coverage = (SMOKE_MIN_COVERAGE if smoke
                             else spans.MIN_COVERAGE)
        self.workloads = {}
        for name in names:
            w = WORKLOADS[name]
            if smoke:
                w = Workload(w.domain, w.solver, SMOKE_LEVELS, w.rate_windows)
            self.workloads[name] = w
        self.samples = {name: {key: [] for key in
                               list(END_TO_END_UNITS) + list(RAW_UNITS)
                               + ["traced_wall_s", "layers"]}
                        for name in names}
        self.attempted = {name: 0 for name in names}
        self.failed = {name: 0 for name in names}
        self.count = 0

    def config(self, name):
        w = self.workloads[name]
        self.count += 1
        return {"domain": w.domain, "solver": w.solver, "levels": w.levels,
                "output_path": os.path.join(
                    WORK_DIR, "{}-{}.csv".format(name, self.count))}

    def fail(self, name, message):
        self.failed[name] += 1
        print("FAILED {}: {}".format(name, message), file=sys.stderr)

    def child(self, name, mode):
        """Run one child; returns its result dict, or None if it failed."""
        config = self.config(name)
        argv = [mode, json.dumps(config)]
        spans_path = os.path.join(WORK_DIR, name + ".spans.json")
        if mode == "traced":
            argv.append(spans_path)
        self.attempted[name] += 1
        probe_s = self.probe.seconds() if mode == "study" else None
        outcome = run_child(argv, self.env, self.deadline)
        if probe_s is not None:
            probe_s = (probe_s + self.probe.seconds()) / 2.0
        out_csv = config["output_path"]
        stem = os.path.splitext(out_csv)[0]
        try:
            if outcome.error:
                self.fail(name, "{} child {}".format(mode, outcome.error))
                return None
            try:
                result = (json.loads(outcome.lines[-1]) if outcome.lines
                          else {})
            except ValueError:
                self.fail(name, "{} child printed no result".format(mode))
                return None
            problems = []
            if mode in ("study", "traced"):
                problems = gate.check_study(
                    out_csv, self.workloads[name].reference,
                    self.workloads[name].rate_windows)
            if mode == "traced":
                problems += spans.trace_problems(
                    self.workloads[name].solver, result["fired"],
                    result["layers"]["trace.coverage"], self.min_coverage)
            if problems:
                self.fail(name, "; ".join(problems))
                return None
        finally:
            for path in (out_csv, stem + "_agreement.csv"):
                if os.path.exists(path):
                    os.remove(path)
        if mode in ("probe", "study"):
            self.samples[name]["setup_s"].append(outcome.setup_s)
        if probe_s is not None:
            result["probe_s"] = probe_s
        return result

    def study_block(self, name):
        """One study with its set-up probes (trace 0), or one untraced and
        one traced study (trace 1), in seeded order."""
        s = self.samples[name]
        modes = (["study", "traced"] if self.trace
                 else ["study"] + ["probe"] * PROBES_PER_STUDY)
        self.rng.shuffle(modes)
        for mode in modes:
            result = self.child(name, mode)
            if result is None or mode == "probe":
                continue
            if mode == "traced":
                s["traced_wall_s"].append(result["wall_s"])
                s["layers"].append(result["layers"])
            else:
                for key in ("wall_s", "finest_level_s", "peak_rss_mb",
                            "probe_s"):
                    s[key].append(result[key])
                scale = calibrate.REFERENCE_S / result["probe_s"]
                s["wall_norm_s"].append(result["wall_s"] * scale)
                s["finest_level_norm_s"].append(
                    result["finest_level_s"] * scale)

    def run(self, seconds):
        """Run blocks of every workload in seeded order until `seconds`
        have passed; returns the environment record."""
        os.makedirs(WORK_DIR, exist_ok=True)
        names = list(self.workloads)
        # Warm-up: fills the page cache and the bytecode caches, and
        # reports the library versions; its set-up time is not a sample.
        warm = self.child(names[0], "env")
        stop_at = time.perf_counter() + seconds
        while True:
            self.rng.shuffle(names)
            for name in names:
                self.study_block(name)
            if time.perf_counter() >= stop_at:
                break
        if not self.trace:
            for name in names:
                while (len(self.samples[name]["setup_s"]) < MIN_SETUP_SAMPLES
                       and self.child(name, "probe") is not None):
                    pass
        return dict(warm or {}, nproc=self.nproc,
                    mem_available_mb=mem_available_mb(),
                    blas_threads=self.env["OPENBLAS_NUM_THREADS"],
                    commit=git_commit())

    def medians(self, name, units):
        """Metric name -> (median, unit, sample count) of the untraced
        samples of one workload."""
        s = self.samples[name]
        return {key: (statistics.median(s[key]), unit, len(s[key]))
                for key, unit in units.items() if s[key]}

    def metrics(self, name):
        """Metric name -> (value, unit, sample count) for one workload."""
        s = self.samples[name]
        out = {}
        if not self.trace:
            return self.medians(name, END_TO_END_UNITS)
        if not (s["layers"] and s["wall_s"]):
            return out
        for key, unit in spans.per_layer_metric_units().items():
            if key == "trace.overhead_s":
                value = (statistics.median(s["traced_wall_s"])
                         - statistics.median(s["wall_s"]))
            else:
                value = statistics.median(m[key] for m in s["layers"])
            out[key] = (value, unit, len(s["layers"]))
        return out


def mem_available_mb():
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time, at most {:g} s".format(
                            MAX_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at levels=2")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error("--seconds must be in (0, {:g}]".format(MAX_SECONDS))
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "dpgbem", "cli.py")):
        print("src/dpgbem/cli.py not found under {}".format(ROOT),
              file=sys.stderr)
        return 2
    names = list(BENCHMARKED) if args.workload == "all" else [args.workload]
    bench = Bench(names, args.smoke, args.seed, bool(args.trace))
    env = bench.run(args.seconds)
    print("env " + json.dumps(dict(env, seed=args.seed, trace=args.trace,
                                   smoke=args.smoke)))

    row = "{:<14} {:<44} {:>14.6g} {:<6} n={}".format
    metrics = {}
    for name in names:
        rate = bench.failed[name] / bench.attempted[name]
        print(row(name, "failure_rate", rate, "ratio", bench.attempted[name]))
        if not args.trace:
            for key, (value, unit, n) in bench.medians(name,
                                                       RAW_UNITS).items():
                print(row(name, key, value, unit, n))
        for key, (value, unit, n) in bench.metrics(name).items():
            print(row(name, key, value, unit, n))
            label = key if len(names) == 1 else name + "." + key
            metrics[label] = {"value": value, "unit": unit}
    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
