"""Benchmark of stagepomdp: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload exact-routes --seed 1 --seconds 40 --trace 0

Runs against the sources in ``src/`` of the checkout it sits in, in one
single-threaded process.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from spans around the program's
public functions.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark measures a single-threaded process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up is measured this many times per run, in fresh interpreters
SETUP_SAMPLES = 3
#: a set-up sample that takes longer than this is a broken run
SETUP_TIMEOUT_S = 60
#: jobs above the reported tail latency
TAIL_RANK = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact-routes", "monte-carlo", "value-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: tiny inputs, for testing the benchmark itself")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    return parser.parse_args(argv)


def _import_program():
    """Import the package from ./src; exit 2 when the checkout has none."""
    if not os.path.isfile(os.path.join(SRC, "stagepomdp", "__init__.py")):
        print(f"error: no stagepomdp sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import stagepomdp
    if not os.path.abspath(stagepomdp.__file__).startswith(SRC):
        print("error: stagepomdp was not imported from ./src", file=sys.stderr)
        raise SystemExit(2)


def reference_kernel_ms(reps=5):
    """Median time of a fixed pure-Python plus small-numpy kernel.

    It does not call the program, so it moves only with the machine.
    """
    import numpy as np

    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0.0
        for i in range(150_000):
            acc += (i % 7) * 0.5
        mat = np.full((8, 8), 1.0 / 8.0)
        vec = np.arange(8.0)
        for _ in range(8_000):
            vec = mat @ vec + 1.0
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def machine_facts():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
    }


def measure_setup(args):
    """Median seconds from interpreter start to the first timed job."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return statistics.median(samples)


def span_cost_s(reps=5, calls=20_000):
    """Measured cost of one span: a traced no-op call minus a bare one."""
    import tracing

    def noop():
        return None

    costs = []
    for _ in range(reps):
        tracer = tracing.Tracer()
        traced = tracer.wrap(noop, "probe")
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def tail_latency(latencies):
    """The latency with exactly TAIL_RANK jobs above it (the slowest if fewer)."""
    ordered = sorted(latencies, reverse=True)
    return ordered[min(TAIL_RANK, len(ordered) - 1)]


def layer_metrics(agg, visits, setup_agg):
    """Per-layer numbers of one traced round; see the README for each."""
    calls, self_s, total_s = agg["calls"], agg["self_s"], agg["total_s"]

    def per_call_us(name):
        return self_s[name] / calls[name] * 1e6 if calls[name] else 0.0

    sim_s = self_s["epochs.sim"]
    enum_s = self_s["mimic.enumerated_joint"] + self_s["evaluate.discounted_truncated"]
    out = {
        "epochs.sim_stages_per_s": agg["stages"] / sim_s if sim_s else 0.0,
        "epochs.sim_self_s": sim_s,
        "epochs.operator_calls": calls["epochs.operator"],
        "epochs.operator_us": per_call_us("epochs.operator"),
        "strategies.history_dist_ms": self_s["strategies.history_dist"] * 1e3,
        "strategies.cursor_visits": visits,
        "strategies.visits_per_s": visits / enum_s if enum_s else 0.0,
        "mimic.closed_form_joint_us": per_call_us("mimic.closed_form_joint"),
        "mimic.enumerated_joint_ms": self_s["mimic.enumerated_joint"] * 1e3,
        "mimic.filter_machine_ms": self_s["mimic.filter_machine"] * 1e3,
        "mimic.mc_action_ms": self_s["mimic.mc_action"] * 1e3,
        "evaluate.chain_build_ms": self_s["evaluate.chain_build"] * 1e3,
        "evaluate.cesaro_ms": self_s["evaluate.cesaro"] * 1e3,
        "evaluate.longrun_mc_ms": self_s["evaluate.longrun_mc"] * 1e3,
        "evaluate.discounted_mc_ms": self_s["evaluate.discounted_mc"] * 1e3,
        "evaluate.discounted_truncated_ms":
            self_s["evaluate.discounted_truncated"] * 1e3,
        "evaluate.belief_grid_ms": self_s["evaluate.belief_grid"] * 1e3,
        "evaluate.belief_points": agg["belief_points"],
        "evaluate.tabular_value_ms": self_s["evaluate.tabular_value"] * 1e3,
        "textio.parse_ms": setup_agg["self_s"]["textio.parse"] * 1e3,
        "textio.serialize_ms": setup_agg["self_s"]["textio.serialize"] * 1e3,
        "model.transform_us": per_call_us("model.transform"),
        "cli.run_ms": self_s["cli.run"] * 1e3,
    }
    out["verify.suite_s.fully-observed"] = total_s["verify.suite.fully-observed"]
    return out


#: units that the suffix of the metric's name does not give
UNITS = {
    "peak_rss_mb": "MB", "epochs.sim_stages_per_s": "stages/s",
    "epochs.operator_calls": "count", "strategies.cursor_visits": "count",
    "strategies.visits_per_s": "1/s", "evaluate.belief_points": "count",
}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.startswith("verify.suite_s."):
        return "s"
    return name.rsplit("_", 1)[1]


def run(args):
    import tracing
    import workloads

    if args.setup_probe:
        workload = workloads.make(args.workload, args.seed, args.size)
        print("ready", flush=True)
        workload.close()
        return 0

    facts = machine_facts()
    facts["machine.ref_ms"] = reference_kernel_ms()
    setup_s = None if args.trace else measure_setup(args)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        span_cost = span_cost_s()
        tracer.install()
        setup_mark = tracer.mark()
    workload = workloads.make(args.workload, args.seed, args.size)
    if tracer is not None:
        setup_agg = tracer.aggregate(setup_mark)
        tracer.uninstall()

    try:
        walls, round_latencies, layer_rows, overheads = [], [], [], []
        attempted = failed = 0
        wrong = []
        begin = time.perf_counter()
        rounds = 0
        while True:
            if tracer is not None:
                tracer.install()
                mark = tracer.mark()
            visits_before = workload.counter.visits
            wall, latencies, outputs = workload.run_round(tracer)
            if tracer is not None:
                tracer.uninstall()
                visits = workload.counter.visits - visits_before
                layer_rows.append(layer_metrics(tracer.aggregate(mark), visits,
                                                setup_agg))
                overheads.append((len(tracer.spans) - mark[0]) * span_cost)
            else:
                walls.append(wall)
                round_latencies.append(latencies)
            n_failed, round_wrong = workload.check_round(outputs)
            attempted += len(outputs)
            failed += n_failed
            wrong.extend(round_wrong)
            rounds += 1
            # start another round only if it should end within the run
            elapsed = time.perf_counter() - begin
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break
        info = workload.info()
    finally:
        workload.close()

    for message in wrong[:20]:
        print(f"wrong: {message}", file=sys.stderr)
    if tracer is not None:
        trace_path = os.path.join(
            workloads.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(trace_path)
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
        values = {name: statistics.median(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        values["machine.ref_ms"] = facts["machine.ref_ms"]
        values["trace.overhead_s"] = statistics.median(overheads)
    else:
        # each job's median over the rounds: a slow spell of the host moves
        # a job's latency only if it covers more than half of the rounds
        per_job = [statistics.median(column) for column in zip(*round_latencies)]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "job_p50_ms": statistics.median(per_job) * 1e3,
            "job_tail_ms": tail_latency(per_job) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    info["rounds"] = rounds
    print(json.dumps({"machine": facts, "workload": info}))
    metrics = {name: {"value": value, "unit": _unit(name)}
               for name, value in values.items()}
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    _import_program()
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
