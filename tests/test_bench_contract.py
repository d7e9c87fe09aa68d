"""The benchmark under perfbench/ wraps the program's public functions by
name; every name it wraps must exist, or traced runs fail when they start."""

import importlib
import inspect
import os
import sys

import numpy as np

from stagepomdp import evaluate, mimic, strategies
from stagepomdp.verify import random_pomdp_model

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _perfbench_module(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


def test_traced_functions_exist():
    tracing = _perfbench_module("tracing")
    missing = [f"{module.__name__}.{name}" for module, name, _ in tracing.TRACED
               if not callable(getattr(module, name, None))]
    assert not missing


def test_value_estimate_positional_order():
    # the value-sweep jobs pass four positional arguments, and the tracer
    # reads grid_resolution as argument 3 to count belief points
    params = list(inspect.signature(evaluate.discounted_value_estimate).parameters)
    assert params[:4] == ["model", "lam", "h", "grid_resolution"]


def test_traced_argument_positions_and_defaults():
    # the tracer names spans and counts simulated stages from these
    # arguments: it reads them by position, falls back on these defaults,
    # takes tol and n_traj from keywords only and caps a Monte Carlo
    # discounted play at 200,000 stages
    def params(func):
        return inspect.signature(func).parameters

    payoff = params(evaluate.discounted_payoff)
    assert list(payoff)[:5] == ["model", "strategy", "lam", "h", "method"]
    assert payoff["method"].default == "exact"
    for name, default in (("tol", 1e-12), ("n_traj", 1000)):
        assert payoff[name].default == default
        assert payoff[name].kind is inspect.Parameter.KEYWORD_ONLY
    assert list(params(evaluate.longrun_average_mc))[3:5] == ["horizon", "n_traj"]
    assert list(params(mimic.mimic_action_mc))[2:5] == ["h", "fil", "n_samples"]
    assert list(params(mimic.filtered_joint))[1] == "strategy"
    assert evaluate.MC_HORIZON_CAP == 200_000


def test_enumerated_jobs_stay_on_the_enumeration_route():
    # the benchmark's "enumerated" and opaque jobs exist to measure cursor
    # enumeration, so its opaque wrapper must have no finite form, while its
    # tables take the controller routes
    models = _perfbench_module("models")
    pomdp = random_pomdp_model()
    table = models.table_source(np.random.default_rng(0), pomdp, 2).strategy
    opaque = models.OpaqueStrategy(table, models.VisitCounter())
    assert opaque.controller(pomdp.n_signals) is None
    assert table.controller(pomdp.n_signals) is not None


def test_exact_routes_machines_are_exact(tmp_path, monkeypatch):
    # the exact-routes workload checks a filter machine's average against
    # its oracle only when merge_defect is 0; every one of its cycles
    # (ER_SHAPES x ER_H, seed 1) must get that check
    workloads = _perfbench_module("workloads")
    monkeypatch.setattr(workloads, "OUT_DIR", str(tmp_path))
    routes = workloads.ExactRoutes(1, "full")
    try:
        calls = [job.fn.args for job in routes.jobs
                 if job.name == "filter_machine.sequence"]
    finally:
        routes.close()
    assert len(calls) == len(workloads.ER_SHAPES) * len(workloads.ER_H)
    for pomdp, source, h in calls:
        machine = mimic.build_filter_machine(pomdp, source, h)
        assert machine.merge_defect == 0.0
        average = evaluate.cesaro_average(
            *evaluate.machine_product_chain(pomdp, machine))
        assert abs(average - evaluate.longrun_average_exact_fsc(
            pomdp, source, h).value) <= 1e-9


def test_operator_span_counts_misses_only():
    # epochs.operator_calls and epochs.operator_us read the spans of
    # epochs.epoch_memory_operator, which the held W_s stacks call on a miss
    tracing = _perfbench_module("tracing")
    pomdp = random_pomdp_model()
    source = strategies.SequenceStrategy([np.array([0.3, 0.7]), np.array([0.6, 0.4])])
    fil = strategies.History(0, ((1, 0),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        calls = []
        for _ in range(3):
            since = tracer.mark()
            mimic.mimic_action_exact(pomdp, source, 0.5, fil)
            calls.append(tracer.aggregate(since)["calls"]["epochs.operator"])
    finally:
        tracer.uninstall()
    assert calls == [1, 0, 0]
