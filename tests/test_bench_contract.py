"""The benchmark under perfbench/ wraps the program's public functions by
name; every name it wraps must exist, or traced runs fail when they start."""

import importlib
import inspect
import os
import sys

import numpy as np

from stagepomdp import evaluate
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
