"""The benchmark under perfbench/ wraps the program's public functions by
name; every name it wraps must exist, or traced runs fail when they start."""

import inspect
import os
import sys

from stagepomdp import evaluate

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_traced_functions_exist():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    missing = [f"{module.__name__}.{name}" for module, name, _ in tracing.TRACED
               if not callable(getattr(module, name, None))]
    assert not missing


def test_value_estimate_positional_order():
    # the value-sweep jobs pass four positional arguments, and the tracer
    # reads grid_resolution as argument 3 to count belief points
    params = list(inspect.signature(evaluate.discounted_value_estimate).parameters)
    assert params[:4] == ["model", "lam", "h", "grid_resolution"]
