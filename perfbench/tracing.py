"""Spans around calls into the program's public functions.

``Tracer.install`` replaces each traced function by a wrapper in the module
that defines it and in every other stagepomdp module that imported it by
name, and ``uninstall`` puts the originals back, so untimed rounds run the
program untouched.  Spans are kept in memory as tuples
``(name, start_ns, end_ns, parent, job, self_ns)``; a span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import math
import time
from collections import defaultdict

import stagepomdp
from stagepomdp import cli, epochs, evaluate, mimic, model, strategies, textio, verify

_CLOSED_FORM = (strategies.FiniteStateController, strategies.SequenceStrategy)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _discounted_name(args, kwargs):
    if _arg(args, kwargs, 4, "method", "exact") == "mc":
        return "evaluate.discounted_mc"
    if isinstance(_arg(args, kwargs, 1, "strategy"), _CLOSED_FORM):
        return "evaluate.discounted_exact"
    return "evaluate.discounted_truncated"


def _joint_name(args, kwargs):
    if isinstance(_arg(args, kwargs, 1, "strategy"), _CLOSED_FORM):
        return "mimic.closed_form_joint"
    return "mimic.enumerated_joint"


def _value_name(args, kwargs):
    if model.is_fully_observed(_arg(args, kwargs, 0, "model")):
        return "evaluate.tabular_value"
    return "evaluate.belief_grid"


def _mc_horizon(pomdp, eff, tol):
    """Stages per trajectory that discounted_payoff(method='mc') is asked for."""
    if eff >= 1.0:
        return 1
    bound_m = max(pomdp.max_abs_payoff, 1e-300)
    return max(1, math.ceil(math.log(tol / bound_m) / math.log1p(-eff)))


def requested_stages(func_name, args, kwargs):
    """Simulated stages a call asks for, read from its arguments.

    Epoch-driven simulators are counted at their expected length k/h, so
    the count depends on the request only, not on how it is simulated.
    """
    if func_name == "longrun_average_mc":
        return _arg(args, kwargs, 3, "horizon") * _arg(args, kwargs, 4, "n_traj")
    if func_name == "discounted_payoff":
        if _arg(args, kwargs, 4, "method", "exact") != "mc":
            return 0
        eff = _arg(args, kwargs, 2, "lam") * _arg(args, kwargs, 3, "h")
        horizon = _mc_horizon(args[0], eff, kwargs.get("tol", 1e-12))
        return min(horizon, 200_000) * kwargs.get("n_traj", 1000)
    if func_name == "mimic_action_mc":
        fil = _arg(args, kwargs, 3, "fil")
        return (_arg(args, kwargs, 4, "n_samples") * fil.length
                / _arg(args, kwargs, 2, "h"))
    return 0


#: (module, function name, span name or a function of (args, kwargs))
TRACED = [
    (textio, "parse_pomdp", "textio.parse"),
    (textio, "parse_controller", "textio.parse"),
    (textio, "serialize_pomdp", "textio.serialize"),
    (textio, "serialize_controller", "textio.serialize"),
    (model, "stage_duration_transform", "model.transform"),
    (model, "rescale_stage_duration", "model.transform"),
    (strategies, "exact_history_distribution", "strategies.history_dist"),
    (epochs, "simulate_gh", "epochs.sim"),
    (epochs, "simulate_epochs_gh", "epochs.sim"),
    (epochs, "epoch_memory_operator", "epochs.operator"),
    (mimic, "filtered_joint", _joint_name),
    (mimic, "mimic_action_exact", "mimic.action_exact"),
    (mimic, "mimic_action_mc", "mimic.mc_action"),
    (mimic, "build_mimic_strategy", "mimic.build"),
    (mimic, "build_filter_machine", "mimic.filter_machine"),
    (evaluate, "controller_product_chain", "evaluate.chain_build"),
    (evaluate, "machine_product_chain", "evaluate.chain_build"),
    (evaluate, "cesaro_average", "evaluate.cesaro"),
    (evaluate, "longrun_average_exact_fsc", "evaluate.longrun_exact"),
    (evaluate, "longrun_average_mc", "evaluate.longrun_mc"),
    (evaluate, "discounted_payoff", _discounted_name),
    (evaluate, "discounted_value_estimate", _value_name),
    (evaluate, "asymptotic_value_estimate", "evaluate.asymptotic"),
    (verify, "check_monotonicity", "verify.check"),
    (verify, "check_fully_observed_identity", "verify.check"),
    (cli, "run_cli", "cli.run"),
]

_MODULES = [stagepomdp, cli, epochs, evaluate, mimic, model, strategies, textio, verify]


def lattice_points(n_states, resolution):
    return math.comb(resolution + n_states - 1, n_states - 1)


class Tracer:
    """Records spans while installed; aggregates them per round."""

    def __init__(self):
        self.spans = []
        self.stages = 0.0
        self.belief_points = 0
        self.job = -1
        self._stack = []      # [start_ns, child_ns, index of the span's record]
        self._patched = []    # (module, attribute, original)

    # --- recording ------------------------------------------------------

    def wrap(self, func, namer):
        """Traced stand-in for ``func``.

        ``namer`` is the span name, or a function of (args, kwargs) giving it.
        """
        tracer = self
        func_name = func.__name__
        counts_stages = func_name in (
            "longrun_average_mc", "discounted_payoff", "mimic_action_mc")
        is_value = func_name == "discounted_value_estimate"

        def wrapper(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            if counts_stages:
                tracer.stages += requested_stages(func_name, args, kwargs)
            if is_value and name == "evaluate.belief_grid":
                res = _arg(args, kwargs, 3, "grid_resolution", 60)
                n_w = args[0].n_states
                tracer.belief_points += (lattice_points(n_w, res)
                                         + lattice_points(n_w, max(2, res // 2)))
            stack = tracer._stack
            parent = stack[-1][2] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [time.perf_counter_ns(), 0, index]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (name, frame[0], end, parent, tracer.job,
                                       duration - frame[1])

        wrapper.__wrapped__ = func
        wrapper.__name__ = func_name
        return wrapper

    # --- patching -------------------------------------------------------

    def install(self):
        if self._patched:
            return
        for home, attr, namer in TRACED:
            original = getattr(home, attr)
            wrapper = self.wrap(original, namer)
            for mod in _MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        suites = verify.SUITES
        for key, suite in list(suites.items()):
            self._patched.append((suites, key, suite))
            suites[key] = self.wrap(suite, f"verify.suite.{key}")

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched = []

    # --- aggregation ----------------------------------------------------

    def mark(self):
        """Position to aggregate from: spans, stages and lattice points so far."""
        return len(self.spans), self.stages, self.belief_points

    def aggregate(self, since):
        """Per span name: calls, total self time and total duration (seconds)."""
        start, stages, points = since
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for name, begin, end, _parent, _job, self_ns in self.spans[start:]:
            calls[name] += 1
            self_s[name] += self_ns * 1e-9
            total_s[name] += (end - begin) * 1e-9
        return {"calls": calls, "self_s": self_s, "total_s": total_s,
                "stages": self.stages - stages,
                "belief_points": self.belief_points - points}

    def write(self, path):
        """Spans as gzipped tab-separated lines: name, start, end, parent, job, self (ns)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\tself_ns\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")

