"""The three benchmark workloads.

A workload is built once per process (its set-up) and then runs whole
rounds: every round calls the same jobs in the same order with the same
inputs and random streams, so rounds and runs are comparable.  Only the
job calls are timed; checks against the oracles run after the round.

A check returns None when the output is right, ``("failed", why)`` for an
operation that fails because of a known fault of the program (it is
counted in ``failed``), or ``("wrong", why)`` for a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import shutil
import sys
import tempfile
import time
import traceback
from functools import partial

import numpy as np

from stagepomdp import cli, evaluate, mimic, model, strategies, textio, verify

import models
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

FAILED = "failed"
WRONG = "wrong"


class Job:
    """One timed call: ``fn()`` runs the program, ``check(out)`` judges it."""

    __slots__ = ("name", "fn", "check", "key")

    def __init__(self, name, fn, check=None, key=None):
        self.name = name
        self.fn = fn
        self.check = check
        self.key = key


class Workload:
    """Jobs built at set-up, run in rounds, checked after each round."""

    name = ""

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.jobs = []
        self.setup_errors = []
        self.counter = models.VisitCounter()

    def run_round(self, tracer=None):
        """Run every job once; returns (wall seconds, latencies, outputs)."""
        latencies, outputs = [], []
        clock = time.perf_counter
        begin = clock()
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = index
            start = clock()
            try:
                out = job.fn()
            except Exception as exc:  # a failing operation is counted, not fatal
                out = exc
                traceback.print_exc(file=sys.stderr)
            latencies.append(clock() - start)
            outputs.append(out)
        return clock() - begin, latencies, outputs

    def check_round(self, outputs):
        """Returns (number of failed operations, list of wrong-output messages)."""
        failed, wrong = 0, list(self.setup_errors)
        for job, out in zip(self.jobs, outputs):
            if isinstance(out, Exception):
                failed += 1
                continue
            verdict = job.check(out) if job.check is not None else None
            if verdict is None:
                continue
            kind, why = verdict
            if kind == FAILED:
                failed += 1
            else:
                wrong.append(f"{job.name}: {why}")
        wrong.extend(self.cross_check(outputs))
        return failed, wrong

    def cross_check(self, outputs):
        """Checks that compare several jobs of one round."""
        return []

    def info(self):
        """Facts about the workload printed with every run."""
        return {"jobs_per_round": len(self.jobs)}

    def close(self):
        """Release files and directories made at set-up."""


def _close(value, reference, tol, what):
    if not abs(value - reference) <= tol:
        return (WRONG, f"{what}: {value!r} vs {reference!r} (tol {tol:.3g})")
    return None


def _round_trip_model(pomdp, errors):
    """Serialize and parse a model; record an error unless it comes back bit for bit."""
    text = textio.serialize_pomdp(pomdp)
    back = textio.parse_pomdp(text)
    same = (back.state_names == pomdp.state_names
            and back.action_names == pomdp.action_names
            and back.signal_names == pomdp.signal_names
            and all(np.array_equal(getattr(back, f), getattr(pomdp, f))
                    for f in ("signal_map", "payoff", "transition", "init")))
    if not same:
        errors.append("parse(serialize(m)) does not reproduce the model")
    return back, text


def _round_trip_controller(ctrl, pomdp, errors):
    text = textio.serialize_controller(ctrl, pomdp)
    back = textio.parse_controller(text, pomdp)
    same = all(np.array_equal(getattr(back, f), getattr(ctrl, f))
               for f in ("init_memory", "rule", "update"))
    if not same:
        errors.append("parse(serialize(c)) does not reproduce the controller")
    return back, text


# --- exact-routes ------------------------------------------------------------

#: (states, signals, history depth) of the seeded models; the numbers in
#: them come from the seed, the shapes do not, so every seed does the same
#: amount of work
ER_SHAPES = ((2, 1, 3), (3, 2, 3), (4, 2, 2), (6, 3, 2))
ER_H = (0.5, 1.0)
#: seed of the fixed layouts of the exact-routes models
ER_LAYOUT_SEED = 7
ER_LAMBDA = 0.5
FIG1_H = (0.3, 0.5, 0.8, 1.0)


def _controller_arrays(src):
    return src.rule, src.update, src.init_memory


def _posterior_action(src, hist):
    """The controller's own action at a history: memory posterior @ rule."""
    rule, update, init_memory = _controller_arrays(src)
    belief = np.zeros(rule.shape[0])
    belief[init_memory[hist.first_signal]] = 1.0
    for a, s in hist.steps:
        belief = belief * rule[:, a]
        belief = belief / belief.sum()
        belief = belief @ update[:, a, s, :]
    return belief @ rule


def _table_action(src, hist):
    if hist.length > src.depth:
        return src.default
    return src.table.get((hist.first_signal, hist.steps), src.default)


class ExactRoutes(Workload):
    """Closed-form and enumerated mimic actions, exact chains, CLI calls."""

    name = "exact-routes"

    def __init__(self, seed, size):
        super().__init__(seed, size)
        rng = np.random.default_rng([seed, 1])
        shapes = ER_SHAPES if size == "full" else ER_SHAPES[:2]
        self.workdir = tempfile.mkdtemp(prefix="exact-routes-", dir=OUT_DIR)
        self.mimic_sets = {}   # (case, route, h) -> list of (job index, history)
        for case, (n_w, n_s, depth) in enumerate(shapes):
            if size != "full":
                depth = 2
            # the seed draws the numbers; the layout (signal map, memory
            # updates) is fixed per shape, so every seed enumerates as many
            # cursors
            layout = np.random.default_rng([ER_LAYOUT_SEED, case])
            generated = models.dense_model(rng, n_w, n_s, layout_rng=layout)
            pomdp, text = _round_trip_model(generated, self.setup_errors)
            ctrl = models.controller_source(rng, pomdp, 2, layout_rng=layout)
            ctrl.strategy, ctrl_text = _round_trip_controller(
                ctrl.strategy, pomdp, self.setup_errors)
            seq = models.sequence_source(pomdp, ((0, 1), (0, 1, 1))[case % 2])
            table = models.table_source(rng, pomdp, 2)
            opaque = models.opaque_source(ctrl, self.counter)
            model_path = os.path.join(self.workdir, f"m{case}.pomdp")
            ctrl_path = os.path.join(self.workdir, f"m{case}.fsc")
            with open(model_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(ctrl_path, "w", encoding="utf-8") as fh:
                fh.write(ctrl_text)
            hists = models.all_histories(pomdp, depth)
            for h in ER_H:
                self._mimic_jobs(case, pomdp, h, hists,
                                 (("closed", ctrl), ("enumerated", opaque),
                                  ("table", table)))
                self._chain_jobs(case, pomdp, h, ctrl, seq, table, opaque, depth)
                cli_hist = models.history_text(pomdp, hists[-1])
                for spec, src in ((f"fsc:{ctrl_path}", ctrl), (seq.spec, seq)):
                    argv = ["mimic", model_path, "--h", repr(h), "--strategy", spec,
                            "--history", cli_hist]
                    self.jobs.append(Job(
                        "cli.mimic", partial(_run_cli, argv),
                        partial(self._check_cli, pomdp, src, h, hists[-1]),
                        key=(case, src.kind, h)))
        self._figure1_jobs()

    # -- job construction -------------------------------------------------

    def _mimic_jobs(self, case, pomdp, h, hists, routes):
        for route, src in routes:
            entries = self.mimic_sets.setdefault((case, route, h), [])
            for hist in hists:
                entries.append((len(self.jobs), hist))
                self.jobs.append(Job(
                    f"mimic.{route}",
                    partial(mimic.mimic_action_exact, pomdp, src.strategy, h, hist),
                    partial(_check_mimic_h1, src, h, hist),
                    key=(case, src.kind, h)))

    def _chain_jobs(self, case, pomdp, h, ctrl, seq, table, opaque, depth):
        ctrl_chain = oracles.controller_chain(pomdp, *_controller_arrays(ctrl), h)
        seq_chain = oracles.controller_chain(pomdp, *_controller_arrays(seq), h)
        eff = ER_LAMBDA * h
        add = self.jobs.append
        add(Job("longrun.controller",
                partial(evaluate.longrun_average_exact_fsc, pomdp, ctrl.strategy, h),
                partial(_check_cesaro, ctrl_chain), key=(case, "controller", h)))
        add(Job("longrun.sequence",
                partial(evaluate.longrun_average_exact_fsc, pomdp, seq.strategy, h),
                partial(_check_cesaro, seq_chain), key=(case, "sequence", h)))
        add(Job("filter_machine.sequence",
                partial(_machine_average, pomdp, seq.strategy, h),
                partial(_check_machine, seq_chain), key=(case, "sequence", h)))
        add(Job("discounted.exact",
                partial(evaluate.discounted_payoff, pomdp, ctrl.strategy, ER_LAMBDA, h),
                partial(_check_discounted, oracles.discounted_from_chain(*ctrl_chain, eff)),
                key=(case, "controller", h)))
        add(Job("discounted.truncated.opaque",
                partial(evaluate.discounted_payoff, pomdp, opaque.strategy, ER_LAMBDA, h),
                partial(_check_discounted, oracles.discounted_from_chain(*ctrl_chain, eff)),
                key=(case, "opaque", h)))
        add(Job("discounted.truncated.table",
                partial(evaluate.discounted_payoff, pomdp, table.strategy, ER_LAMBDA, h),
                partial(_check_discounted, oracles.table_discounted(
                    pomdp, table.table, table.default, table.depth, ER_LAMBDA, h)),
                key=(case, "table", h)))
        add(Job("history_dist.controller",
                partial(_history_dist, pomdp, ctrl.strategy, h, depth),
                partial(_check_history_dist, ctrl_chain, pomdp.n_states, depth),
                key=(case, "controller", h)))

    def _figure1_jobs(self):
        fig1 = verify.figure1_model()
        alt = models.Source("sequence", verify.alternating_sequence(fig1))
        opaque = models.Source("opaque", models.OpaqueStrategy(alt.strategy, self.counter))
        first = strategies.History(0)
        for h in FIG1_H:
            for route, src in (("closed", alt), ("enumerated", opaque)):
                self.jobs.append(Job(
                    f"figure1.mimic.{route}",
                    partial(mimic.mimic_action_exact, fig1, src.strategy, h, first),
                    partial(_check_figure1_mimic, h), key=("figure1", src.kind, h)))
        for h in (0.5, 1.0):
            self.jobs.append(Job(
                "figure1.longrun",
                partial(evaluate.longrun_average_exact_fsc, fig1, alt.strategy, h),
                partial(_check_figure1_average, h), key=("figure1", "sequence", h)))

    def _check_cli(self, pomdp, src, h, hist, out):
        code, text = out
        if code != 0:
            return (WRONG, f"exit code {code}")
        printed = [float(line.split()[1]) for line in text.splitlines()
                   if line and not line.startswith("#")]
        expected = mimic.mimic_action_exact(pomdp, src.strategy, h, hist).weights
        return _close(float(np.max(np.abs(np.array(printed) - expected))), 0.0,
                      1e-11, "cli mimic weights")

    # -- round-level checks -------------------------------------------------

    def cross_check(self, outputs):
        wrong = []
        for (case, route, h), entries in self.mimic_sets.items():
            by_depth = {}
            for index, hist in entries:
                out = outputs[index]
                if isinstance(out, Exception):
                    continue
                mass, bound = by_depth.get(hist.length, (0.0, 0.0))
                by_depth[hist.length] = (mass + out.conditioning_mass,
                                         max(bound, out.truncation_bound))
            for depth, (mass, bound) in by_depth.items():
                if not abs(mass - 1.0) <= bound + 1e-12:
                    wrong.append(f"case {case} {route} h={h} depth {depth}: joint "
                                 f"mass {mass!r} not 1 within {bound:.3g}")
            if route != "enumerated":
                continue
            closed = self.mimic_sets[(case, "closed", h)]
            for (i_e, hist), (i_c, _) in zip(entries, closed):
                enum, exact = outputs[i_e], outputs[i_c]
                if isinstance(enum, Exception) or isinstance(exact, Exception):
                    continue
                gap = float(np.max(np.abs(enum.weights * enum.conditioning_mass
                                          - exact.weights * exact.conditioning_mass)))
                if not gap <= enum.truncation_bound + 1e-12:
                    wrong.append(f"case {case} h={h} {hist}: closed and enumerated "
                                 f"joints differ by {gap:.3g} > "
                                 f"{enum.truncation_bound:.3g}")
        return wrong

    def info(self):
        seen, repeats, keyed = set(), 0, 0
        for job in self.jobs:
            if job.key is None:
                continue
            keyed += 1
            repeats += job.key in seen
            seen.add(job.key)
        return {"jobs_per_round": len(self.jobs),
                "repeat_key_share": round(repeats / keyed, 4)}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    return code, out.getvalue()


def _machine_average(pomdp, source, h):
    """The paper's mimic as a finite automaton, averaged in the base model."""
    machine = mimic.build_filter_machine(pomdp, source, h)
    if machine is None:
        return None
    chain, init, payoffs = evaluate.machine_product_chain(pomdp, machine)
    return machine.merge_defect, evaluate.cesaro_average(chain, init, payoffs)


def _history_dist(pomdp, ctrl, h, depth):
    return strategies.exact_history_distribution(
        model.stage_duration_transform(pomdp, h), ctrl, depth)


def _check_mimic_h1(src, h, hist, out):
    if h != 1.0 or out.conditioning_mass == 0.0:
        return None
    own = _table_action(src, hist) if src.kind == "table" else _posterior_action(src, hist)
    return _close(float(np.max(np.abs(out.weights - own))), 0.0, 1e-12,
                  f"h=1 mimic vs own action at {hist}")


def _check_cesaro(chain, out):
    return _close(out.value, oracles.cesaro_mean(*chain), 1e-9, "long-run average")


def _check_machine(chain, out):
    if out is None:
        return None
    defect, average = out
    if defect != 0.0:
        return None
    return _close(average, oracles.cesaro_mean(*chain), 1e-9,
                  "filter-machine average vs duration-h average")


def _check_discounted(reference, out):
    return _close(out.value, reference, (out.bound or 0.0) + 1e-10, "discounted payoff")


def _check_history_dist(chain, n_states, depth, out):
    matrix, init, _payoff = chain
    mu = init @ np.linalg.matrix_power(matrix, depth - 1)
    marginal = mu.reshape(n_states, -1).sum(axis=1)
    got = np.zeros(n_states)
    for (_hist, w), p in out.items():
        got[w] += p
    return _close(float(np.max(np.abs(got - marginal))), 0.0, 1e-12,
                  "history-distribution state marginal")


def _check_figure1_mimic(h, out):
    return _close(float(out.weights[0]), oracles.figure1_first_mimic(h),
                  out.truncation_bound / max(out.conditioning_mass, 1e-300) + 1e-12,
                  f"figure-1 mimic at h={h}")


def _check_figure1_average(h, out):
    return _close(out.value, oracles.figure1_alternating_average(h), 1e-9,
                  f"figure-1 long-run average at h={h}")


# --- monte-carlo -------------------------------------------------------------

MC_SHAPES = ((2, 1), (3, 2), (4, 2), (5, 3))
MC_H = 0.5
MC_LAMBDA = 0.4
#: trajectories x stages of each long-run job
MC_LONGRUN = (30, 150)
#: trajectories of each discounted job (stages follow from lambda h and 1e-12)
MC_DISCOUNTED_TRAJ = 30
#: plays simulated by each mimic_action_mc job
MC_MIMIC_SAMPLES = 800
#: an estimate passes when it is within this many standard errors
MC_SE_MULTIPLE = 6.0


class MonteCarlo(Workload):
    """Simulated long-run and discounted payoffs and Monte Carlo mimic actions."""

    name = "monte-carlo"

    def __init__(self, seed, size):
        super().__init__(seed, size)
        rng = np.random.default_rng([seed, 2])
        scale = 1 if size == "full" else 4
        n_traj, horizon = MC_LONGRUN[0], MC_LONGRUN[1] // scale
        stream = itertools.count()
        for case, (n_w, n_s) in enumerate(MC_SHAPES):
            pomdp, _ = _round_trip_model(models.dense_model(rng, n_w, n_s),
                                         self.setup_errors)
            ctrl = models.controller_source(rng, pomdp, 2)
            seq = models.sequence_source(pomdp, (0, 1))
            table = models.table_source(rng, pomdp, 2)
            opaque = models.opaque_source(ctrl, self.counter)
            mimic_src = models.Source("mimic", mimic.build_mimic_strategy(
                pomdp, ctrl.strategy, MC_H))
            ctrl_chain = oracles.controller_chain(pomdp, *_controller_arrays(ctrl), MC_H)
            for src, h in ((ctrl, MC_H), (seq, MC_H), (mimic_src, 1.0),
                           (table, MC_H), (opaque, MC_H)):
                seed_i = (seed, case, next(stream))
                self.jobs.append(Job(
                    f"longrun_mc.{src.kind}",
                    partial(_longrun_mc, pomdp, src.strategy, h, horizon, n_traj, seed_i),
                    partial(_check_longrun_mc, pomdp, src, h, ctrl_chain)))
            for src in (ctrl, seq, table, opaque):
                seed_i = (seed, case, next(stream))
                self.jobs.append(Job(
                    f"discounted_mc.{src.kind}",
                    partial(evaluate.discounted_payoff, pomdp, src.strategy, MC_LAMBDA,
                            MC_H, "mc", n_traj=MC_DISCOUNTED_TRAJ // scale,
                            seed=np.random.SeedSequence(seed_i)),
                    partial(_check_discounted_mc, pomdp, src)))
            for src in (ctrl, table):
                for hist in _likely_histories(pomdp, src.strategy, 2):
                    seed_i = (seed, case, next(stream))
                    self.jobs.append(Job(
                        f"mimic_mc.{src.kind}",
                        partial(_mimic_mc, pomdp, src.strategy, MC_H, hist,
                                MC_MIMIC_SAMPLES // scale, seed_i),
                        partial(_check_mimic_mc, pomdp, src.strategy, hist)))


def _longrun_mc(pomdp, strategy, h, horizon, n_traj, seed_i):
    rng = np.random.default_rng(np.random.SeedSequence(seed_i))
    return evaluate.longrun_average_mc(pomdp, strategy, h, horizon, n_traj, rng)


def _mimic_mc(pomdp, strategy, h, hist, n_samples, seed_i):
    rng = np.random.default_rng(np.random.SeedSequence(seed_i))
    return mimic.mimic_action_mc(pomdp, strategy, h, hist, n_samples, rng)


def _likely_histories(pomdp, strategy, count):
    """The ``count`` depth-2 histories with the largest filtered mass."""
    hists = [hist for hist in models.all_histories(pomdp, 2) if hist.length == 2]
    masses = [mimic.mimic_action_exact(pomdp, strategy, MC_H, hist).conditioning_mass
              for hist in hists]
    order = np.argsort(masses)[::-1][:count]
    return [hists[i] for i in sorted(order)]


def _exact_mean(pomdp, src, h, t, ctrl_chain):
    """Exact expected mean payoff of the first t stages, or the long-run limit."""
    if src.kind == "table":
        return oracles.table_finite_mean(pomdp, src.table, src.default, src.depth, h, t)
    if src.kind == "mimic":
        # the mimic's long-run average is the source's duration-h average
        return oracles.cesaro_mean(*ctrl_chain)
    chain = oracles.controller_chain(pomdp, *_controller_arrays(src), h)
    return oracles.finite_cesaro_mean(*chain, t)


def _check_longrun_mc(pomdp, src, h, ctrl_chain, out):
    exact = _exact_mean(pomdp, src, h, out.metadata["checkpoint"], ctrl_chain)
    return _close(out.value, exact, MC_SE_MULTIPLE * out.std_error,
                  f"long-run Monte Carlo of a {src.kind}")


def _check_discounted_mc(pomdp, src, out):
    if src.kind == "table":
        exact = oracles.table_discounted(pomdp, src.table, src.default, src.depth,
                                         MC_LAMBDA, MC_H)
    else:
        chain = oracles.controller_chain(pomdp, *_controller_arrays(src), MC_H)
        exact = oracles.discounted_from_chain(*chain, MC_LAMBDA * MC_H)
    return _close(out.value, exact, MC_SE_MULTIPLE * out.std_error,
                  f"discounted Monte Carlo of a {src.kind}")


def _check_mimic_mc(pomdp, strategy, hist, out):
    exact = mimic.mimic_action_exact(pomdp, strategy, MC_H, hist)
    # standard error under the exact law, so a coordinate the sample never
    # hit still gets a nonzero error
    se = np.maximum(out.std_errors,
                    np.sqrt(exact.weights * (1.0 - exact.weights) / out.n_accepted))
    excess = np.abs(out.weights - exact.weights) - (MC_SE_MULTIPLE * se
                                                     + exact.truncation_bound)
    if np.any(excess > 0.0):
        return (WRONG, f"mimic_action_mc at {hist}: {out.weights} vs {exact.weights}")
    return None


# --- value-sweep -------------------------------------------------------------

VS_H = (0.5, 1.0)
#: belief-lattice resolution per model.  random_pomdp keeps the program's
#: default of 60 (1,891 points), at which its estimates break the sandwich;
#: figure-1 runs at 24 (325 points) and the 4-state model at 12 (455
#: points) to keep a round near ten seconds, so that a run holds three
VS_RESOLUTION = {"figure1": 24, "random_pomdp": 60, "large_pomdp": 12,
                 "fully_observed": 60}
#: slack floor of the monotonicity check, as in verify.check_monotonicity
MONOTONE_FLOOR = 1e-3


def large_pomdp():
    """Fixed 4-state, 2-signal POMDP; its numbers do not depend on --seed."""
    rng = np.random.default_rng(2024)
    return models.dense_model(rng, 4, 2)


def _check_reports(reports):
    """Every report of a verification suite passes, by its own rule and recomputed."""
    for report in reports:
        if not report.passed:
            return (WRONG, f"{report.name}: check did not pass")
        if report.passed != report.recomputed_pass():
            return (WRONG, f"{report.name}: passed != recomputed_pass()")
    return None


class ValueSweep(Workload):
    """discounted_value_estimate over (model, h, lambda); one job per triple,
    plus the fully observed verification suite.

    The inputs are fixed; the seed only shuffles the job order.  Sandwich
    violations are counted as failed operations: they come from the
    estimator's slack not bounding its grid error.
    """

    name = "value-sweep"

    def __init__(self, seed, size):
        super().__init__(seed, size)
        fixed = {
            "figure1": verify.figure1_model(),
            "random_pomdp": verify.random_pomdp_model(),
            "large_pomdp": large_pomdp(),
            "fully_observed": verify.fully_observed_model(),
        }
        lambdas = evaluate.DEFAULT_LAMBDA_GRID
        self.models = {}
        triples = []
        for label, generated in fixed.items():
            resolution = VS_RESOLUTION[label] if size == "full" else 8
            pomdp, _ = _round_trip_model(generated, self.setup_errors)
            self.models[label] = pomdp
            triples += [(label, h, lam, resolution) for h in VS_H for lam in lambdas]
        order = np.random.default_rng([seed, 3]).permutation(len(triples))
        self.triples = [triples[i] for i in order]
        self._oracle = {}
        for label, h, lam, resolution in self.triples:
            pomdp = self.models[label]
            self.jobs.append(Job(
                f"value.{label}",
                partial(evaluate.discounted_value_estimate, pomdp, lam, h, resolution),
                partial(self._check_sandwich, label, h, lam)))
        # the fully observed part of the verification report (the verify
        # layer); it runs last, so cross_check's zip over the triples skips it
        self.jobs.append(Job("verify.fully-observed",
                             partial(verify.run_suite, "fully-observed", seed=0),
                             _check_reports))

    def _bounds(self, label, h, lam):
        """Oracle (lower, upper): best bundled controller and state revealed."""
        key = (label, h, lam)
        if key not in self._oracle:
            pomdp = self.models[label]
            n_a, n_s = pomdp.n_actions, pomdp.n_signals
            eye = np.eye(n_a)
            candidates = [[eye[a]] for a in range(n_a)]
            candidates += [[eye[a], eye[b]] for a in range(n_a) for b in range(n_a)
                           if a != b]
            candidates.append([np.full(n_a, 1.0 / n_a)])
            lower = max(
                oracles.discounted_from_chain(
                    *oracles.controller_chain(
                        pomdp, *oracles.sequence_arrays(seq, n_s), h),
                    lam * h)
                for seq in candidates)
            upper, upper_bound = oracles.revealed_value(pomdp, lam, h)
            self._oracle[key] = (lower, upper + upper_bound)
        return self._oracle[key]

    def _check_sandwich(self, label, h, lam, out):
        lower, upper = self._bounds(label, h, lam)
        slack = out.slack
        if out.value < lower - slack - 1e-12 or out.value > upper + slack + 1e-12:
            return (FAILED, f"{label} h={h} lam={lam}: {out.value!r} outside "
                            f"[{lower!r}, {upper!r}] by more than slack {slack:.3g}")
        return None

    def cross_check(self, outputs):
        wrong = []
        got = {}
        for (label, h, lam, _r), out in zip(self.triples, outputs):
            if not isinstance(out, Exception):
                got[(label, h, lam)] = out
        smallest = min(evaluate.DEFAULT_LAMBDA_GRID)
        for label in self.models:
            series = [got.get((label, h, smallest)) for h in VS_H]
            for left, right in zip(series, series[1:]):
                if left is None or right is None:
                    continue
                slack = left.slack + right.slack + MONOTONE_FLOOR
                if right.value < left.value - slack:
                    wrong.append(f"{label}: V decreases in h at lambda={smallest}")
        for (label, h, lam), out in got.items():
            if label == "figure1" and h == 1.0:
                verdict = _close(out.value, 1.0, out.slack + 1e-12, "figure-1 V(1)")
                if verdict:
                    wrong.append(verdict[1])
            if label == "fully_observed":
                shifted = lam / (1.0 + lam - lam * h)
                base = evaluate.discounted_value_estimate(
                    self.models[label], shifted, 1.0)
                tol = 2e-9 + out.slack + base.slack
                verdict = _close(out.value, base.value, tol,
                                 f"fully observed identity lam={lam} h={h}")
                if verdict:
                    wrong.append(verdict[1])
        return wrong


WORKLOADS = {cls.name: cls for cls in (ExactRoutes, MonteCarlo, ValueSweep)}


def make(name, seed, size="full"):
    os.makedirs(OUT_DIR, exist_ok=True)
    return WORKLOADS[name](seed, size)
