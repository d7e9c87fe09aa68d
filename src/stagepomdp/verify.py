"""Numerical verification harness.

Each check compares two independently computed quantities and records them
in a :class:`CheckReport` whose pass flag is recomputable from the stored
numbers.  The bundled model set covers the three regimes of interest: a
state-blind example with an absorbing failure state, a fully observed MDP,
and a seeded random POMDP with two signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .epochs import simulate_batch, worker_rng
from .errors import GapBoundViolated, NotFullyObserved
from .evaluate import (
    DEFAULT_LAMBDA_GRID,
    TRAILING_WINDOW,
    asymptotic_value_estimate,
    discounted_value_estimate,
    longrun_average_exact_fsc,
)
from .mimic import build_mimic_strategy
from .model import (
    PomdpModel,
    is_fully_observed,
    make_model,
    rescale_stage_duration,
    stage_duration_transform,
    validate_stage_duration,
)
from .strategies import (
    FiniteStateController,
    History,
    SequenceStrategy,
    Strategy,
    exact_history_distribution,
    sequence_as_controller,
)


def _meets(criterion, quantities, tolerance):
    if criterion == "abs_diff":
        return abs(quantities["difference"]) <= tolerance
    if criterion == "upper":
        return quantities["value"] <= tolerance
    if criterion == "lower":
        return quantities["value"] >= tolerance
    raise ValueError(f"unknown criterion {criterion!r}")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numerical check.

    criterion is 'abs_diff' (pass iff difference <= tolerance),
    'upper' (pass iff value <= tolerance) or
    'lower' (pass iff value >= tolerance).
    """

    name: str
    quantities: dict
    tolerance: float
    passed: bool
    criterion: str = "abs_diff"
    metadata: dict = field(default_factory=dict)

    def recomputed_pass(self):
        return _meets(self.criterion, self.quantities, self.tolerance)


def _report(name, quantities, tolerance, criterion="abs_diff", metadata=None):
    """A report whose pass flag is the criterion's rule on its own numbers."""
    tolerance = float(tolerance)
    return CheckReport(name=name, quantities=quantities, tolerance=tolerance,
                       passed=_meets(criterion, quantities, tolerance),
                       criterion=criterion, metadata=metadata or {})


def _abs_report(name, lhs, rhs, tolerance, metadata=None):
    quantities = {"lhs": float(lhs), "rhs": float(rhs),
                  "difference": float(lhs - rhs)}
    return _report(name, quantities, tolerance, metadata=metadata)


def render_report(report: CheckReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    parts = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
             for k, v in report.quantities.items()]
    return (f"{status} {report.name}: {', '.join(parts)} "
            f"[{report.criterion} tol={report.tolerance:.3g}]")


# --- bundled models and controllers ------------------------------------------

def figure1_model() -> PomdpModel:
    """Built-in 3-state, 2-action, single-signal example.

    Two payoff-1 states connected by the action pair (a from the first, b
    from the second); the other action from either sends the play to an
    absorbing payoff-0 state.  Start in the first state.
    """
    transition = np.zeros((3, 2, 3))
    transition[0, 0, 1] = 1.0   # a: w1 -> w2
    transition[0, 1, 2] = 1.0   # b: w1 -> w3
    transition[1, 1, 0] = 1.0   # b: w2 -> w1
    transition[1, 0, 2] = 1.0   # a: w2 -> w3
    transition[2, 0, 2] = 1.0
    transition[2, 1, 2] = 1.0
    payoff = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    return make_model(
        states=("w1", "w2", "w3"),
        actions=("a", "b"),
        signals=("s1",),
        signal_map=[0, 0, 0],
        payoff=payoff,
        transition=transition,
        init=[1.0, 0.0, 0.0],
    )


def _seeded_model(seed, signals, signal_map) -> PomdpModel:
    """Seeded dense 3-state, 2-action model with the given signals."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(3, 2, 3))
    transition = raw / raw.sum(axis=2, keepdims=True)
    payoff = rng.uniform(0.0, 1.0, size=(3, 2))
    init_raw = rng.uniform(0.1, 1.0, size=3)
    return make_model(
        states=("w1", "w2", "w3"),
        actions=("a", "b"),
        signals=signals,
        signal_map=signal_map,
        payoff=payoff,
        transition=transition,
        init=init_raw / init_raw.sum(),
    )


def fully_observed_model() -> PomdpModel:
    """Seeded dense 3-state MDP with identity signal map."""
    return _seeded_model(11, ("w1", "w2", "w3"), [0, 1, 2])


def random_pomdp_model() -> PomdpModel:
    """Seeded dense 3-state POMDP with two signals (not fully observed)."""
    return _seeded_model(23, ("s1", "s2"), [0, 0, 1])


def alternating_sequence(model: PomdpModel) -> SequenceStrategy:
    return SequenceStrategy.pure([0, 1], model.n_actions)


def alternating_controller(model: PomdpModel) -> FiniteStateController:
    return sequence_as_controller(alternating_sequence(model), model.n_signals)


def uniform_controller(model: PomdpModel) -> FiniteStateController:
    n_a, n_s = model.n_actions, model.n_signals
    rule = np.full((1, n_a), 1.0 / n_a)
    update = np.ones((1, n_a, n_s, 1))
    return FiniteStateController(np.zeros(n_s, dtype=np.int64), rule, update)


def mixing_controller(model: PomdpModel) -> FiniteStateController:
    """Two-memory controller with mixed rules and a flip update.

    Mixed rules keep the mimic memory filter strictly inside the simplex,
    so its reachable set does not close into a filter machine.
    """
    n_a, n_s = model.n_actions, model.n_signals
    rule = np.zeros((2, n_a))
    rule[0, 0], rule[0, 1] = 0.8, 0.2
    rule[1, 0], rule[1, 1] = 0.3, 0.7
    if n_a > 2:
        rule[:, :2] *= 1.0 - 0.1 * (n_a - 2)
        rule[:, 2:] = 0.1
    update = np.zeros((2, n_a, n_s, 2))
    update[0, :, :, 1] = 1.0
    update[1, :, :, 0] = 1.0
    return FiniteStateController(np.zeros(n_s, dtype=np.int64), rule, update)


# --- lemma checks ------------------------------------------------------------

def _all_histories(model, k):
    hists = [History(s) for s in range(model.n_signals)]
    for _ in range(k - 1):
        hists = [
            h.child(a, s)
            for h in hists
            for a in range(model.n_actions)
            for s in range(model.n_signals)
        ]
    return hists


def check_marginal_lemma(model: PomdpModel, strategy: Strategy, h, k,
                         n_max=None) -> CheckReport:
    """Joint law of (history, state, action) at depth k, both routes.

    Left: exact forward enumeration of the base model under the mimic
    strategy.  Right: the filtered joint law of the source strategy at
    stage duration h.  The two must agree entrywise up to the reported
    truncation bound.
    """
    h = validate_stage_duration(h)
    mimic = build_mimic_strategy(model, strategy, h, n_max)
    base_dist = exact_history_distribution(model, mimic, k)
    states = {}
    for (eta, w), p in base_dist.items():
        states.setdefault(eta, np.zeros(model.n_states))[w] = p
    lhs = {eta: mass[:, None] * mimic.act(eta) for eta, mass in states.items()}
    max_err = 0.0
    bound = 0.0
    lhs_mass = sum(float(m.sum()) for m in lhs.values())
    rhs_mass = 0.0
    lhs_payoff = sum(float(np.sum(m * model.payoff)) for m in lhs.values())
    rhs_payoff = 0.0
    for eta in _all_histories(model, k):
        joint, eta_bound = mimic.filtered_joint(eta)
        bound = max(bound, eta_bound)
        rhs_mass += float(joint.sum())
        rhs_payoff += float(np.sum(joint * model.payoff))
        left = lhs.get(eta)
        if left is None:
            left = np.zeros_like(joint)
        max_err = max(max_err, float(np.max(np.abs(left - joint))))
    return _report(
        f"marginal_lemma[k={k},h={h}]",
        {
            "difference": max_err,
            "lhs_mass": lhs_mass,
            "rhs_mass": rhs_mass,
            "lhs_expected_payoff": lhs_payoff,
            "rhs_expected_payoff": rhs_payoff,
        },
        bound + 1e-9,
        metadata={"truncation_bound": bound, "k": k, "h": h},
    )


def check_epoch_sum_lemma(model: PomdpModel, strategy: Strategy, h, k,
                          n_traj, rng_seed) -> CheckReport:
    """Epoch payoff sum vs (1/h) x boundary payoff, two independent MC batches."""
    h = validate_stage_duration(h)
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2 for a standard error, got {n_traj}")
    sums = simulate_batch(model, strategy, h, n_traj, worker_rng(rng_seed, 0),
                          epochs=k).epoch_sums[:, k - 1]
    last = simulate_batch(model, strategy, h, n_traj, worker_rng(rng_seed, 1),
                          epochs=k)
    boundary = model.payoff[last.epoch_states[:, k - 1],
                            last.epoch_actions[:, k - 1]]
    lhs = float(sums.mean())
    se_lhs = float(sums.std(ddof=1) / math.sqrt(n_traj))
    rhs = float(boundary.mean()) / h
    se_rhs = float(boundary.std(ddof=1) / math.sqrt(n_traj)) / h
    tolerance = 3.0 * math.hypot(se_lhs, se_rhs)
    return _abs_report(
        f"epoch_sum_lemma[k={k},h={h}]", lhs, rhs, tolerance,
        metadata={"n_traj": n_traj, "seed": rng_seed,
                  "se_lhs": se_lhs, "se_rhs": se_rhs},
    )


def check_cesaro_alignment(model: PomdpModel, strategy: Strategy, h, big_k,
                           n_traj, rng_seed) -> CheckReport:
    """Cesaro mean at t_K = floor(K/h) vs the h/K-weighted epoch-boundary sum."""
    h = validate_stage_duration(h)
    if big_k < 10:
        raise ValueError("K must be >= 10")
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2 for a standard error, got {n_traj}")
    t_k = int(math.floor(big_k / h))
    plays = simulate_batch(model, strategy, h, n_traj, worker_rng(rng_seed, 0),
                           sums_at=[t_k], epochs=big_k)
    xs = plays.sums[:, 0] / t_k
    ys = plays.epoch_sums.sum(axis=1) * h / big_k
    diffs = xs - ys
    se = float(diffs.std(ddof=1) / math.sqrt(n_traj))
    bound = model.max_abs_payoff * (math.sqrt((1.0 - h) / big_k) + h / big_k)
    tolerance = bound + 3.0 * se
    return _abs_report(
        f"cesaro_alignment[K={big_k},h={h}]",
        float(xs.mean()), float(ys.mean()), tolerance,
        metadata={"n_traj": n_traj, "seed": rng_seed, "rate_bound": bound,
                  "se": se, "t_k": t_k},
    )


def liminf_trailing(seq):
    """Minimum over the trailing ``TRAILING_WINDOW`` share: a liminf proxy."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.size == 0:
        raise ValueError("sequence must be nonempty")
    window = max(1, math.ceil(TRAILING_WINDOW * seq.size))
    return float(seq[-window:].min())


def check_liminf_subsequence(seq, indices, gap_bound, tolerance) -> CheckReport:
    """Trailing liminf proxies of a sequence and a bounded-gap subsequence.

    The caller asserts the hypotheses (consecutive differences tending to
    zero); the index gaps are verified here.  Indices that do not increase
    strictly within ``[0, len(seq))`` raise ValueError.
    """
    seq = np.asarray(seq, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    gaps = np.diff(indices)
    if np.any(gaps <= 0) or np.any((indices < 0) | (indices >= seq.size)):
        raise ValueError(f"indices must increase strictly within [0, {seq.size})")
    too_big = np.nonzero(gaps > gap_bound)[0]
    if too_big.size:
        j = int(too_big[0])
        raise GapBoundViolated(j, int(gaps[j]), gap_bound)
    full = liminf_trailing(seq)
    sub = liminf_trailing(seq[indices])
    return _abs_report(
        f"liminf_subsequence[n={seq.size},M={gap_bound}]",
        full, sub, tolerance,
        metadata={"gap_bound": gap_bound},
    )


# --- payoff-identity checks ---------------------------------------------------

def check_theorem_main(model: PomdpModel, controller, h) -> CheckReport:
    """Long-run average of a controller at duration h vs its mimic at duration 1.

    Both sides are exact product-chain averages: the source's at duration h
    and, in the base model, the mimic's, which is itself a finite controller
    (:meth:`~stagepomdp.mimic.MimicStrategy.controller`).
    """
    h = validate_stage_duration(h)
    lhs = longrun_average_exact_fsc(model, controller, h).value
    mimic = build_mimic_strategy(model, controller, h)
    rhs = longrun_average_exact_fsc(model, mimic, 1.0).value
    return _abs_report(f"main_identity[h={h}]", lhs, rhs, 1e-6,
                       metadata={"path": "exact", "h": h})


def check_corollary_rescale(model: PomdpModel, controller, h1, h2) -> CheckReport:
    """Mimicking between durations h1 < h2 via the rebasing identity."""
    m_h1 = stage_duration_transform(model, h1)
    rebased, relative = rescale_stage_duration(m_h1, h1, h2)
    report = check_theorem_main(rebased, controller, relative)
    return replace(report, name=f"rescale_identity[h1={h1},h2={h2}]",
                   metadata={**report.metadata, "h1": h1, "h2": h2,
                             "relative": relative})


def check_monotonicity(model: PomdpModel, h_grid, lam_grid, *,
                       grid_resolution=60) -> CheckReport:
    """Asymptotic value estimates nondecreasing along an increasing h grid.

    Each estimate carries its own convergence diagnostics; a decrease is a
    failure only when it exceeds the two estimates' aggregated slack plus
    a 1e-3 floor.  ``ValueError`` unless ``h_grid`` has at least two points
    and is strictly increasing.
    """
    h_grid = [validate_stage_duration(h) for h in h_grid]
    if len(h_grid) < 2:
        raise ValueError("h_grid needs at least two points")
    if any(b <= a for a, b in zip(h_grid, h_grid[1:])):
        raise ValueError("h_grid must be strictly increasing")
    estimates = [
        asymptotic_value_estimate(model, h, lam_grid, grid_resolution)
        for h in h_grid
    ]
    values = [e.value for e in estimates]
    min_margin = math.inf
    for left, right in zip(range(len(values) - 1), range(1, len(values))):
        slack = estimates[left].slack + estimates[right].slack + 1e-3
        min_margin = min(min_margin, values[right] - values[left] + slack)
    return _report(
        f"monotonicity[h={tuple(h_grid)}]",
        {"value": float(min_margin),
         **{f"v_h{h}": v for h, v in zip(h_grid, values)}},
        0.0, "lower",
        metadata={
            "h_grid": tuple(h_grid),
            "slacks": tuple(e.slack for e in estimates),
            "lambda_grid": tuple(float(x) for x in lam_grid),
        },
    )


def check_fully_observed_identity(model: PomdpModel, lam, h) -> CheckReport:
    """Discounted-value identity between durations h and 1 for observed state.

    V_lam(h) must equal the base-model value at the shifted discount
    lam / (1 + lam - lam h); both sides via exact dynamic programming.
    """
    if not is_fully_observed(model):
        raise NotFullyObserved("identity requires an injective signal map")
    h = validate_stage_duration(h)
    lam = float(lam)
    lhs = discounted_value_estimate(model, lam, h)
    shifted = lam / (1.0 + lam - lam * h)
    rhs = discounted_value_estimate(model, shifted, 1.0)
    tolerance = 2e-9  # solver roundoff of two exact solves (suite: <= 1.5e-14)
    return _abs_report(
        f"fully_observed_identity[lam={lam},h={h}]",
        lhs.value, rhs.value, tolerance,
        metadata={"shifted_lambda": shifted,
                  "lhs_bound": lhs.diagnostics.get("stopping_bound", 0.0),
                  "rhs_bound": rhs.diagnostics.get("stopping_bound", 0.0)},
    )


# --- suites -------------------------------------------------------------------

def _example_suite(seed):
    fig1 = figure1_model()
    alt = alternating_controller(fig1)
    reports = []
    at_one = longrun_average_exact_fsc(fig1, alt, 1.0).value
    reports.append(_report("example_average_h1", {"value": at_one}, 0.999, "lower",
                           metadata={"strategy": "alternating"}))
    best = max(
        longrun_average_exact_fsc(fig1, ctrl, 0.5).value
        for ctrl in (alt, uniform_controller(fig1), mixing_controller(fig1))
    )
    reports.append(_report("example_best_average_h05", {"value": best}, 1e-9, "upper",
                           metadata={"strategies": "bundled controllers"}))
    est = asymptotic_value_estimate(fig1, 0.5)
    reports.append(_report(
        "example_asymptotic_h05",
        {"value": est.value, "lambda_trend": est.metadata["lambda_trend"]},
        0.1, "upper", metadata={"diagnostics": dict(est.diagnostics)},
    ))
    reports.append(check_monotonicity(
        fig1, (0.25, 0.5, 0.75, 1.0), DEFAULT_LAMBDA_GRID
    ))
    return reports


def _lemma_suite(seed):
    reports = []
    cases = [
        ("figure1", figure1_model()),
        ("random_pomdp", random_pomdp_model()),
    ]
    for label, model in cases:
        strategy = alternating_sequence(model)
        for h in (0.3, 0.5, 0.7):
            for k in (1, 2, 3):
                rep = check_marginal_lemma(model, strategy, h, k)
                reports.append(replace(rep, name=f"{label}:{rep.name}"))
        for h in (0.3, 0.5, 0.7):
            for k in (1, 2, 3):
                rep = check_epoch_sum_lemma(model, strategy, h, k,
                                            n_traj=10_000, rng_seed=seed + k)
                reports.append(replace(rep, name=f"{label}:{rep.name}"))
    fig1 = figure1_model()
    rep = check_cesaro_alignment(fig1, alternating_sequence(fig1), 0.5,
                                 big_k=400, n_traj=2000, rng_seed=seed + 77)
    reports.append(replace(rep, name=f"figure1:{rep.name}"))
    n = 100_000
    idx = np.arange(0, n, 2)
    seq = np.sin(np.sqrt(np.arange(1, n + 1)))
    reports.append(check_liminf_subsequence(seq, idx, 2, 0.05))
    harmonic = 1.0 / np.arange(1, 5001)
    reports.append(check_liminf_subsequence(harmonic, np.arange(0, 5000, 3), 3, 1e-3))
    return reports


def _theorem_suite(seed):
    reports = []
    for label, model in (("figure1", figure1_model()),
                         ("random_pomdp", random_pomdp_model())):
        for cname, ctrl in (("alternating", alternating_controller(model)),
                            ("uniform", uniform_controller(model))):
            for h in (0.25, 0.5):
                rep = check_theorem_main(model, ctrl, h)
                reports.append(replace(rep, name=f"{label}:{cname}:{rep.name}"))
    rand = random_pomdp_model()
    for h in (0.25, 0.5):
        rep = check_theorem_main(rand, mixing_controller(rand), h)
        reports.append(replace(rep, name=f"random_pomdp:mixing:{rep.name}"))
    fig1 = figure1_model()
    rep = check_corollary_rescale(fig1, alternating_controller(fig1), 0.25, 0.5)
    reports.append(replace(rep, name=f"figure1:alternating:{rep.name}"))
    rep = check_corollary_rescale(rand, uniform_controller(rand), 0.25, 0.5)
    reports.append(replace(rep, name=f"random_pomdp:uniform:{rep.name}"))
    return reports


def _fully_observed_suite(seed):
    model = fully_observed_model()
    reports = []
    for lam in (0.1, 0.01):
        for h in (0.3, 0.7):
            reports.append(check_fully_observed_identity(model, lam, h))
    reports.append(check_monotonicity(
        model, (0.25, 0.5, 0.75, 1.0), DEFAULT_LAMBDA_GRID
    ))
    return reports


SUITES = {
    "example": _example_suite,
    "lemmas": _lemma_suite,
    "theorem": _theorem_suite,
    "fully-observed": _fully_observed_suite,
}


def run_suite(suite="all", seed=0):
    """Run a named verification suite; deterministic given the seed."""
    if suite == "all":
        reports = []
        for name in ("example", "lemmas", "theorem", "fully-observed"):
            reports.extend(SUITES[name](seed))
        return reports
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{('all',) + tuple(SUITES)}")
    return SUITES[suite](seed)
