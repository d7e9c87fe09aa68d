"""Payoff functionals: discounted payoff, long-run average, value estimates.

The discounted payoff of a strategy at stage duration h uses the weights
lam*h*(1-lam*h)^(i-1), which sum to one; as a weight sequence this equals
plain discounting at the effective rate lam*h.  The long-run average is the
liminf of expected Cesaro means; finite-horizon estimators report a
trailing-window minimum as a conservative proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from .epochs import simulate_batch
from .errors import (
    BudgetExceeded,
    ImpossibleObservation,
    NotConverged,
    SingularSystem,
)
from .mimic import FilterMachine
from .model import (
    PomdpModel,
    is_fully_observed,
    stage_duration_transform,
    validate_stage_duration,
)
from .strategies import (
    DEFAULT_ENUMERATION_BUDGET,
    CursorEnumeration,
    FiniteStateController,
    Strategy,
    controller_for,
)

DEFAULT_LAMBDA_GRID = (0.1, 0.05, 0.02, 0.01, 0.005)

#: sup-norm residual at which value iteration stops
VI_RESIDUAL_TOL = 1e-9

#: most policy evaluations a policy iteration may take before NotConverged
MAX_POLICY_STEPS = 100

#: margin by which another action must beat a belief point's current one
#: for policy iteration to switch to it
POLICY_TIE_TOL = 1e-14

#: fraction of trailing checkpoints used by the liminf proxy
TRAILING_WINDOW = 0.2

#: most stages a Monte Carlo discounted play simulates; the payoff weight
#: beyond it is reported as the estimate's bound
MC_HORIZON_CAP = 200_000

#: most points a belief lattice may have; C(R+W-1, W-1) grows fast in the
#: state count W, so larger lattices are refused before they are built
MAX_LATTICE_POINTS = 1_000_000


@dataclass(frozen=True)
class PayoffEstimate:
    """A payoff value with its provenance.

    mode is one of 'exact', 'truncated', 'monte_carlo', 'approximate';
    ``bound`` is a deterministic error bound (truncated and approximate
    modes, and the horizon cut of a Monte Carlo discounted payoff),
    ``std_error``/``n`` describe Monte Carlo noise. ``diagnostics`` carries
    estimator-specific numbers whose sum is the estimate's self-reported
    slack (used by the monotonicity check).
    """

    value: float
    mode: str
    std_error: float | None = None
    bound: float | None = None
    n: int | None = None
    diagnostics: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def slack(self):
        total = sum(v for v in self.diagnostics.values() if isinstance(v, float))
        if self.bound is not None:
            total += self.bound
        return total


# --- beliefs ---------------------------------------------------------------

def belief_update(model: PomdpModel, belief, action, signal):
    """Bayes step of a belief through the kernel and the deterministic signal."""
    belief = np.asarray(belief, dtype=np.float64)
    pushed = belief @ model.transition[:, action, :]
    pushed = np.where(model.signal_map == signal, pushed, 0.0)
    total = pushed.sum()
    if total <= 0.0:
        raise ImpossibleObservation(
            f"signal {model.signal_names[signal]!r} has probability 0 after action "
            f"{model.action_names[action]!r}"
        )
    return pushed / total


# --- exact chain machinery -------------------------------------------------

def _stationary_distribution(chain):
    n = chain.shape[0]
    system = chain.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0.0:
        raise SingularSystem("stationary solve returned zero mass")
    pi /= total
    if np.max(np.abs(pi @ chain - pi)) > 1e-8:
        raise SingularSystem("stationary distribution residual too large")
    return pi


def cesaro_average(chain, init, payoffs):
    """Exact Cesaro-limit average payoff of a finite Markov chain.

    Decomposes the chain into recurrent classes and transient states; the
    limit is the absorption-probability-weighted mix of per-class stationary
    averages.  Exists for every finite chain (periodicity included).
    """
    chain = np.asarray(chain, dtype=np.float64)
    init = np.asarray(init, dtype=np.float64)
    payoffs = np.asarray(payoffs, dtype=np.float64)
    n = chain.shape[0]
    adjacency = chain > 0.0
    n_comp, labels = connected_components(
        csr_matrix(adjacency), directed=True, connection="strong"
    )
    members = [np.nonzero(labels == c)[0] for c in range(n_comp)]
    recurrent = []
    for c in range(n_comp):
        inside = np.zeros(n, dtype=bool)
        inside[members[c]] = True
        if not adjacency[np.ix_(members[c], ~inside)].any():
            recurrent.append(c)

    class_value = {}
    for c in recurrent:
        sub = chain[np.ix_(members[c], members[c])]
        pi = _stationary_distribution(sub)
        class_value[c] = float(pi @ payoffs[members[c]])

    recurrent_states = np.concatenate([members[c] for c in recurrent])
    is_recurrent = np.zeros(n, dtype=bool)
    is_recurrent[recurrent_states] = True
    transient = np.nonzero(~is_recurrent)[0]

    value = sum(float(init[i]) * class_value[labels[i]]
                for i in recurrent_states if init[i] > 0.0)
    if transient.size and init[transient].sum() > 0.0:
        q = chain[np.ix_(transient, transient)]
        reach = np.stack(
            [chain[np.ix_(transient, members[c])].sum(axis=1) for c in recurrent],
            axis=1,
        )
        try:
            absorb = np.linalg.solve(np.eye(len(transient)) - q, reach)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        weights = init[transient] @ absorb
        value += sum(w * class_value[c] for w, c in zip(weights, recurrent))
    return float(value)


def controller_product_chain(model: PomdpModel, controller: FiniteStateController,
                             h=1.0):
    """Markov chain on (state, memory) induced by the controller at duration h."""
    mh = stage_duration_transform(model, h) if h != 1.0 else model
    n_w, n_q = model.n_states, controller.n_memory
    update_by_state = controller.update[:, :, model.signal_map, :]  # (Q, A, W2, Q2)
    chain = np.einsum("qa,waz,qazr->wqzr", controller.rule, mh.transition,
                      update_by_state).reshape(n_w * n_q, n_w * n_q)
    payoffs = (model.payoff @ controller.rule.T).reshape(-1)  # (W, Q) flattened
    init = np.zeros((n_w, n_q))
    for w in range(n_w):
        init[w, controller.init_memory[model.signal_of(w)]] = model.init[w]
    return chain, init.reshape(-1), payoffs


def machine_product_chain(model: PomdpModel, machine: FilterMachine):
    """Markov chain on (state, filter node) for a mimic automaton in the base model."""
    return controller_product_chain(model, machine.controller)


def longrun_average_exact_fsc(model: PomdpModel, controller, h) -> PayoffEstimate:
    """Exact long-run average payoff at duration h of a strategy with a
    controller (:meth:`~stagepomdp.strategies.Strategy.controller`)."""
    h = validate_stage_duration(h)
    controller = controller_for(model, controller)
    if controller is None:
        raise TypeError(
            "exact long-run evaluation needs a strategy with a controller: a "
            "finite-state controller, an action sequence, a table of at most "
            "MAX_TABLE_MEMORIES memories or a mimic of one of these; use "
            "longrun_average_mc for other strategies"
        )
    chain, init, payoffs = controller_product_chain(model, controller, h)
    value = cesaro_average(chain, init, payoffs)
    return PayoffEstimate(value, "exact", metadata={"h": h})


# --- Monte Carlo long-run average -------------------------------------------

def longrun_average_mc(model: PomdpModel, strategy: Strategy, h, horizon,
                       n_traj, seed_or_rng, n_checkpoints=50) -> PayoffEstimate:
    """Estimate the long-run average payoff by simulation.

    Cesaro means are logged at checkpoints; the reported value is the
    minimum of the mean curve over the trailing 20% of checkpoints (a
    conservative finite-horizon liminf proxy), with the standard error at
    that checkpoint.
    """
    h = validate_stage_duration(h)
    checkpoints = np.unique(
        np.linspace(1, horizon, min(n_checkpoints, horizon)).astype(np.int64)
    )
    plays = simulate_batch(model, strategy, h, n_traj, seed_or_rng,
                           sums_at=checkpoints)
    per_traj = plays.sums / checkpoints
    curve = per_traj.mean(axis=0)
    if n_traj > 1:
        se = per_traj.std(axis=0, ddof=1) / math.sqrt(n_traj)
    else:
        se = np.zeros(len(checkpoints))
    window = max(1, math.ceil(TRAILING_WINDOW * len(checkpoints)))
    tail_idx = len(checkpoints) - window + int(np.argmin(curve[-window:]))
    return PayoffEstimate(
        float(curve[tail_idx]),
        "monte_carlo",
        std_error=float(se[tail_idx]),
        n=n_traj,
        metadata={
            "h": h,
            "horizon": int(horizon),
            "checkpoint": int(checkpoints[tail_idx]),
            "final_mean": float(curve[-1]),
            "final_se": float(se[-1]),
        },
    )


# --- discounted payoff of a fixed strategy -----------------------------------

def _discounted_exact_controller(model, controller, lam, h):
    eff = lam * h
    chain, init, payoffs = controller_product_chain(model, controller, h)
    n = chain.shape[0]
    try:
        values = np.linalg.solve(np.eye(n) - (1.0 - eff) * chain, eff * payoffs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return float(init @ values)


def _tail_horizon(model, eff, tol):
    """Fewest stages T >= 1 with M (1-eff)^T <= tol, M the largest |payoff|."""
    if eff >= 1.0:
        return 1
    bound_m = max(model.max_abs_payoff, 1e-300)
    return max(1, math.ceil(math.log(tol / bound_m) / math.log1p(-eff)))


def _discounted_truncated(model, strategy, lam, h, tol, budget):
    eff = lam * h
    mh = stage_duration_transform(model, h) if h != 1.0 else model
    horizon = _tail_horizon(model, eff, tol)
    enum = CursorEnumeration(model, budget, "discounted enumeration")
    frontier = enum.open(model.init, strategy.start)
    total = 0.0
    weight = eff
    for stage in range(horizon):
        grown = {}
        for cursor, mass, alpha in enum.visit(frontier):
            total += weight * float(mass @ model.payoff @ alpha)
            if stage + 1 < horizon:
                enum.step(grown, cursor, mass, alpha, mh.transition)
        frontier = grown
        weight *= 1.0 - eff
        if not frontier or weight == 0.0:
            break
    bound = model.max_abs_payoff * (1.0 - eff) ** horizon
    return total, bound, horizon


def discounted_payoff(model: PomdpModel, strategy: Strategy, lam, h,
                      method="exact", *, tol=1e-12, n_traj=1000,
                      seed=0, budget=DEFAULT_ENUMERATION_BUDGET) -> PayoffEstimate:
    """Expected discounted payoff with weights lam*h*(1-lam*h)^(i-1).

    method 'exact' solves the product chain for controller-representable
    strategies and otherwise enumerates to a horizon with tail bound
    M*(1-lam*h)^T <= tol; 'mc' simulates to the same horizon, capped at
    ``MC_HORIZON_CAP`` stages, and reports M*(1-lam*h)^T as its bound.
    """
    h = validate_stage_duration(h)
    lam = float(lam)
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"lambda must be in (0, 1], got {lam!r}")
    eff = lam * h
    meta = {"h": h, "lam": lam}
    if method == "exact":
        controller = controller_for(model, strategy)
        if controller is not None:
            value = _discounted_exact_controller(model, controller, lam, h)
            return PayoffEstimate(value, "exact", metadata=meta)
        value, bound, horizon = _discounted_truncated(
            model, strategy, lam, h, tol, budget
        )
        meta["horizon"] = horizon
        return PayoffEstimate(value, "truncated", bound=bound, metadata=meta)
    if method == "mc":
        horizon = min(_tail_horizon(model, eff, tol), MC_HORIZON_CAP)
        weights = eff * (1.0 - eff) ** np.arange(horizon)
        plays = simulate_batch(model, strategy, h, n_traj, seed,
                               sums_at=[horizon], stage_weights=weights)
        samples = plays.sums[:, 0]
        se = samples.std(ddof=1) / math.sqrt(n_traj) if n_traj > 1 else 0.0
        meta["horizon"] = horizon
        return PayoffEstimate(float(samples.mean()), "monte_carlo",
                              std_error=float(se),
                              bound=model.max_abs_payoff * (1.0 - eff) ** horizon,
                              n=n_traj, metadata=meta)
    raise ValueError(f"unknown method {method!r}")


# --- discounted value (sup over strategies) ----------------------------------

def _tabular_discounted_value(mh: PomdpModel, eff):
    """Optimal discounted value per state of a fully observed model.

    A short value-iteration seed, then exact linear solves of the greedy
    policy iterated to Bellman stability (policy iteration), so the result
    is exact up to solver roundoff regardless of the discount.
    """
    n_w = mh.n_states
    values = np.zeros(n_w)
    for _ in range(200):
        q = eff * mh.payoff + (1.0 - eff) * np.einsum(
            "waz,z->wa", mh.transition, values
        )
        new_values = q.max(axis=1)
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual <= VI_RESIDUAL_TOL:
            break
    policy = None
    stable = False
    for _ in range(MAX_POLICY_STEPS):
        q = eff * mh.payoff + (1.0 - eff) * np.einsum(
            "waz,z->wa", mh.transition, values
        )
        new_policy = q.argmax(axis=1)
        stable = policy is not None and np.array_equal(new_policy, policy)
        if stable:
            break
        policy = new_policy
        p_pi = mh.transition[np.arange(n_w), policy, :]
        g_pi = mh.payoff[np.arange(n_w), policy]
        values = np.linalg.solve(np.eye(n_w) - (1.0 - eff) * p_pi, eff * g_pi)
    q = eff * mh.payoff + (1.0 - eff) * np.einsum("waz,z->wa", mh.transition, values)
    bellman_residual = float(np.max(np.abs(q.max(axis=1) - values)))
    if not stable:
        raise NotConverged(MAX_POLICY_STEPS, bellman_residual)
    return values, bellman_residual


def _belief_lattice(n_states, resolution):
    """Lattice beliefs with denominator ``resolution``, one row per point in
    lexicographic order of the integer compositions."""
    n_points = math.comb(resolution + n_states - 1, n_states - 1)
    if n_points > MAX_LATTICE_POINTS:
        raise BudgetExceeded(
            n_points, MAX_LATTICE_POINTS,
            f"belief lattice over {n_states} states at resolution {resolution}",
        )
    points = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for c in range(remaining + 1):
            fill(prefix + [c], remaining - c, slots - 1)

    fill([], resolution, n_states)
    return np.asarray(points, dtype=np.float64) / resolution


def _project_rows(beliefs, resolution):
    """Nearest lattice composition of each belief row: floor, then one more
    unit to each of the ``short`` slots with the largest fractional parts."""
    scaled = beliefs * resolution
    counts = np.floor(scaled).astype(np.int64)
    short = resolution - counts.sum(axis=1)
    order = np.argsort(-(scaled - counts), axis=1)
    place = np.argsort(order, axis=1)  # each slot's position in that order
    return counts + (place < short[:, None])


def _lattice_rank(counts, resolution):
    """Row of each composition in ``_belief_lattice``'s order.

    With k_i = W-1-i slots after slot i and r_i units left before it, the
    compositions ranked earlier at slot i number C(r_i+k_i, k_i) -
    C(r_i-c_i+k_i, k_i) (a hockey-stick sum).
    """
    n_w = counts.shape[1]
    binom = np.array([[math.comb(n, k) for k in range(n_w)]
                      for n in range(resolution + n_w)], dtype=np.int64)
    left = resolution - np.cumsum(counts, axis=1) + counts
    k = np.arange(n_w - 1, -1, -1)
    return (binom[left + k, k] - binom[left - counts + k, k]).sum(axis=1)


def _lattice_successors(mh: PomdpModel, grid, resolution):
    """Mass and projected lattice row of every (point, action, signal) successor."""
    n_pts = grid.shape[0]
    succ_mass = np.zeros((n_pts, mh.n_actions, mh.n_signals))
    succ_idx = np.zeros((n_pts, mh.n_actions, mh.n_signals), dtype=np.int64)
    for a in range(mh.n_actions):
        pushed = grid @ mh.transition[:, a, :]
        for s in range(mh.n_signals):
            part = np.where(mh.signal_map == s, pushed, 0.0)
            mass = part.sum(axis=1)
            live = mass > 0.0
            succ_mass[live, a, s] = mass[live]
            succ_idx[live, a, s] = _lattice_rank(
                _project_rows(part[live] / mass[live, None], resolution), resolution)
    return succ_mass, succ_idx


def _belief_grid_value(mh: PomdpModel, eff, resolution):
    """Optimal values of the projected lattice MDP by policy iteration.

    Each policy is evaluated by one sparse solve of
    (I - (1-eff) P_pi) v = eff r_pi; a point keeps its action unless another
    beats it by more than ``POLICY_TIE_TOL``, so ties cannot cycle.  Returns
    the value lookup and the Bellman residual of the returned values.
    """
    grid = _belief_lattice(mh.n_states, resolution)
    n_pts = grid.shape[0]
    rewards = eff * (grid @ mh.payoff)  # (N, A)
    succ_mass, succ_idx = _lattice_successors(mh, grid, resolution)
    rows = np.arange(n_pts)
    width = mh.n_signals + 1  # a row's diagonal and its successors
    indptr = np.arange(0, width * n_pts + 1, width)

    def q_values(values):
        return rewards + (1.0 - eff) * np.einsum("nas,nas->na", succ_mass,
                                                 values[succ_idx])

    values = np.zeros(n_pts)
    q = q_values(values)
    policy = q.argmax(axis=1)
    stable = False
    for _ in range(MAX_POLICY_STEPS):
        data = np.column_stack([np.ones(n_pts),
                                -(1.0 - eff) * succ_mass[rows, policy]])
        cols = np.column_stack([rows, succ_idx[rows, policy]])
        system = csr_matrix((data.ravel(), cols.ravel(), indptr),
                            shape=(n_pts, n_pts))
        values = spsolve(system, rewards[rows, policy])
        q = q_values(values)
        best = q.argmax(axis=1)
        keep = q[rows, policy] >= q[rows, best] - POLICY_TIE_TOL
        new_policy = np.where(keep, policy, best)
        stable = np.array_equal(new_policy, policy)
        if stable:
            break
        policy = new_policy
    residual = float(np.max(np.abs(q.max(axis=1) - values)))
    if not stable:
        raise NotConverged(MAX_POLICY_STEPS, residual)

    def value_at(belief):
        row = _project_rows(belief[None, :], resolution)
        return float(values[_lattice_rank(row, resolution)[0]])

    return value_at, residual


def _initial_belief_value(model, value_at):
    """Mix the belief-value over the first observed signal."""
    total = 0.0
    for s in range(model.n_signals):
        part = np.where(model.signal_map == s, model.init, 0.0)
        mass = part.sum()
        if mass > 0.0:
            total += mass * value_at(part / mass)
    return float(total)


def discounted_value_estimate(model: PomdpModel, lam, h,
                              grid_resolution=60) -> PayoffEstimate:
    """Estimate the optimal discounted value at stage duration h.

    Fully observed models reduce to exact dynamic programming over states
    (no grid error); otherwise the value is computed on a belief simplex
    lattice with nearest-point projection, solved by policy iteration, and
    flagged approximate.  ``stopping_bound`` is the Bellman residual of the
    returned values times (1-lam*h)/(lam*h); the belief grid also reports a
    grid-refinement gap (value change from half resolution to full
    resolution).
    """
    h = validate_stage_duration(h)
    lam = float(lam)
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"lambda must be in (0, 1], got {lam!r}")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    eff = lam * h
    mh = stage_duration_transform(model, h) if h != 1.0 else model
    meta = {"h": h, "lam": lam}
    if is_fully_observed(model):
        values, bellman_residual = _tabular_discounted_value(mh, eff)
        stopping = bellman_residual * (1.0 - eff) / eff if eff < 1.0 else 0.0
        return PayoffEstimate(
            float(model.init @ values), "exact",
            diagnostics={"stopping_bound": stopping},
            metadata=meta,
        )
    value_at, residual = _belief_grid_value(mh, eff, grid_resolution)
    total = _initial_belief_value(model, value_at)
    coarse_at, _ = _belief_grid_value(mh, eff, max(2, grid_resolution // 2))
    grid_gap = abs(total - _initial_belief_value(model, coarse_at))
    stopping = residual * (1.0 - eff) / eff if eff < 1.0 else 0.0
    meta["grid_resolution"] = grid_resolution
    return PayoffEstimate(
        total, "approximate",
        diagnostics={"stopping_bound": stopping, "grid_gap": grid_gap},
        metadata=meta,
    )


def asymptotic_value_estimate(model: PomdpModel, h, lam_grid=DEFAULT_LAMBDA_GRID,
                              grid_resolution=60) -> PayoffEstimate:
    """Estimate the small-discount limit of the value at stage duration h.

    Sweeps the discount grid (strictly decreasing) and reports the last
    value; the slope between the last two grid points and the gap between
    them are the convergence diagnostics, beside the summed
    ``stopping_bound`` (from each estimate's final Bellman residual) and the
    last estimate's ``grid_gap``.  Explicitly approximate.
    """
    lam_grid = [float(x) for x in lam_grid]
    if len(lam_grid) < 2:
        raise ValueError("lam_grid needs at least two points")
    if any(b >= a for a, b in zip(lam_grid, lam_grid[1:])) or lam_grid[-1] <= 0:
        raise ValueError("lam_grid must be strictly decreasing and positive")
    estimates = [
        discounted_value_estimate(model, lam, h, grid_resolution)
        for lam in lam_grid
    ]
    values = [e.value for e in estimates]
    gap = abs(values[-1] - values[-2])
    trend = (values[-1] - values[-2]) / (lam_grid[-1] - lam_grid[-2])
    stopping = sum(e.diagnostics.get("stopping_bound", 0.0) for e in estimates)
    grid_gap = estimates[-1].diagnostics.get("grid_gap", 0.0)
    return PayoffEstimate(
        values[-1], "approximate",
        diagnostics={"lambda_gap": gap, "stopping_bound": stopping,
                     "grid_gap": grid_gap},
        metadata={
            "h": float(h),
            "lambda_grid": tuple(lam_grid),
            "values": tuple(values),
            "lambda_trend": trend,
        },
    )
