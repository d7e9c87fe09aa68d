"""Payoff functionals: discounted payoff, long-run average, value estimates.

The discounted payoff of a strategy at stage duration h uses the weights
lam*h*(1-lam*h)^(i-1), which sum to one; as a weight sequence this equals
plain discounting at the effective rate lam*h.  The long-run average is the
liminf of expected Cesaro means; finite-horizon estimators report a
trailing-window minimum as a conservative proxy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from .epochs import simulate_batch
from .errors import BudgetExceeded, NotConverged, SingularSystem
from .memo import recall
from .model import (
    PomdpModel,
    is_fully_observed,
    is_stochastic,
    stage_duration_transform,
    validate_stage_duration,
)
from .strategies import (
    CursorEnumeration,
    FiniteStateController,
    Strategy,
    controller_for,
)

DEFAULT_LAMBDA_GRID = (0.1, 0.05, 0.02, 0.01, 0.005)

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


# --- exact chain machinery -------------------------------------------------

def cesaro_average(chain, init, payoffs):
    """Exact Cesaro-limit average payoff of a finite Markov chain.

    Semi-Markov state reduction (Grassmann, Taksar & Heyman 1985): each
    state in turn divides its row by the mass leaving it, folding in its
    self-loop, and is added into the rows entering it; rows carry payoff
    and stages to the next remaining state.  A state with no mass leaving
    is a closed class reduced to one state, whose average is payoff per
    stage; the initial law's row ends holding the absorption probabilities.
    Only nonnegative numbers are added, so small h costs no accuracy.
    ``ValueError`` unless the chain's rows and ``init`` are probability
    vectors and ``payoffs`` has one entry per state.
    """
    chain = np.asarray(chain, dtype=np.float64)
    n = chain.shape[0]
    shapes = chain.shape, np.shape(init), np.shape(payoffs)
    if shapes != ((n, n), (n,), (n,)):
        raise ValueError(f"chain, init and payoffs have shapes {shapes}, "
                         "not (n, n), (n,) and (n,)")
    # rows: the states, the initial law; columns: the states, payoff, stages
    a = np.zeros((n + 1, n + 2))
    a[:n, :n] = chain
    a[n, :n] = init
    if not is_stochastic(a):
        raise ValueError("a chain row or init is not a probability vector")
    a[:n, n] = payoffs
    a[:n, n + 1] = 1.0
    closed = []
    for k in range(n):
        a[k, k] = 0.0
        out = a[k, :n].sum()
        if out == 0.0:
            closed.append(k)
            continue
        a[k] /= out
        rows = np.flatnonzero(a[:, k])
        # row k is zero before its first closed state and before k itself
        lo = closed[0] if closed else k
        a[rows, lo:] += a[rows, k, None] * a[k, lo:]
        a[rows, k] = 0.0
        a[k] = 0.0
    return float(sum(a[n, k] * a[k, n] / a[k, n + 1] for k in closed))


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


def machine_product_chain(model: PomdpModel, machine):
    """Markov chain on (state, filter node) for a mimic automaton, a
    :class:`~stagepomdp.mimic.FilterMachine`, in the base model."""
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
    if n_checkpoints < 1:
        raise ValueError(f"n_checkpoints must be >= 1, got {n_checkpoints}")
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


def _discount(lam, h):
    """Checked (lam, h, lam*h); ValueError if 1 - lam*h rounds to 1, where
    the discount is lost."""
    h = validate_stage_duration(h)
    lam = float(lam)
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"lambda must be in (0, 1], got {lam!r}")
    eff = lam * h
    if 1.0 - eff == 1.0:
        raise ValueError(f"lam*h = {eff!r} is too small: 1 - lam*h rounds to 1")
    return lam, h, eff


def _tail_horizon(model, eff, tol):
    """Fewest stages T >= 1 with M (1-eff)^T <= tol, M the largest |payoff|."""
    if eff >= 1.0:
        return 1
    bound_m = max(model.max_abs_payoff, 1e-300)
    return max(1, math.ceil(math.log(tol / bound_m) / math.log1p(-eff)))


def _discounted_truncated(model, strategy, lam, h, tol):
    eff = lam * h
    mh = stage_duration_transform(model, h) if h != 1.0 else model
    horizon = _tail_horizon(model, eff, tol)
    enum = CursorEnumeration(model, "discounted enumeration")
    if horizon > enum.budget:
        # every stage visits at least one frontier entry
        raise BudgetExceeded(horizon, enum.budget, "discounted enumeration")
    frontier = enum.open(model.init, strategy.start)
    total = 0.0
    weight = eff
    for stage in range(horizon):
        grown = {}
        for i, mass, alpha in enum.visit(frontier):
            total += weight * float(mass @ model.payoff @ alpha)
            if stage + 1 < horizon:
                enum.step(grown, i, mass, alpha, mh.transition)
        weight *= 1.0 - eff
        if not grown or weight == 0.0:
            break
        frontier, = enum.keep(frontier, grown)
    bound = model.max_abs_payoff * (1.0 - eff) ** horizon
    return total, bound, horizon


def discounted_payoff(model: PomdpModel, strategy: Strategy, lam, h,
                      method="exact", *, tol=1e-12, n_traj=1000,
                      seed=0) -> PayoffEstimate:
    """Expected discounted payoff with weights lam*h*(1-lam*h)^(i-1).

    method 'exact' solves the product chain for controller-representable
    strategies and otherwise enumerates to a horizon with tail bound
    M*(1-lam*h)^T <= tol; 'mc' simulates to the same horizon, capped at
    ``MC_HORIZON_CAP`` stages, and reports M*(1-lam*h)^T as its bound.
    ``tol`` must be positive and finite for every method, and
    ``ValueError`` is raised if 1 - lam*h rounds to 1.  Enumeration raises
    ``BudgetExceeded`` up front when T alone exceeds the
    ``ENUMERATION_BUDGET`` of :mod:`~stagepomdp.strategies`.
    """
    lam, h, eff = _discount(lam, h)
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    meta = {"h": h, "lam": lam}
    if method == "exact":
        controller = controller_for(model, strategy)
        if controller is not None:
            value = _discounted_exact_controller(model, controller, lam, h)
            return PayoffEstimate(value, "exact", metadata=meta)
        value, bound, horizon = _discounted_truncated(
            model, strategy, lam, h, tol
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

def _policy_iteration(rewards, succ_mass, succ_idx, eff, solve):
    """Values, Bellman residual and policy evaluations of policy iteration
    from the greedy policy of ``rewards`` (scaled by eff), where action a at
    n moves to ``succ_idx[n, a, j]`` with probability ``succ_mass[n, a, j]``.

    ``solve(policy)`` solves (I - (1-eff) P_pi) v = rewards_pi.  A point
    keeps its action unless another beats it by more than
    ``POLICY_TIE_TOL``, so ties cannot cycle.  The residual is at least the
    spacing of the largest value, since a residual that rounds to 0 proves
    nothing.
    """
    rows = np.arange(rewards.shape[0])
    policy = rewards.argmax(axis=1)
    for steps in range(1, MAX_POLICY_STEPS + 1):
        values = solve(policy)
        q = rewards + (1.0 - eff) * np.einsum("nas,nas->na", succ_mass,
                                              values[succ_idx])
        best = q.argmax(axis=1)
        residual = float(np.max(np.abs(q[rows, best] - values)))
        keep = q[rows, policy] >= q[rows, best] - POLICY_TIE_TOL
        if keep.all():
            floor = float(np.spacing(np.abs(values).max()))
            return values, max(residual, floor), steps
        policy = np.where(keep, policy, best)
    raise NotConverged(MAX_POLICY_STEPS, residual)


def _tabular_discounted_value(mh: PomdpModel, eff):
    """Optimal discounted value per state of a fully observed model, by
    ``_policy_iteration`` with one dense solve per policy, so exact up to
    solver roundoff whatever the discount."""
    n_w = mh.n_states
    rows = np.arange(n_w)
    rewards = eff * mh.payoff

    def solve(policy):
        system = np.eye(n_w) - (1.0 - eff) * mh.transition[rows, policy, :]
        return np.linalg.solve(system, rewards[rows, policy])

    succ_idx = np.broadcast_to(rows, mh.transition.shape)
    return _policy_iteration(rewards, mh.transition, succ_idx, eff, solve)


def _lattice_size(n_states, resolution):
    """Points of the belief lattice; ``BudgetExceeded`` past the guard."""
    n_points = math.comb(resolution + n_states - 1, n_states - 1)
    if n_points > MAX_LATTICE_POINTS:
        raise BudgetExceeded(
            n_points, MAX_LATTICE_POINTS,
            f"belief lattice over {n_states} states at resolution {resolution}",
        )
    return n_points


def _project_rows(beliefs, resolution):
    """Nearest lattice composition of each belief row: floor, then one more
    unit to each of the ``short`` slots with the largest fractional parts."""
    scaled = beliefs * resolution
    counts = np.floor(scaled).astype(np.int64)
    short = resolution - counts.sum(axis=1)
    order = np.argsort(-(scaled - counts), axis=1)
    place = np.argsort(order, axis=1)  # each slot's position in that order
    return counts + (place < short[:, None])


def _binomials(n_states, resolution):
    """Table of C(j+k, k) at [j, k] for j <= resolution and k < n_states;
    its largest entry is the lattice size, so int64 holds it."""
    return np.array([[math.comb(j + k, k) for k in range(n_states)]
                     for j in range(resolution + 1)], dtype=np.int64)


def _lattice_rank(counts, resolution, binom):
    """Rank of each composition of ``resolution`` in the lexicographic order
    of the lattice's compositions; ``binom`` is ``_binomials(W, resolution)``.

    With k_i = W-1-i slots after slot i and r_i units left before it, the
    compositions ranked earlier at slot i number C(r_i+k_i, k_i) -
    C(r_i-c_i+k_i, k_i) (a hockey-stick sum).
    """
    n_w = counts.shape[1]
    left = resolution - np.cumsum(counts, axis=1) + counts
    k = np.arange(n_w - 1, -1, -1)
    return (binom[left, k] - binom[left - counts, k]).sum(axis=1)


def _reachable_lattice(mh: PomdpModel, resolution):
    """The lattice points reachable from the projected per-signal initial
    beliefs, by a breadth-first search that expands each point once, rows in
    order of discovery: the initial signal masses and their rows, per-point
    payoffs (N, A), and the mass and row of every (point, action, signal)
    successor (row 0 where the mass is 0)."""
    binom = _binomials(mh.n_states, resolution)
    own = mh.signal_map == np.arange(mh.n_signals)[:, None]  # (S, W)
    rows = {}  # lattice rank -> row
    depths = []  # counts of the points first reached at each depth

    def place(beliefs):
        """Rows of the beliefs' projections; new points form the next depth."""
        counts = _project_rows(beliefs, resolution)
        ranks, first, inverse = np.unique(_lattice_rank(counts, resolution, binom),
                                          return_index=True, return_inverse=True)
        known = len(rows)
        found = np.array([rows.setdefault(r, len(rows)) for r in ranks.tolist()])
        if len(rows) > known:
            depths.append(counts[first[found >= known]])
        return found[inverse]

    start_mass = np.where(own, mh.init, 0.0).sum(axis=1)
    live = start_mass > 0.0
    start_rows = np.zeros(mh.n_signals, dtype=np.int64)
    start_rows[live] = place(np.where(own[live], mh.init, 0.0)
                             / start_mass[live, None])
    tables = []
    for counts in depths:  # place() appends the next depth while this runs
        beliefs = counts / resolution
        pushed = np.tensordot(beliefs, mh.transition, axes=1)  # (N, A, W)
        parts = np.where(own, pushed[:, :, None, :], 0.0)  # (N, A, S, W)
        mass = parts.sum(axis=3)
        live = mass > 0.0
        succ_idx = np.zeros(mass.shape, dtype=np.int64)
        succ_idx[live] = place(parts[live] / mass[live][:, None])
        tables.append((beliefs @ mh.payoff, mass, succ_idx))
    return (start_mass, start_rows, *map(np.concatenate, zip(*tables)))


def _lattice_table(mh: PomdpModel, resolution):
    """``_reachable_lattice(mh, resolution)`` with read-only arrays: the
    discount-free part of a grid solve, held by content on the memo, so
    built once per (model, h, resolution).  The size guard on the full
    lattice runs on every call."""
    _lattice_size(mh.n_states, resolution)
    return recall(("lattice", resolution, mh.n_signals),
                  (mh.signal_map, mh.transition, mh.payoff, mh.init),
                  lambda: _reachable_lattice(mh, resolution))


def _belief_grid_value(mh: PomdpModel, eff, resolution):
    """Optimal value at the initial belief of the projected lattice MDP:
    ``_policy_iteration`` with one sparse solve per policy over
    ``_lattice_table``'s reachable points, then the values at the projected
    initial beliefs weighted by their signals' masses.  Returns that value,
    the Bellman residual of the solved values, the number of policy
    evaluations and the number of points."""
    start_mass, start_rows, payoffs, succ_mass, succ_idx = _lattice_table(
        mh, resolution)
    n_pts = payoffs.shape[0]
    rewards = eff * payoffs  # (N, A)
    rows = np.arange(n_pts)
    width = mh.n_signals + 1  # a row's diagonal and its successors
    indptr = np.arange(0, width * n_pts + 1, width)

    def solve(policy):
        data = np.column_stack([np.ones(n_pts),
                                -(1.0 - eff) * succ_mass[rows, policy]])
        cols = np.column_stack([rows, succ_idx[rows, policy]])
        system = csr_matrix((data.ravel(), cols.ravel(), indptr),
                            shape=(n_pts, n_pts))
        return spsolve(system, rewards[rows, policy])

    values, residual, steps = _policy_iteration(rewards, succ_mass, succ_idx,
                                                eff, solve)
    return float(start_mass @ values[start_rows]), residual, steps, n_pts


def discounted_value_estimate(model: PomdpModel, lam, h,
                              grid_resolution=60) -> PayoffEstimate:
    """Estimate the optimal discounted value at stage duration h.

    A fully observed model is solved over its states, exactly; otherwise
    over the points of the belief lattice of denominator ``grid_resolution``
    reachable from the projected initial beliefs, with nearest-point
    projection, flagged approximate, with ``grid_gap`` the value change from
    half resolution (1 at resolution 2) to full and
    ``metadata["lattice_points"]`` the full-resolution points; the reachable
    table is built once per (model, h, resolution) and shared across lam.
    Both run policy iteration from the payoff-greedy policy;
    ``stopping_bound`` is the final Bellman residual over lam*h, which bounds
    the distance of the solved values to the optimal ones, and
    ``metadata["policy_steps"]`` counts the policy evaluations (of the
    full-resolution grid solve).  ``ValueError`` if 1 - lam*h rounds to 1,
    where the discount is lost.
    """
    lam, h, eff = _discount(lam, h)
    try:
        grid_resolution = operator.index(grid_resolution)
        valid = grid_resolution >= 2
    except TypeError:
        valid = False
    if not valid:
        raise ValueError("grid_resolution must be an integer >= 2")
    mh = stage_duration_transform(model, h) if h != 1.0 else model
    meta = {"h": h, "lam": lam}
    if is_fully_observed(model):
        values, residual, steps = _tabular_discounted_value(mh, eff)
        value, mode, diagnostics = float(model.init @ values), "exact", {}
    else:
        value, residual, steps, points = _belief_grid_value(mh, eff,
                                                            grid_resolution)
        coarse = max(2, grid_resolution // 2) if grid_resolution > 2 else 1
        coarse_value = _belief_grid_value(mh, eff, coarse)[0]
        mode = "approximate"
        diagnostics = {"grid_gap": abs(value - coarse_value)}
        meta["grid_resolution"] = grid_resolution
        meta["lattice_points"] = points
    meta["policy_steps"] = steps
    return PayoffEstimate(value, mode,
                          diagnostics={"stopping_bound": residual / eff,
                                       **diagnostics},
                          metadata=meta)


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
