"""Reference computations made apart from the program under test.

Everything here works on plain numpy arrays and rebuilds the objects it
needs (duration-h kernels, product chains) from their definitions, so a
fault in the program's own model algebra, chain construction or solvers does
not carry over into the reference values.
"""

from __future__ import annotations

import numpy as np


def duration_kernel(transition, h):
    """P_h = h P + (1 - h) I, built from the definition."""
    n_w = transition.shape[0]
    out = h * np.asarray(transition, dtype=np.float64)
    for w in range(n_w):
        out[w, :, w] += 1.0 - h
    return out


def controller_chain(model, rule, update, init_memory, h):
    """Chain, initial law and per-state payoff of a controller on (state, memory).

    ``rule[q, a]``, ``update[q, a, s, q']`` and ``init_memory[s]`` follow the
    program's controller file format; rows index state-major pairs (w, q).
    """
    p_h = duration_kernel(model.transition, h)
    n_w, n_a = model.payoff.shape
    n_q = rule.shape[0]
    sig = np.asarray(model.signal_map)
    chain = np.zeros((n_w * n_q, n_w * n_q))
    payoff = np.zeros(n_w * n_q)
    for w in range(n_w):
        for q in range(n_q):
            row = w * n_q + q
            for a in range(n_a):
                if rule[q, a] == 0.0:
                    continue
                payoff[row] += rule[q, a] * model.payoff[w, a]
                for w2 in range(n_w):
                    p = rule[q, a] * p_h[w, a, w2]
                    if p == 0.0:
                        continue
                    chain[row, w2 * n_q:(w2 + 1) * n_q] += p * update[q, a, sig[w2]]
    init = np.zeros(n_w * n_q)
    for w in range(n_w):
        init[w * n_q + init_memory[sig[w]]] += model.init[w]
    return chain, init, payoff


def sequence_arrays(actions, n_signals):
    """(rule, update, init_memory) of a cyclic action sequence."""
    period, n_a = len(actions), len(actions[0])
    rule = np.array(actions, dtype=np.float64)
    update = np.zeros((period, n_a, n_signals, period))
    for q in range(period):
        update[q, :, :, (q + 1) % period] = 1.0
    return rule, update, np.zeros(n_signals, dtype=np.int64)


def cesaro_mean(chain, init, payoff, tol=1e-13, max_squarings=80):
    """Cesaro-limit average payoff by power iteration on the lazy chain.

    (I + P)/2 has the same Cesaro projector as P and no other eigenvalue of
    modulus one, so its powers converge for every finite chain, periodic
    ones included.  Powers are taken by repeated squaring until two
    successive squares agree to ``tol``.
    """
    lazy = 0.5 * (np.eye(chain.shape[0]) + chain)
    for _ in range(max_squarings):
        nxt = lazy @ lazy
        if np.max(np.abs(nxt - lazy)) <= tol:
            lazy = nxt
            break
        lazy = nxt
    else:
        raise RuntimeError("lazy chain powers did not converge")
    return float(init @ lazy @ payoff)


def finite_cesaro_mean(chain, init, payoff, t):
    """Expected mean payoff over the first t stages: (1/t) sum_i mu P^i g."""
    mu = np.asarray(init, dtype=np.float64)
    total = 0.0
    for _ in range(t):
        total += float(mu @ payoff)
        mu = mu @ chain
    return total / t


def discounted_from_chain(chain, init, payoff, eff):
    """One linear solve: V = eff g + (1 - eff) P V, returned as init @ V."""
    n = chain.shape[0]
    values = np.linalg.solve(np.eye(n) - (1.0 - eff) * chain, eff * payoff)
    return float(init @ values)


def revealed_value(model, lam, h, tol=1e-13, max_sweeps=2_000_000):
    """Value of the same model with the state revealed, by value iteration.

    Returns ``(value, bound)``.  The stopping rule gives the certified
    sup-norm error ``bound = residual (1 - eff) / eff`` of the last sweep.
    Revealing the state can only help the player, so this bounds the
    POMDP's discounted value from above (Lovejoy 1991).
    """
    eff = lam * h
    p_h = duration_kernel(model.transition, h)
    values = np.zeros(model.payoff.shape[0])
    for _ in range(max_sweeps):
        new = (eff * model.payoff
               + (1.0 - eff) * np.einsum("waz,z->wa", p_h, values)).max(axis=1)
        residual = float(np.max(np.abs(new - values)))
        values = new
        if residual * (1.0 - eff) / eff <= tol:
            break
    else:
        raise RuntimeError("value iteration did not converge")
    return float(model.init @ values), residual * (1.0 - eff) / eff


def table_forward(model, table, default, depth, h):
    """State law and discounted-payoff stream of a depth-bounded table.

    ``table`` maps ``(first_signal, ((action, signal), ...))`` tuples to mixed
    actions.  Histories of length at most ``depth`` use the table (default
    when absent), later ones the default.  Returns ``(stage_payoffs, mu)``:
    the expected payoffs of stages 1..depth and the state law at stage
    depth + 1, from which play is the constant default action.
    """
    p_h = duration_kernel(model.transition, h)
    sig = np.asarray(model.signal_map)
    frontier = {}
    for w in range(model.payoff.shape[0]):
        if model.init[w] > 0.0:
            key = (int(sig[w]), ())
            vec = frontier.setdefault(key, np.zeros(len(sig)))
            vec[w] += model.init[w]
    stage_payoffs = []
    for _ in range(depth):
        expected = 0.0
        nxt = {}
        for (first, steps), mass in frontier.items():
            alpha = table.get((first, steps), default)
            expected += float(mass @ model.payoff @ alpha)
            for a in np.nonzero(alpha > 0.0)[0]:
                pushed = (mass * alpha[a]) @ p_h[:, a, :]
                for w2 in np.nonzero(pushed > 0.0)[0]:
                    key = (first, steps + ((int(a), int(sig[w2])),))
                    vec = nxt.setdefault(key, np.zeros(len(sig)))
                    vec[w2] += pushed[w2]
        stage_payoffs.append(expected)
        frontier = nxt
    mu = sum(frontier.values())
    return np.array(stage_payoffs), mu


def table_discounted(model, table, default, depth, lam, h):
    """Discounted payoff of a depth-bounded table strategy."""
    eff = lam * h
    stage_payoffs, mu = table_forward(model, table, default, depth, h)
    weights = eff * (1.0 - eff) ** np.arange(depth)
    chain = np.einsum("waz,a->wz", duration_kernel(model.transition, h), default)
    tail = discounted_from_chain(chain, mu, model.payoff @ default, eff)
    return float(weights @ stage_payoffs + (1.0 - eff) ** depth * tail)


def table_finite_mean(model, table, default, depth, h, t):
    """Expected mean payoff over the first t > depth stages of a table strategy."""
    stage_payoffs, mu = table_forward(model, table, default, depth, h)
    chain = np.einsum("waz,a->wz", duration_kernel(model.transition, h), default)
    rest = finite_cesaro_mean(chain, mu, model.payoff @ default, t - depth)
    return float((stage_payoffs.sum() + (t - depth) * rest) / t)


def figure1_first_mimic(h):
    """Figure-1 mimic of the alternating sequence at the first history.

    The first epoch boundary falls on an odd stage, where the sequence
    plays its first action, with probability sum_odd h (1-h)^(n-1) = 1/(2-h).
    """
    return 1.0 / (2.0 - h)


def figure1_alternating_average(h):
    """Long-run average of the alternating sequence in figure 1.

    At h = 1 play cycles between the two payoff-1 states for ever; at any
    h < 1 a frozen stage makes the sequence play the wrong action, which
    leads to the absorbing payoff-0 state with probability one.
    """
    return 1.0 if h == 1.0 else 0.0
