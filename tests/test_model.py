import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagepomdp.errors import (
    BadOrder,
    InitNotStochastic,
    MissingSignal,
    NegativeProbability,
    RowNotStochastic,
)
from stagepomdp.model import (
    is_fully_observed,
    make_model,
    rescale_stage_duration,
    stage_duration_transform,
    validate_mixed_action,
    validate_stage_duration,
)
from stagepomdp.strategies import FiniteStateController
from stagepomdp.verify import figure1_model


def random_model(seed, n_states=4, n_actions=2, n_signals=2):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(n_states, n_actions, n_states))
    transition = raw / raw.sum(axis=2, keepdims=True)
    init = rng.uniform(0.1, 1.0, size=n_states)
    return make_model(
        states=[f"w{i}" for i in range(n_states)],
        actions=[f"a{i}" for i in range(n_actions)],
        signals=[f"s{i}" for i in range(n_signals)],
        signal_map=rng.integers(0, n_signals, size=n_states),
        payoff=rng.uniform(-1.0, 1.0, size=(n_states, n_actions)),
        transition=transition,
        init=init / init.sum(),
    )


# --- validation ---------------------------------------------------------------

def test_figure1_model_accepted():
    m = figure1_model()
    assert m.n_states == 3 and m.n_actions == 2 and m.n_signals == 1
    assert m.max_abs_payoff == 1.0


def test_row_not_stochastic_rejected():
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 0] = 0.999
    transition[1, 0, 1] = 1.0
    with pytest.raises(RowNotStochastic) as err:
        make_model(["w1", "w2"], ["a"], ["s"], [0, 0],
                   np.zeros((2, 1)), transition, [1.0, 0.0])
    assert err.value.state == "w1"


def test_delta_init_accepted():
    m = figure1_model()
    assert m.init[0] == 1.0 and m.init[1] == 0.0


def test_negative_probability_rejected():
    transition = np.zeros((2, 1, 2))
    transition[0, 0] = [1.5, -0.5]
    transition[1, 0, 1] = 1.0
    with pytest.raises(NegativeProbability):
        make_model(["w1", "w2"], ["a"], ["s"], [0, 0],
                   np.zeros((2, 1)), transition, [1.0, 0.0])


def test_init_not_stochastic_rejected():
    transition = np.zeros((2, 1, 2))
    transition[:, 0, 1] = 1.0
    with pytest.raises(InitNotStochastic):
        make_model(["w1", "w2"], ["a"], ["s"], [0, 0],
                   np.zeros((2, 1)), transition, [0.6, 0.6])


def test_missing_signal_rejected():
    transition = np.zeros((2, 1, 2))
    transition[:, 0, 1] = 1.0
    with pytest.raises(MissingSignal):
        make_model(["w1", "w2"], ["a"], ["s"], [0, 7],
                   np.zeros((2, 1)), transition, [1.0, 0.0])


def test_nonfinite_payoff_rejected():
    transition = np.zeros((1, 1, 1))
    transition[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        make_model(["w"], ["a"], ["s"], [0], [[np.inf]], transition, [1.0])


def one_state_model(transition, init):
    return make_model(["w"], ["a"], ["s"], [0], [[0.0]], [[[transition]]], [init])


@pytest.mark.parametrize("build, error", [
    (lambda: validate_mixed_action([np.nan, np.nan], 2), ValueError),
    (lambda: one_state_model(np.nan, 1.0), RowNotStochastic),
    (lambda: one_state_model(1.0, np.nan), InitNotStochastic),
    (lambda: FiniteStateController([0], [[np.nan, np.nan]], np.ones((1, 2, 1, 1))),
     ValueError),
    (lambda: FiniteStateController([0], [[0.5, 0.5]], np.full((1, 2, 1, 1), np.nan)),
     ValueError),
], ids=["mixed-action", "transition", "init", "rule", "update"])
def test_nan_fails_probability_checks(build, error):
    # "x < 0" and "abs(total - 1) > tol" are both False for NaN
    with pytest.raises(error):
        build()


def test_normalize_on_request_only():
    transition = np.zeros((1, 1, 1))
    transition[0, 0, 0] = 2.0
    with pytest.raises(RowNotStochastic):
        make_model(["w"], ["a"], ["s"], [0], [[0.0]], transition, [1.0])
    m = make_model(["w"], ["a"], ["s"], [0], [[0.0]], transition, [3.0],
                   normalize=True)
    assert m.transition[0, 0, 0] == 1.0 and m.init[0] == 1.0


def test_validated_model_is_frozen():
    m = figure1_model()
    with pytest.raises(ValueError):
        m.transition[0, 0, 0] = 0.5


def test_stage_duration_bounds():
    assert validate_stage_duration(1) == 1.0
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            validate_stage_duration(bad)


def test_mixed_action_validation():
    validate_mixed_action([0.5, 0.5], 2)
    with pytest.raises(ValueError):
        validate_mixed_action([0.5, 0.6], 2)
    with pytest.raises(NegativeProbability):
        validate_mixed_action([1.5, -0.5], 2)


# --- stage-duration transform ---------------------------------------------------

def test_transform_identity_at_one_exact():
    m = random_model(0)
    out = stage_duration_transform(m, 1.0)
    assert np.array_equal(out.transition, m.transition)


def test_transform_direct_substitution():
    m = figure1_model()
    out = stage_duration_transform(m, 0.5)
    # P(w2 | w1, a) = 1 becomes an even split between moving and freezing
    assert out.transition[0, 0, 1] == 0.5
    assert out.transition[0, 0, 0] == 0.5


def test_transform_self_loop_fixed_point():
    m = figure1_model()
    for h in (0.25, 0.5, 0.9):
        out = stage_duration_transform(m, h)
        assert np.array_equal(out.transition[2], m.transition[2])


def test_transform_rows_stochastic():
    m = random_model(3)
    for h in (0.1, 0.37, 0.99):
        out = stage_duration_transform(m, h)
        assert np.max(np.abs(out.transition.sum(axis=2) - 1.0)) <= 1e-12


def test_transform_diagonal_growth():
    m = random_model(5)
    out = stage_duration_transform(m, 0.6)
    for w in range(m.n_states):
        for a in range(m.n_actions):
            if m.transition[w, a, w] < 1.0:
                assert out.transition[w, a, w] > m.transition[w, a, w]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    h1_frac=st.floats(0.05, 0.95),
    h2=st.floats(0.1, 1.0),
)
def test_transform_composition_property(seed, h1_frac, h2):
    m = random_model(seed)
    h1 = h1_frac * h2
    direct = stage_duration_transform(m, h1)
    composed = stage_duration_transform(stage_duration_transform(m, h2), h1 / h2)
    assert np.max(np.abs(direct.transition - composed.transition)) <= 1e-12


# --- rescaling -------------------------------------------------------------------

def test_rescale_reconstruction():
    m = random_model(7)
    m_q = stage_duration_transform(m, 0.25)
    rebased, rel = rescale_stage_duration(m_q, 0.25, 0.5)
    assert rel == 0.5
    rebuilt = stage_duration_transform(rebased, rel)
    assert np.max(np.abs(rebuilt.transition - m_q.transition)) <= 1e-12
    # the rebased model is the duration-0.5 model of the same base
    assert np.max(np.abs(rebased.transition
                         - stage_duration_transform(m, 0.5).transition)) <= 1e-12


def test_rescale_round_trip_to_base():
    m = random_model(9)
    h = 0.4
    m_h = stage_duration_transform(m, h)
    rebased, rel = rescale_stage_duration(m_h, h, 1.0)
    assert rel == h
    assert np.max(np.abs(rebased.transition - m.transition)) <= 1e-12


def test_rescale_deterministic_hand_expansion():
    m = figure1_model()
    m_h1 = stage_duration_transform(m, 0.2)
    rebased, rel = rescale_stage_duration(m_h1, 0.2, 0.4)
    assert rel == 0.5
    # off-diagonal mass of the rebased kernel is 0.4; after re-applying the
    # relative duration it is exactly 0.2 again
    assert rebased.transition[0, 0, 1] == 0.4
    rebuilt = stage_duration_transform(rebased, rel)
    assert rebuilt.transition[0, 0, 1] == pytest.approx(0.2, abs=1e-15)


def test_rescale_bad_order():
    m = figure1_model()
    with pytest.raises(BadOrder):
        rescale_stage_duration(m, 0.5, 0.5)
    with pytest.raises(BadOrder):
        rescale_stage_duration(m, 0.7, 0.5)


# --- observability ----------------------------------------------------------------

def test_fully_observed_cases():
    assert not is_fully_observed(figure1_model())
    rng_model = random_model(1, n_states=3, n_signals=3)
    # identity signal map
    m = make_model(
        ["w0", "w1", "w2"], ["a0", "a1"], ["s0", "s1", "s2"],
        [0, 1, 2], rng_model.payoff, rng_model.transition, rng_model.init,
    )
    assert is_fully_observed(m)
    two = make_model(
        ["w0", "w1"], ["a"], ["s0", "s1"], [1, 0], np.zeros((2, 1)),
        np.ones((2, 1, 2)) * 0.5, [0.5, 0.5],
    )
    assert is_fully_observed(two)
