import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagepomdp.errors import (
    DuplicateEntry,
    ParseError,
    StagePomdpError,
    UnknownName,
)
from stagepomdp.model import make_model, stage_duration_transform
from stagepomdp.strategies import FiniteStateController
from stagepomdp.textio import (
    parse_controller,
    parse_pomdp,
    serialize_controller,
    serialize_pomdp,
)
from stagepomdp.verify import figure1_model, mixing_controller, random_pomdp_model

GOLDEN = pathlib.Path(__file__).parent / "golden"
VALID = sorted((GOLDEN / "valid").glob("*.pomdp"))
INVALID = sorted((GOLDEN / "invalid").glob("*.pomdp"))
INVALID_FSC = sorted((GOLDEN / "invalid_fsc").glob("*.fsc"))


def models_equal(a, b):
    return (
        a.state_names == b.state_names
        and a.action_names == b.action_names
        and a.signal_names == b.signal_names
        and np.array_equal(a.signal_map, b.signal_map)
        and np.array_equal(a.payoff, b.payoff)
        and np.array_equal(a.transition, b.transition)
        and np.array_equal(a.init, b.init)
    )


def test_corpus_size():
    assert len(VALID) >= 10
    assert len(INVALID) >= 10


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
def test_valid_round_trip(path):
    model = parse_pomdp(path.read_text(), filename=path.name)
    again = parse_pomdp(serialize_pomdp(model), filename=path.name)
    assert models_equal(model, again)


@pytest.mark.parametrize("path", INVALID, ids=lambda p: p.stem)
def test_invalid_positioned_errors(path):
    expected = path.with_suffix(".err").read_text()
    with pytest.raises(StagePomdpError) as err:
        parse_pomdp(path.read_text(), filename=path.name)
    rendered = f"{type(err.value).__name__}: {err.value}\n"
    assert rendered == expected


def test_canonical_serialization_golden():
    golden = (GOLDEN / "valid" / "fig1_canonical.pomdp").read_text()
    assert serialize_pomdp(figure1_model()) == golden


def test_fig1_file_matches_builtin():
    text = (GOLDEN / "valid" / "fig1_comments.pomdp").read_text()
    assert models_equal(parse_pomdp(text), figure1_model())


def test_transformed_round_trip_bit_exact():
    model = stage_duration_transform(figure1_model(), 0.5)
    reparsed = parse_pomdp(serialize_pomdp(model))
    assert np.array_equal(reparsed.transition, model.transition)
    third = stage_duration_transform(figure1_model(), 1.0 / 3.0)
    reparsed = parse_pomdp(serialize_pomdp(third))
    assert np.array_equal(reparsed.transition, third.transition)


def test_serialize_is_parse_inverse_on_serialized_text():
    # serialize(parse(text)) is the identity on canonical text
    for name in ("fig1_canonical.pomdp", "fig1_h05.pomdp", "random_pomdp.pomdp"):
        text = (GOLDEN / "valid" / name).read_text()
        assert serialize_pomdp(parse_pomdp(text)) == text


def test_omitted_payoff_parses_to_zeros():
    text = (GOLDEN / "valid" / "no_payoff.pomdp").read_text()
    model = parse_pomdp(text)
    assert np.array_equal(model.payoff, np.zeros((2, 1)))
    # and a zero-payoff model serializes without a payoff section
    assert "payoff:" not in serialize_pomdp(model)


def test_error_types_are_specific():
    with pytest.raises(UnknownName):
        parse_pomdp((GOLDEN / "invalid" / "bad_unknown_state.pomdp").read_text())
    with pytest.raises(DuplicateEntry):
        parse_pomdp((GOLDEN / "invalid" / "bad_duplicate_state.pomdp").read_text())
    with pytest.raises(ParseError):
        parse_pomdp((GOLDEN / "invalid" / "bad_missing_row.pomdp").read_text())


# --- controller files -----------------------------------------------------------

def test_controller_round_trip():
    model = random_pomdp_model()
    ctrl = mixing_controller(model)
    text = serialize_controller(ctrl, model)
    again = parse_controller(text, model)
    assert isinstance(again, FiniteStateController)
    assert np.array_equal(again.init_memory, ctrl.init_memory)
    assert np.array_equal(again.rule, ctrl.rule)
    assert np.array_equal(again.update, ctrl.update)


def test_controller_missing_update_row():
    model = random_pomdp_model()
    text = """memory: q0
init:
  s1 q0
  s2 q0
rule:
  q0 a 1
update:
  q0 a s1 q0 1
"""
    with pytest.raises(ParseError) as err:
        parse_controller(text, model)
    assert "no update row" in str(err.value)


def test_controller_unknown_action():
    model = random_pomdp_model()
    text = """memory: q0
init:
  s1 q0
  s2 q0
rule:
  q0 zap 1
update:
  q0 a s1 q0 1
"""
    with pytest.raises(UnknownName):
        parse_controller(text, model)


@pytest.mark.parametrize("path", INVALID_FSC, ids=lambda p: p.stem)
def test_invalid_controller_errors(path):
    # positioned format errors, then the controller's own checks
    expected = path.with_suffix(".err").read_text()
    with pytest.raises((StagePomdpError, ValueError)) as err:
        parse_controller(path.read_text(), random_pomdp_model(),
                         filename=path.name)
    rendered = f"{type(err.value).__name__}: {err.value}\n"
    assert rendered == expected


def test_controller_missing_rule_row():
    # a memory with no rule entry is a positioned error at the rule: header;
    # a row that is present but all zeros reaches the controller's own check
    path = GOLDEN / "invalid_fsc" / "bad_missing_rule_row.fsc"
    with pytest.raises(ParseError) as err:
        parse_controller(path.read_text(), random_pomdp_model())
    assert (err.value.line, err.value.column) == (5, 1)
    assert err.value.message == "no rule row for memory 'q1'"
    text = path.read_text().replace("  q0 a 1\n", "  q0 a 1\n  q1 b 0\n")
    with pytest.raises(ValueError, match="mixed action sums to 0.0"):
        parse_controller(text, random_pomdp_model())


def _sparse_rows(rng, shape):
    """Random stochastic rows over the last axis, each with some zeros."""
    raw = rng.uniform(0.05, 1.0, size=shape) * (rng.random(shape) < 0.6)
    raw[..., 0] += raw.sum(axis=-1) == 0
    return raw / raw.sum(axis=-1, keepdims=True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_w=st.integers(1, 4), n_a=st.integers(1, 3), n_s=st.integers(1, 3),
    n_q=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
)
def test_sparse_round_trip(n_w, n_a, n_s, n_q, seed):
    rng = np.random.default_rng(seed)
    payoff = rng.normal(size=(n_w, n_a)) * (rng.random((n_w, n_a)) < 0.5)
    model = make_model(
        tuple(f"w{i}" for i in range(n_w)), tuple(f"a{i}" for i in range(n_a)),
        tuple(f"s{i}" for i in range(n_s)), rng.integers(0, n_s, size=n_w),
        payoff, _sparse_rows(rng, (n_w, n_a, n_w)), _sparse_rows(rng, (n_w,)),
    )
    text = serialize_pomdp(model)
    again = parse_pomdp(text)
    assert models_equal(again, model)
    assert serialize_pomdp(again) == text

    ctrl = FiniteStateController(
        rng.integers(0, n_q, size=n_s), _sparse_rows(rng, (n_q, n_a)),
        _sparse_rows(rng, (n_q, n_a, n_s, n_q)),
        memory_names=tuple(f"m{i}" for i in range(n_q)),
    )
    text = serialize_controller(ctrl, model)
    back = parse_controller(text, model)
    assert back.memory_names == ctrl.memory_names
    assert np.array_equal(back.init_memory, ctrl.init_memory)
    assert np.array_equal(back.rule, ctrl.rule)
    assert np.array_equal(back.update, ctrl.update)
    assert serialize_controller(back, model) == text
