import pathlib

import pytest

from stagepomdp.cli import run_cli
from stagepomdp.textio import parse_pomdp, serialize_controller
from stagepomdp.verify import mixing_controller, random_pomdp_model

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.pomdp"
    code = run_cli(["example", "fig1", "-o", str(path)])
    assert code == 0
    return path


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_matches_golden(fig1_file):
    golden = (GOLDEN / "valid" / "fig1_canonical.pomdp").read_text()
    assert fig1_file.read_text() == golden


def test_validate_ok(capsys, fig1_file):
    code, out, err = run(capsys, "validate", str(fig1_file))
    assert code == 0
    assert "ok:" in out


def test_validate_bad_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.pomdp"
    bad.write_text((GOLDEN / "invalid" / "bad_row_sum.pomdp").read_text())
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_usage_error_exit_2(capsys):
    code, out, err = run(capsys, "no-such-command")
    assert code == 2
    assert "error:" in err


def test_transform_h1_no_change(capsys, fig1_file, tmp_path):
    out_path = tmp_path / "t.pomdp"
    code, _, _ = run(capsys, "transform", str(fig1_file), "--h", "1",
                     "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == fig1_file.read_text()


def test_transform_half(capsys, fig1_file, tmp_path):
    out_path = tmp_path / "t.pomdp"
    code, _, _ = run(capsys, "transform", str(fig1_file), "--h", "0.5",
                     "-o", str(out_path))
    assert code == 0
    model = parse_pomdp(out_path.read_text())
    assert model.transition[0, 0, 0] == 0.5


def test_mimic_prints_weights_and_bound(capsys, fig1_file):
    code, out, _ = run(capsys, "mimic", str(fig1_file), "--h", "0.5",
                       "--strategy", "seq:a,b", "--history", "s1")
    assert code == 0
    lines = out.splitlines()
    weights = {l.split()[0]: float(l.split()[1]) for l in lines[:2]}
    assert weights["a"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert any(l.startswith("# truncation_bound") for l in lines)


def test_evaluate_average_exact(capsys, fig1_file):
    code, out, _ = run(capsys, "evaluate", str(fig1_file), "--h", "0.5",
                       "--strategy", "seq:a,b", "--average")
    assert code == 0
    assert "value: 0" in out and "mode: exact" in out


def test_evaluate_discounted(capsys, fig1_file):
    code, out, _ = run(capsys, "evaluate", str(fig1_file), "--h", "1",
                       "--strategy", "seq:a,b", "--lambda", "0.5")
    assert code == 0
    assert "value: 1" in out


def test_evaluate_mc_prints_seed(capsys, fig1_file):
    code, out, _ = run(capsys, "evaluate", str(fig1_file), "--h", "0.5",
                       "--strategy", "seq:a,b", "--average", "--mc", "20",
                       "--horizon", "200", "--seed", "5")
    assert code == 0
    assert "seed: 5" in out
    assert "std_error:" in out


def test_evaluate_conflicting_flags(capsys, fig1_file):
    code, out, err = run(capsys, "evaluate", str(fig1_file), "--h", "0.5",
                         "--strategy", "seq:a,b", "--lambda", "0.1", "--average")
    assert code == 2
    assert err.startswith("error:")


def test_fsc_strategy_file(capsys, tmp_path):
    model = random_pomdp_model()
    model_path = tmp_path / "rand.pomdp"
    from stagepomdp.textio import serialize_pomdp

    model_path.write_text(serialize_pomdp(model))
    ctrl_path = tmp_path / "ctrl.fsc"
    ctrl_path.write_text(serialize_controller(mixing_controller(model), model))
    code, out, _ = run(capsys, "evaluate", str(model_path), "--h", "0.5",
                       "--strategy", f"fsc:{ctrl_path}", "--average")
    assert code == 0
    assert "mode: exact" in out


@pytest.mark.parametrize("argv", [
    ["transform", "{fig1}", "--h", "1.5"],
    ["mimic", "{fig1}", "--h", "0", "--strategy", "seq:a,b", "--history", "s1"],
    ["evaluate", "{fig1}", "--h", "0.5", "--strategy", "seq:a,b", "--lambda", "2"],
    ["evaluate", "{fig1}", "--h", "0.5", "--strategy", "seq:a,b", "--average",
     "--mc", "10", "--horizon", "0"],
    ["sweep", "{fig1}", "--h-grid", "0.5", "--lambda-grid", "0.01,0.1",
     "--csv", "{csv}"],
], ids=["transform-h", "mimic-h", "evaluate-lambda", "evaluate-horizon",
        "sweep-lambda-grid"])
def test_out_of_range_input_exit_2(capsys, fig1_file, tmp_path, argv):
    # a value the library rejects is an input error, not a failed check
    argv = [a.format(fig1=fig1_file, csv=tmp_path / "out.csv") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_unknown_strategy_spec(capsys, fig1_file):
    code, _, err = run(capsys, "mimic", str(fig1_file), "--h", "0.5",
                       "--strategy", "magic", "--history", "s1")
    assert code == 2
    assert err.startswith("error:")


def test_sweep_csv_stable_and_monotone_within_slack(capsys, fig1_file, tmp_path):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    args = ["sweep", str(fig1_file), "--h-grid", "0.25,0.5,0.75,1",
            "--lambda-grid", "0.02,0.01", "--grid-resolution", "40",
            "--seed", "7"]
    assert run(capsys, *args, "--csv", str(csv_a))[0] == 0
    assert run(capsys, *args, "--csv", str(csv_b))[0] == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()

    lines = csv_a.read_text().splitlines()
    assert lines[0] == "h,lambda,value,mode,diag,seed"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    values = [float(r[2]) for r in rows]
    slacks = []
    for r in rows:
        diag = dict(kv.split("=") for kv in r[4].split(";"))
        slacks.append(sum(float(v) for v in diag.values()))
    for i in range(len(values) - 1):
        assert values[i + 1] >= values[i] - (slacks[i] + slacks[i + 1] + 1e-3)
    assert all(r[5] == "7" for r in rows)


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fully-observed",
                       "--seed", "2")
    assert code == 0
    assert "checks passed" in out
    assert "seed: 2" in out


def test_verify_failing_check_exit_1(capsys, monkeypatch):
    from stagepomdp import cli
    from stagepomdp.verify import CheckReport

    failing = CheckReport(
        name="synthetic", quantities={"difference": 1.0}, tolerance=0.1,
        passed=False,
    )
    monkeypatch.setattr(cli, "run_suite", lambda suite, seed: [failing])
    code, out, _ = run(capsys, "verify", "--suite", "example", "--seed", "0")
    assert code == 1
    assert "FAIL synthetic" in out


def test_verify_example_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "example", "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    # the example report shows the full-payoff average at h=1 and the
    # near-zero estimate at h=0.5
    assert any(l.startswith("PASS example_average_h1") for l in lines)
    assert any(l.startswith("PASS example_asymptotic_h05") for l in lines)


def test_normalize_flag(capsys, tmp_path):
    path = tmp_path / "loose.pomdp"
    path.write_text("""states: u v
actions: go
signals: s
signal_map:
  u s
  v s
init:
  u 3
transition:
  u go v 2
  v go u 5
""")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and err.startswith("error:")
    code, out, _ = run(capsys, "validate", str(path), "--normalize")
    assert code == 0 and "ok:" in out
