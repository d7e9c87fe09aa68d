"""Command-line interface.

Exit codes: 0 success, 1 failed verification check, 2 usage or input errors.
All error messages go to standard error with an ``error:`` prefix.
"""

from __future__ import annotations

import argparse
import csv
import functools
import secrets
import sys

from .errors import StagePomdpError
from .evaluate import (
    DEFAULT_LAMBDA_GRID,
    asymptotic_value_estimate,
    discounted_payoff,
    longrun_average_exact_fsc,
    longrun_average_mc,
)
from .mimic import build_mimic_strategy
from .model import stage_duration_transform
from .strategies import History, SequenceStrategy
from .textio import parse_controller, parse_pomdp, serialize_pomdp
from .verify import figure1_model, render_report, run_suite, uniform_controller


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _load_model(path, normalize=False):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pomdp(fh.read(), filename=path, normalize=normalize)


def _parse_history(tokens, model):
    """History as alternating signal/action names: 's1 a s1 b s1'."""
    names = tokens.split()
    if len(names) % 2 == 0:
        raise StagePomdpError(
            "history must have an odd number of tokens (signal action ... signal)"
        )
    s_index = {n: i for i, n in enumerate(model.signal_names)}
    a_index = {n: i for i, n in enumerate(model.action_names)}

    def signal(tok):
        if tok not in s_index:
            raise StagePomdpError(f"unknown signal {tok!r}")
        return s_index[tok]

    def action(tok):
        if tok not in a_index:
            raise StagePomdpError(f"unknown action {tok!r}")
        return a_index[tok]

    steps = tuple(
        (action(names[i]), signal(names[i + 1])) for i in range(1, len(names), 2)
    )
    return History(signal(names[0]), steps)


def _parse_strategy(spec, model):
    if spec == "uniform":
        return uniform_controller(model)
    if spec.startswith("seq:"):
        names = [x.strip() for x in spec[4:].split(",") if x.strip()]
        if not names:
            raise StagePomdpError("empty action sequence")
        a_index = {n: i for i, n in enumerate(model.action_names)}
        try:
            indices = [a_index[n] for n in names]
        except KeyError as exc:
            raise StagePomdpError(f"unknown action {exc.args[0]!r}") from None
        return SequenceStrategy.pure(indices, model.n_actions)
    if spec.startswith("fsc:"):
        path = spec[4:]
        with open(path, "r", encoding="utf-8") as fh:
            return parse_controller(fh.read(), model, filename=path)
    raise StagePomdpError(
        f"unknown strategy spec {spec!r} (use seq:..., fsc:<file> or uniform)"
    )


def _floats(csv_text):
    return [float(x) for x in csv_text.split(",") if x.strip()]


def _resolve_seed(seed):
    if seed is None:
        seed = secrets.randbits(32)
    print(f"seed: {seed}")
    return seed


def _cmd_validate(args):
    # parsing already runs full validation
    model = _load_model(args.file, normalize=args.normalize)
    print(f"ok: {len(model.state_names)} states, {len(model.action_names)} "
          f"actions, {len(model.signal_names)} signals")
    return 0


def _cmd_transform(args):
    model = _load_model(args.file, normalize=args.normalize)
    out = serialize_pomdp(stage_duration_transform(model, args.h))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_mimic(args):
    model = _load_model(args.file)
    strategy = _parse_strategy(args.strategy, model)
    history = _parse_history(args.history, model)
    mimic = build_mimic_strategy(model, strategy, args.h, n_max=args.n_max)
    result = mimic.mimic_action(history)
    for a, name in enumerate(model.action_names):
        print(f"{name} {result.weights[a]:.12g}")
    print(f"# truncation_bound {result.truncation_bound:.6g}")
    print(f"# conditioning_mass {result.conditioning_mass:.6g}")
    if result.is_fallback:
        print("# fallback: filtered history has probability 0")
    return 0


def _cmd_evaluate(args):
    model = _load_model(args.file)
    strategy = _parse_strategy(args.strategy, model)
    if args.lam is None and not args.average:
        raise StagePomdpError("choose --lambda <x> or --average")
    if args.lam is not None and args.average:
        raise StagePomdpError("--lambda and --average are mutually exclusive")
    if args.lam is not None:
        if args.mc:
            seed = _resolve_seed(args.seed)
            est = discounted_payoff(model, strategy, args.lam, args.h,
                                    method="mc", n_traj=args.mc, seed=seed)
        else:
            est = discounted_payoff(model, strategy, args.lam, args.h)
    else:
        if args.mc:
            seed = _resolve_seed(args.seed)
            est = longrun_average_mc(model, strategy, args.h, args.horizon,
                                     args.mc, seed)
        else:
            est = longrun_average_exact_fsc(model, strategy, args.h)
    print(f"value: {est.value:.12g}")
    print(f"mode: {est.mode}")
    if est.std_error is not None:
        print(f"std_error: {est.std_error:.6g}")
    if est.bound is not None:
        print(f"bound: {est.bound:.6g}")
    return 0


def _diag_string(estimate):
    parts = [f"{k}={v:.6g}" for k, v in sorted(estimate.diagnostics.items())]
    return ";".join(parts)


def _cmd_sweep(args):
    model = _load_model(args.file)
    h_grid = _floats(args.h_grid)
    if not h_grid:
        raise ValueError("--h-grid needs at least one value")
    lam_grid = _floats(args.lambda_grid) if args.lambda_grid \
        else list(DEFAULT_LAMBDA_GRID)
    seed = args.seed if args.seed is not None else 0
    rows = []
    for h in h_grid:
        est = asymptotic_value_estimate(model, h, lam_grid,
                                        grid_resolution=args.grid_resolution)
        rows.append({
            "h": format(h, ".12g"),
            "lambda": format(lam_grid[-1], ".12g"),
            "value": format(est.value, ".12g"),
            "mode": est.mode,
            "diag": _diag_string(est),
            "seed": str(seed),
        })
    with open(args.csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["h", "lambda", "value", "mode", "diag", "seed"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def _cmd_verify(args):
    seed = args.seed if args.seed is not None else 0
    print(f"seed: {seed}")
    reports = run_suite(args.suite, seed=seed)
    failed = 0
    for report in reports:
        print(render_report(report))
        if not report.passed:
            failed += 1
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 1 if failed else 0


def _cmd_example(args):
    if args.name != "fig1":
        raise StagePomdpError(f"unknown example {args.name!r} (available: fig1)")
    text = serialize_pomdp(figure1_model())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process on first use."""
    parser = _Parser(prog="stagepomdp",
                     description="POMDPs with stage duration: transforms, "
                                 "mimicking strategies, payoff evaluation and "
                                 "numerical verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a .pomdp file")
    p.add_argument("file")
    p.add_argument("--normalize", action="store_true",
                   help="rescale rows/init to unit mass before validating")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("transform", help="apply the stage-duration transform")
    p.add_argument("file")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--normalize", action="store_true",
                   help="rescale rows/init to unit mass before validating")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("mimic", help="print the mimic action at a history")
    p.add_argument("file")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--history", required=True,
                   help="alternating signal/action names, e.g. 's1 a s1'")
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=_cmd_mimic)

    p = sub.add_parser("evaluate", help="discounted or long-run average payoff")
    p.add_argument("file")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--average", action="store_true")
    p.add_argument("--mc", type=int, default=0,
                   help="number of Monte Carlo trajectories")
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="asymptotic-value sweep over h, CSV output")
    p.add_argument("file")
    p.add_argument("--h-grid", required=True)
    p.add_argument("--lambda-grid", default=None)
    p.add_argument("--csv", required=True)
    p.add_argument("--grid-resolution", type=int, default=60)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the numerical verification suites")
    p.add_argument("--suite", default="all",
                   choices=["all", "theorem", "lemmas", "example",
                            "fully-observed"])
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="write a bundled example model")
    p.add_argument("name")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_example)

    return parser


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (StagePomdpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run_cli())
