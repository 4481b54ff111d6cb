"""Command-line interface.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors. Every
subcommand accepts --config pointing at a flat `key = value` file whose
entries act as extra flags; explicit command-line flags override them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from ..consistency import run_consistency_experiment
from ..datagen import SyntheticConfig, class_prior_report, generate, split
from ..losses import LOSS_KINDS
from ..metrics import evaluate
from ..model import (TrainConfig, grad_check, scorer_from_dict, scorer_to_dict,
                     train)
from ..prediction import (COARSE_GRID, FINE_GRID, adaptive_flags, global_flags,
                          per_label_flags, sweep_global_threshold,
                          sweep_per_label_thresholds)
from .dataio import (check_output_path, load_dataset, load_json,
                     read_config_file, save_dataset, save_json,
                     write_results_csv)
from .experiments import (DEV_FRACTION, ExperimentConfig, check_distinct,
                          run_ablation, run_compare, run_gamma_sweep,
                          run_no_none_study)

GRAD_CHECK_TOLERANCE = 1e-4


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_list(text: str, parse) -> list:
    """Parse each entry of a comma list; an empty list is a usage error."""
    values = [parse(part.strip()) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(
            f"need a comma list of at least one value, got {text!r}")
    return values


def _float_list(text: str) -> list:
    return _parse_list(text, float)


def _int_list(text: str) -> list:
    return _parse_list(text, int)


def _loss_entry(part: str) -> tuple:
    kind, _, gamma = part.partition(":")
    return kind, float(gamma) if gamma else 0.0


def _distinct(values: list, describe) -> list:
    """The values of a comma list; one given twice is a usage error."""
    try:
        check_distinct(values, describe)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return values


def _seed_list(text: str) -> list:
    return _distinct(_int_list(text), "seed {}".format)


def _gamma_list(text: str) -> list:
    return _distinct(_float_list(text), "gamma {}".format)


def _loss_list(text: str) -> list:
    """Parse \"kind[:gamma],kind[:gamma],...\" into distinct (kind, gamma) pairs."""
    return _distinct(_parse_list(text, _loss_entry),
                     lambda pair: "loss {}:{}".format(*pair))


def _add_synth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=10, help="number of labels")
    parser.add_argument("--dim", type=int, default=50, help="feature dimension")
    parser.add_argument("--n", type=int, default=5000, help="instance count")
    parser.add_argument("--none-fraction", type=float, default=0.3,
                        help="target fraction of none-class instances")
    parser.add_argument("--bias", type=_float_list, default=None,
                        help="comma list of per-label threshold offsets; "
                             "'inf' disables a label")
    parser.add_argument("--fn-rate", type=float, default=0.0,
                        help="false-negative flip rate")
    parser.add_argument("--sym-rate", type=float, default=0.0,
                        help="symmetric flip rate")
    parser.add_argument("--seed", type=int, default=0)


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--lr", type=float, default=1e-2)
    parser.add_argument("--warmup", type=float, default=0.1,
                        help="warmup fraction of total steps")
    parser.add_argument("--hidden", type=int, default=0,
                        help="hidden width; 0 trains a linear scorer")
    parser.add_argument("--weight-decay", type=float, default=0.0,
                        help="decoupled weight decay; anchors absolute score "
                             "levels for global-threshold prediction")


def _synth_config(args) -> SyntheticConfig:
    return SyntheticConfig(
        num_labels=args.k,
        feature_dim=args.dim,
        num_instances=args.n,
        none_fraction_target=args.none_fraction,
        per_label_bias=None if args.bias is None else np.asarray(args.bias),
        noise_false_negative_rate=args.fn_rate,
        noise_symmetric_rate=args.sym_rate,
        seed=args.seed,
    )


def _cmd_gen_data(args) -> int:
    data = generate(_synth_config(args))
    save_dataset(data, args.out)
    _emit({"out": args.out, **class_prior_report(data)})
    return 0


def _train_config_base(args, loss_kind: str, gamma: float) -> TrainConfig:
    return TrainConfig(
        loss_kind=loss_kind, gamma=gamma, epochs=args.epochs,
        batch_size=args.batch_size, learning_rate=args.lr,
        warmup_fraction=args.warmup, hidden_width=args.hidden,
        weight_decay=args.weight_decay,
    )


def _cmd_train(args) -> int:
    data = load_dataset(args.data)
    if args.dev:
        dev = load_dataset(args.dev)
    else:
        n_dev = max(1, int(DEV_FRACTION * len(data)))
        if n_dev >= len(data):
            raise ValueError("dataset too small to carve out a dev split")
        data, dev = split(data, len(data) - n_dev)
    config = replace(_train_config_base(args, args.loss, args.gamma),
                     seed=args.seed)
    scorer, history = train(data, dev, [config])[0]
    save_json(scorer_to_dict(scorer, config), args.out)
    _emit({
        "out": args.out,
        "final_train_loss": history.train_loss[-1],
        "best_epoch": history.best_epoch,
        "best_dev_micro_f1": history.dev_metric[history.best_epoch],
    })
    return 0


def _prediction_flags(args, scores):
    if args.rule == "adaptive":
        return adaptive_flags(scores)
    if args.rule == "global":
        return global_flags(scores, args.threshold)
    if args.thresholds is None:
        raise ValueError("--rule per-label requires --thresholds")
    return per_label_flags(scores, args.thresholds)


def _checkpoint_scores(args):
    """Load --model and --data, check that they agree, and score the data."""
    payload = load_json(args.model)  # its errors name the path
    try:
        scorer = scorer_from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"{args.model}: {exc}") from exc
    data = load_dataset(args.data)
    if (scorer.k, scorer.dim) != (data.k, data.dim):
        raise ValueError(
            f"checkpoint {args.model} has k={scorer.k}, dim={scorer.dim} but "
            f"data {args.data} has k={data.k}, dim={data.dim}")
    return data, scorer.forward(data.features)


def _cmd_eval(args) -> int:
    data, scores = _checkpoint_scores(args)
    report = evaluate(scores, data.labels, _prediction_flags(args, scores))
    _emit({"rule": args.rule, **report.as_dict()})
    return 0


def _cmd_grad_check(args) -> int:
    results = {str(k): grad_check(args.loss, args.gamma, k, args.trials,
                                  args.seed)
               for k in args.k}
    worst = max(results.values())
    _emit({
        "loss": args.loss,
        "gamma": args.gamma,
        "max_rel_error": worst,
        "per_k": results,
        "tolerance": GRAD_CHECK_TOLERANCE,
        "pass": worst < GRAD_CHECK_TOLERANCE,
    })
    return 0 if worst < GRAD_CHECK_TOLERANCE else 1


def _cmd_consistency(args) -> int:
    report = run_consistency_experiment(args.trials, args.k, args.seed,
                                        step=args.step, iters=args.iters)
    _emit(asdict(report))
    return 0


def _cmd_sweep(args) -> int:
    data, scores = _checkpoint_scores(args)
    grid = FINE_GRID if args.grid == "fine" else COARSE_GRID
    if args.per_label:
        thresholds = sweep_per_label_thresholds(scores, data.labels, grid)
        _emit({"grid": args.grid, "thresholds": thresholds.tolist()})
    else:
        t, f1 = sweep_global_threshold(scores, data.labels, grid)
        _emit({"grid": args.grid, "threshold": t, "micro_f1": f1})
    return 0


def _write_rows(rows, out_path: str) -> int:
    write_results_csv(rows, out_path)
    _emit({"out": out_path, "rows": len(rows)})
    return 0


def _cmd_compare(args) -> int:
    train_configs = [_train_config_base(args, kind, gamma)
                     for kind, gamma in args.losses]
    config = ExperimentConfig(
        kind="no_none" if args.no_none_study else "compare",
        synth=_synth_config(args),
        train_configs=train_configs,
        seeds=args.seeds,
    )
    rows = run_no_none_study(config) if args.no_none_study else run_compare(config)
    return _write_rows(rows, args.out)


def _cmd_ablate(args) -> int:
    config = ExperimentConfig(
        kind="gamma_sweep" if args.sweep_gamma is not None else "ablation",
        synth=_synth_config(args),
        train_configs=[_train_config_base(args, "ncrl_final", args.gamma)],
        seeds=args.seeds,
    )
    if args.sweep_gamma is not None:
        rows = run_gamma_sweep(config, args.sweep_gamma)
    else:
        rows = run_ablation(config)
    return _write_rows(rows, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncrl-lab",
        description="Multi-label loss laboratory: synthetic data, training, "
                    "threshold rules, and experiment suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic JSONL dataset")
    _add_synth_flags(gen)
    gen.add_argument("--out", required=True, help="JSONL output path")
    gen.set_defaults(handler=_cmd_gen_data)

    tr = sub.add_parser("train", help="train a scorer on a JSONL dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--dev", default=None,
                    help="dev JSONL; defaults to a 15%% tail split of --data")
    tr.add_argument("--loss", required=True, choices=LOSS_KINDS)
    tr.add_argument("--gamma", type=float, default=0.0)
    _add_train_flags(tr)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, help="checkpoint JSON path")
    tr.set_defaults(handler=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--rule", choices=("adaptive", "global", "per-label"),
                    default="adaptive")
    ev.add_argument("--threshold", type=float, default=0.5,
                    help="probability threshold for --rule global")
    ev.add_argument("--thresholds", type=_float_list, default=None,
                    help="comma list for --rule per-label")
    ev.set_defaults(handler=_cmd_eval)

    gc = sub.add_parser("grad-check",
                        help="compare analytic gradients to finite differences")
    gc.add_argument("--loss", required=True, choices=LOSS_KINDS)
    gc.add_argument("--gamma", type=float, default=0.0)
    gc.add_argument("--k", type=_int_list, default=[10],
                    help="comma list of label counts")
    gc.add_argument("--trials", type=int, default=100)
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(handler=_cmd_grad_check)

    co = sub.add_parser("consistency",
                        help="verify surrogate-risk minimizers against the "
                             "closed-form optimum")
    co.add_argument("--trials", type=int, default=1000)
    co.add_argument("--k", type=int, default=5)
    co.add_argument("--seed", type=int, default=7)
    co.add_argument("--step", type=float, default=0.5)
    co.add_argument("--iters", type=int, default=5000)
    co.set_defaults(handler=_cmd_consistency)

    sw = sub.add_parser("sweep", help="tune thresholds on a dataset")
    sw.add_argument("--model", required=True)
    sw.add_argument("--data", required=True)
    sw.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    sw.add_argument("--per-label", action="store_true")
    sw.set_defaults(handler=_cmd_sweep)

    cmp_ = sub.add_parser("compare", help="train competing losses on shared data")
    _add_synth_flags(cmp_)
    _add_train_flags(cmp_)
    cmp_.add_argument("--losses", type=_loss_list, required=True,
                      help="comma list of kind[:gamma], e.g. "
                           "ncrl_final:0.05,ncrl_plain,bce")
    cmp_.add_argument("--seeds", type=_seed_list, default=[0, 1, 2, 3, 4])
    cmp_.add_argument("--no-none-study", action="store_true",
                      help="run the none-stripping study instead (uses the "
                           "first loss only)")
    cmp_.add_argument("--out", required=True, help="results CSV path")
    cmp_.set_defaults(handler=_cmd_compare)

    ab = sub.add_parser("ablate", help="six-variant component ablation")
    _add_synth_flags(ab)
    _add_train_flags(ab)
    ab.add_argument("--gamma", type=float, default=0.05,
                    help="shift value for the shifted variants")
    ab.add_argument("--seeds", type=_seed_list, default=[0, 1, 2, 3, 4])
    ab.add_argument("--sweep-gamma", type=_gamma_list, default=None,
                    help="emit per-gamma rows over this comma list instead")
    ab.add_argument("--out", required=True, help="results CSV path")
    ab.set_defaults(handler=_cmd_ablate)

    return parser


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _switches(parser: argparse.ArgumentParser, command: str) -> set:
    """The store_true flags of one subcommand; empty if it is unknown."""
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices.get(command)
    return {flag for a in (sub._actions if sub else ())
            if isinstance(a, argparse._StoreTrueAction)
            for flag in a.option_strings}


def _expand_config_args(argv: list, parser: argparse.ArgumentParser) -> list:
    """Splice --config file entries in as flags ahead of explicit ones.

    Boolean words turn the subcommand's store_true flags on or off; every
    other entry becomes one `--flag=value` token, so a value that starts
    with "-" is not taken for a flag. A second --config is refused, not
    merged or dropped.
    """
    paths = []
    rest = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config requires a file path")
            paths.append(argv[i + 1])
            i += 2
            continue
        if token.startswith("--config="):
            paths.append(token.split("=", 1)[1])
            i += 1
            continue
        rest.append(token)
        i += 1
    if not paths:
        return rest
    if len(paths) > 1:
        raise ValueError("--config given more than once: " + ", ".join(paths))
    if not rest:
        raise ValueError("--config must follow a subcommand")
    switches = _switches(parser, rest[0])
    injected = []
    for key, value in read_config_file(paths[0]).items():
        flag = "--" + key.replace("_", "-")
        if flag in switches and value.lower() in _TRUE_WORDS:
            injected.append(flag)
        elif flag not in switches or value.lower() not in _FALSE_WORDS:
            injected.append(f"{flag}={value}")
    return rest[:1] + injected + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config_args(argv, parser)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            check_output_path(args.out)  # before the work, not after it
        return args.handler(args)
    except (OSError, ValueError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
