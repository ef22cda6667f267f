"""Command-line entry point.

Verbs: synth, train, eval, kfold, gradcheck, pseudo. Every command is
deterministic given its flags and seed. Exit codes are a stable contract:
0 success, 2 I/O or usage, 3 dataset without any labels, 4 incompatible
checkpoint, 5 rule-file parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .data import (DatasetFormatError, load_dataset, read_dataset_dim, save_dataset,
                   save_datasets, undecodable)
from .engine import finite_diff_check
from .metrics import ScoreWeights, evaluate
from .model import CheckpointError, Model, NetConfig, load_checkpoint, save_checkpoint
from .pseudo import RuleParseError, default_rule_table, parse_rule_file, pseudo_apply
from .synth import SynthConfig, synth_generate
from .train import (NoLabeledDataError, TrainSettings, evaluate_model, fit,
                    make_gradcheck_setup, run_kfold)

EXIT_OK = 0
EXIT_IO = 2
EXIT_NO_LABELS = 3
EXIT_CHECKPOINT = 4
EXIT_RULES = 5

GRADCHECK_TOL = 1e-5


class UsageError(ValueError):
    """Bad flag or config-file value; exits 2."""


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def rate_float(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def nonneg_float(text):
    value = finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def load_config_file(path):
    """Line-oriented `key = value` settings; '#' starts a comment."""
    settings = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if undecodable(line):
                raise UsageError(f"{path}:{line_no}: not valid UTF-8 text")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{line_no}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            settings[key.strip()] = value.strip()
    return settings


def _resolve(args, key, cast, default):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    config = getattr(args, "_config", None)
    if config and key in config:
        try:
            return cast(config[key])
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config key {key!r}: {exc}") from None
    return default


def _adapter_flag(value):
    return value == "on"


# -- commands ------------------------------------------------------------


def cmd_synth(args):
    config = SynthConfig(
        n=args.n,
        latent_dim=_resolve(args, "latent_dim", positive_int, 16),
        missing_au=_resolve(args, "missing_au", rate_float, 0.0),
        missing_ce=_resolve(args, "missing_ce", rate_float, 0.0),
        missing_va=_resolve(args, "missing_va", rate_float, 0.0),
        noise_std=_resolve(args, "noise_std", nonneg_float, 0.0),
        embed_dim=_resolve(args, "embed_dim", positive_int, 512),
        seed=args.seed,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    records, truth = synth_generate(config)
    truth_out = args.truth_out or (args.out + ".truth")
    save_datasets([(args.out, records), (truth_out, truth)], config.embed_dim)
    n_au = sum(r.labels.au is not None for r in records)
    n_ce = sum(r.labels.ce is not None for r in records)
    n_va = sum(r.labels.va is not None for r in records)
    print(f"wrote {len(records)} records to {args.out} "
          f"(au: {n_au}, ce: {n_ce}, va: {n_va}); truth to {truth_out}")
    return EXIT_OK


def _net_config(args, embed_dim):
    return NetConfig(
        embed_dim=embed_dim,
        variant=_resolve(args, "variant", str, "streaming"),
        adapter=_adapter_flag(_resolve(args, "adapter", str, "off")),
        seed=args.seed,
    )


def _train_settings(args):
    return TrainSettings(
        epochs=_resolve(args, "epochs", positive_int, 50),
        batch_size=_resolve(args, "batch_size", positive_int, 64),
        lr=_resolve(args, "lr", finite_float, 1e-3),
        weight_decay=_resolve(args, "weight_decay", nonneg_float, 0.0),
        optimizer=_resolve(args, "optimizer", str, "adam"),
        seed=args.seed,
    )


def cmd_train(args):
    records = load_dataset(args.data)
    if not records:
        raise NoLabeledDataError("dataset is empty")
    embed_dim = len(records[0].embedding)
    model = Model(_net_config(args, embed_dim))
    settings = _train_settings(args)
    history = fit(model, records, settings, log_path=args.log)
    save_checkpoint(model, args.out)
    last = history[-1]
    print(f"trained {settings.epochs} epochs; final losses "
          f"au={last.l_au:.6f} ce={last.l_ce:.6f} va={last.l_va:.6f} "
          f"total={last.total:.6f}; checkpoint {args.out}")
    return EXIT_OK


def _score_weights(args):
    return ScoreWeights(
        au_f1=_resolve(args, "w_au_f1", finite_float, 0.5),
        au_tacc=_resolve(args, "w_au_tacc", finite_float, 0.5),
        ce_f1=_resolve(args, "w_ce_f1", finite_float, 0.67),
        ce_acc=_resolve(args, "w_ce_acc", finite_float, 0.33),
        va_v=_resolve(args, "w_va_v", finite_float, 0.5),
        va_a=_resolve(args, "w_va_a", finite_float, 0.5),
    )


def cmd_eval(args):
    records = load_dataset(args.data)
    if not records:
        raise NoLabeledDataError("dataset is empty")
    labels = [r.labels for r in records]
    weights = _score_weights(args)
    if args.oracle:
        # feed the labels back as predictions; every present track scores 1
        au_pred = np.stack([lab.au if lab.au is not None else np.zeros(12, dtype=np.int64)
                            for lab in labels])
        ce_pred = np.array([lab.ce if lab.ce is not None else 0 for lab in labels])
        va_pred = np.stack([lab.va if lab.va is not None else np.zeros(2) for lab in labels])
        report = evaluate(au_pred, ce_pred, va_pred, labels, weights=weights)
    else:
        if not args.checkpoint:
            raise CheckpointError("--checkpoint is required unless --oracle is given")
        model = load_checkpoint(args.checkpoint)
        if model.config.embed_dim != len(records[0].embedding):
            raise CheckpointError(
                f"checkpoint embed_dim {model.config.embed_dim} does not match "
                f"dataset dim {len(records[0].embedding)}")
        report = evaluate_model(model, records, weights=weights)
    sys.stdout.write(report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_json())
    return EXIT_OK


def cmd_kfold(args):
    records = load_dataset(args.data)
    if not any(r.labels.any_present() for r in records):
        raise NoLabeledDataError("no record carries any label")
    k = _resolve(args, "k", positive_int, 5)
    if k < 2:
        raise UsageError(f"k must be >= 2, got {k}")
    if k > len(records):
        raise UsageError(f"k={k} exceeds dataset size {len(records)}")
    net_config = _net_config(args, len(records[0].embedding))
    settings = _train_settings(args)
    weights = _score_weights(args)
    workers = _resolve(args, "workers", positive_int, 1)
    reports, aggregate = run_kfold(records, k, args.seed, net_config, settings,
                                   weights=weights, workers=workers)
    doc = {"k": k, "seed": args.seed,
           "folds": [r.to_dict() for r in reports],
           "aggregate": aggregate}
    for i, rep in enumerate(reports, start=1):
        parts = [f"{name}={getattr(rep, key):.6f}"
                 for name, key in (("au", "au_score"), ("ce", "ce_score"), ("va", "va_score"))
                 if getattr(rep, key) is not None]
        print(f"fold-{i}: " + " ".join(parts))
    agg_parts = [f"{name.split('_')[0]}={val:.6f}"
                 for name, val in aggregate.items() if val is not None]
    print("mean:   " + " ".join(agg_parts))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_gradcheck(args):
    variant = _resolve(args, "variant", str, "streaming")
    adapter = _adapter_flag(_resolve(args, "adapter", str, "off"))
    eps = _resolve(args, "eps", finite_float, 1e-5)
    model, batch = make_gradcheck_setup(variant=variant, adapter=adapter, seed=args.seed)

    def loss_fn():
        breakdown = model.loss_and_grads(batch)
        if args.corrupt_grad:
            dw, _ = model.store.grads("extractor_au.fc1")
            dw.flat[0] += 1.0
        return breakdown.total

    result = finite_diff_check(loss_fn, model.store, eps=eps)
    if result.max_rel_err < GRADCHECK_TOL:
        print(f"gradcheck pass: max relative error {result.max_rel_err:.3e} "
              f"({variant} variant, {model.store.param_count()} parameters)")
        return EXIT_OK
    print(f"gradcheck FAIL: max relative error {result.max_rel_err:.3e} "
          f"at {result.worst_param}")
    return 1


def cmd_pseudo(args):
    records = load_dataset(args.data)
    table = parse_rule_file(args.rules) if args.rules else default_rule_table()
    out_records, filled = pseudo_apply(records, table)
    save_dataset(out_records, args.out,
                 dim=len(records[0].embedding) if records else read_dataset_dim(args.data))
    print(f"filled {filled} CE labels; wrote {args.out}")
    return EXIT_OK


# -- parser --------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affectstream",
        description="Streaming multi-task affective recognition on expression embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=nonneg_int, default=None)
        p.add_argument("--config", default=None, help="key = value settings file")

    p = sub.add_parser("synth", help="generate a synthetic dataset plus truth sidecar")
    add_common(p)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--latent-dim", dest="latent_dim", type=positive_int, default=None)
    p.add_argument("--noise-std", dest="noise_std", type=nonneg_float, default=None)
    p.add_argument("--missing-au", dest="missing_au", type=rate_float, default=None)
    p.add_argument("--missing-ce", dest="missing_ce", type=rate_float, default=None)
    p.add_argument("--missing-va", dest="missing_va", type=rate_float, default=None)
    p.add_argument("--embed-dim", dest="embed_dim", type=positive_int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", dest="truth_out", default=None)
    p.set_defaults(func=cmd_synth)

    def add_train_opts(p):
        p.add_argument("--epochs", type=positive_int, default=None)
        p.add_argument("--batch-size", dest="batch_size", type=positive_int, default=None)
        p.add_argument("--lr", type=finite_float, default=None)
        p.add_argument("--weight-decay", dest="weight_decay", type=nonneg_float, default=None)
        p.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
        p.add_argument("--variant", choices=("streaming", "parallel"), default=None)
        p.add_argument("--adapter", choices=("on", "off"), default=None)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    add_common(p)
    add_train_opts(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="append per-epoch loss lines here")
    p.set_defaults(func=cmd_train)

    def add_weight_opts(p):
        p.add_argument("--w-au-f1", dest="w_au_f1", type=finite_float, default=None)
        p.add_argument("--w-au-tacc", dest="w_au_tacc", type=finite_float, default=None)
        p.add_argument("--w-ce-f1", dest="w_ce_f1", type=finite_float, default=None)
        p.add_argument("--w-ce-acc", dest="w_ce_acc", type=finite_float, default=None)
        p.add_argument("--w-va-v", dest="w_va_v", type=finite_float, default=None)
        p.add_argument("--w-va-a", dest="w_va_a", type=finite_float, default=None)

    p = sub.add_parser("eval", help="score a checkpoint on a labeled dataset")
    add_common(p)
    add_weight_opts(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--oracle", action="store_true",
                   help="score the dataset's own labels as predictions")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("kfold", help="k-fold cross-validated train + eval")
    add_common(p)
    add_train_opts(p)
    add_weight_opts(p)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=positive_int, default=None)
    p.add_argument("--workers", type=positive_int, default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("gradcheck", help="finite-difference check of all analytic gradients")
    add_common(p)
    p.add_argument("--variant", choices=("streaming", "parallel"), default=None)
    p.add_argument("--adapter", choices=("on", "off"), default=None)
    p.add_argument("--eps", type=finite_float, default=None)
    p.add_argument("--corrupt-grad", dest="corrupt_grad", action="store_true",
                   help="debug: tamper with one analytic gradient to force a failure")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("pseudo", help="fill missing CE labels from AU patterns")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--rules", default=None, help="rule file; defaults to the built-in table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pseudo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = load_config_file(args.config) if args.config else {}
        # every verb takes a seed; validate it once, flag or config key
        args.seed = _resolve(args, "seed", nonneg_int, 0)
        return args.func(args)
    except RuleParseError as exc:
        print(f"error: rule file: {exc}", file=sys.stderr)
        return EXIT_RULES
    except CheckpointError as exc:
        print(f"error: checkpoint: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except NoLabeledDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_LABELS
    except (OSError, DatasetFormatError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
