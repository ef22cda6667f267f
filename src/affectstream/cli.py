"""Command-line entry point.

Verbs: synth, train, eval, kfold, gradcheck, pseudo. Every command is
deterministic given its flags and seed. Exit codes are a stable contract:
0 success, 2 I/O or usage, 3 dataset without any labels, 4 incompatible
checkpoint, 5 rule-file parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .data import (DatasetFormatError, LabelColumns, load_dataset, read_dataset_dim,
                   save_dataset, save_datasets, undecodable)
from ._options import check_field
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


# the fields the CLI sets by flag and config key; type, default and rule are the field's
FIELDS = {
    SynthConfig: ("latent_dim", "noise_std", "missing_au", "missing_ce", "missing_va",
                  "embed_dim"),
    NetConfig: ("variant", "adapter"),
    TrainSettings: ("epochs", "batch_size", "lr", "weight_decay", "optimizer"),
    ScoreWeights: tuple(f.name for f in fields(ScoreWeights)),
}
# ScoreWeights flags read --w-au-f1 and so on
PREFIX = {ScoreWeights: "w_"}

# text to value by field type; a bool is "on" or "off", other text its rule refuses
CASTS = {"int": int, "float": float, "str": str,
         "bool": lambda text: {"on": True, "off": False}.get(text, text)}


def field_type(cls, name):
    """Type for the flag or config key of cls's field `name`: the text cast
    to the field's type, then checked against the field's rule."""
    f = next(f for f in fields(cls) if f.name == name)
    cast = CASTS[f.type]
    def parse(text):
        value = cast(text)  # a ValueError here is argparse's "invalid <type> value"
        try:
            return check_field(f, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__, parse.rule = f.type, f.metadata["rule"]
    return parse


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


def _resolve(args, key, cast, default=None):
    """Flag value if given, else the config-file value cast as the flag's,
    else default."""
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


def add_fields(parser, cls):
    """One flag per CLI field of dataclass cls, e.g. --batch-size, with the
    field's rule as its help."""
    for name in FIELDS[cls]:
        key, parse = PREFIX.get(cls, "") + name, field_type(cls, name)
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, default=None,
                            help=parse.rule)


def from_fields(args, cls, **given):
    """A validated cls whose CLI fields come from their flag, else config key,
    else the field default; a seed given by flag or config key sets its seed."""
    for name in FIELDS[cls]:
        value = _resolve(args, PREFIX.get(cls, "") + name, field_type(cls, name))
        if value is not None:
            given[name] = value
    if args.seed is not None and "seed" in {f.name for f in fields(cls)}:
        given["seed"] = args.seed
    obj = cls(**given)
    try:
        obj.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return obj


# -- commands ------------------------------------------------------------


def cmd_synth(args):
    config = from_fields(args, SynthConfig, n=args.n)
    records, truth = synth_generate(config)
    truth_out = args.truth_out or (args.out + ".truth")
    save_datasets([(args.out, records), (truth_out, truth)], config.embed_dim)
    labels = LabelColumns.from_labels(r.labels for r in records)
    n_au, n_ce, n_va = (int(m.sum()) for m in (labels.au_mask, labels.ce_mask, labels.va_mask))
    print(f"wrote {len(records)} records to {args.out} "
          f"(au: {n_au}, ce: {n_ce}, va: {n_va}); truth to {truth_out}")
    return EXIT_OK


def cmd_train(args):
    records = load_dataset(args.data)
    if not records:
        raise NoLabeledDataError("dataset is empty")
    model = Model(from_fields(args, NetConfig, embed_dim=len(records[0].embedding)))
    settings = from_fields(args, TrainSettings)
    history = fit(model, records, settings, log_path=args.log)
    save_checkpoint(model, args.out)
    last = history[-1]
    print(f"trained {settings.epochs} epochs; final losses "
          f"au={last.l_au:.6f} ce={last.l_ce:.6f} va={last.l_va:.6f} "
          f"total={last.total:.6f}; checkpoint {args.out}")
    return EXIT_OK


def cmd_eval(args):
    records = load_dataset(args.data)
    if not records:
        raise NoLabeledDataError("dataset is empty")
    weights = from_fields(args, ScoreWeights)
    if args.oracle:
        # feed the labels back as predictions; every present track scores 1
        labels = LabelColumns.from_labels(r.labels for r in records)
        report = evaluate(labels.au, labels.ce, labels.va, labels, weights=weights)
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
    if not LabelColumns.from_labels(r.labels for r in records).any_present():
        raise NoLabeledDataError("no record carries any label")
    k = _resolve(args, "k", int, 5)
    if k < 2:
        raise UsageError(f"k must be >= 2, got {k}")
    if k > len(records):
        raise UsageError(f"k={k} exceeds dataset size {len(records)}")
    net_config = from_fields(args, NetConfig, embed_dim=len(records[0].embedding))
    settings = from_fields(args, TrainSettings)
    reports, aggregate = run_kfold(records, k, settings.seed, net_config, settings,
                                   weights=from_fields(args, ScoreWeights))
    doc = {"k": k, "seed": settings.seed,
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
    net = from_fields(args, NetConfig)
    eps = _resolve(args, "eps", float)
    model, batch = make_gradcheck_setup(variant=net.variant, adapter=net.adapter, seed=net.seed)

    def loss_fn():
        breakdown = model.loss_and_grads(batch)
        if args.corrupt_grad:
            dw, _ = model.store.grads("extractor_au.fc1")
            dw.flat[0] += 1.0
        return breakdown.total

    try:  # eps's default and rule are finite_diff_check's
        result = finite_diff_check(loss_fn, model.store, **({} if eps is None else {"eps": eps}))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if result.max_rel_err < GRADCHECK_TOL:
        print(f"gradcheck pass: max relative error {result.max_rel_err:.3e} "
              f"({net.variant} variant, {model.store.param_count()} parameters)")
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

    def add_common(p, *classes):
        p.add_argument("--seed", type=field_type(TrainSettings, "seed"), default=None)
        p.add_argument("--config", default=None, help="key = value settings file")
        for cls in classes:
            add_fields(p, cls)

    p = sub.add_parser("synth", help="generate a synthetic dataset plus truth sidecar")
    add_common(p, SynthConfig)
    p.add_argument("--n", type=field_type(SynthConfig, "n"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", dest="truth_out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    add_common(p, TrainSettings, NetConfig)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="append per-epoch loss lines here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a labeled dataset")
    add_common(p, ScoreWeights)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--oracle", action="store_true",
                   help="score the dataset's own labels as predictions")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("kfold", help="k-fold cross-validated train + eval")
    add_common(p, TrainSettings, NetConfig, ScoreWeights)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("gradcheck", help="finite-difference check of all analytic gradients")
    add_common(p, NetConfig)
    p.add_argument("--eps", type=float, default=None)
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
        args.seed = _resolve(args, "seed", field_type(TrainSettings, "seed"))
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
