"""The command line and the library accept the same option values.

Each option's rule lives on its dataclass field. A text given as a flag or
as a config key must be refused exactly when it does not cast to the
field's type or when validate() refuses the default object with that field
replaced, and the refusal must name the field. Everything runs in-process
at parser level; nothing trains.
"""

import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectstream import cli
from affectstream.data import LabelColumns, LabelSet
from affectstream.engine import OPTIMIZERS, ParamStore, finite_diff_check, make_rng
from affectstream.metrics import ScoreWeights, evaluate
from affectstream.model import VARIANTS, NetConfig
from affectstream.synth import SynthConfig
from affectstream.train import TrainSettings

VERBS = {SynthConfig: "synth", TrainSettings: "train", NetConfig: "train", ScoreWeights: "eval"}
REQUIRED = {"synth": ["--n", "3", "--out", "s.csv"],
            "train": ["--data", "d.csv", "--out", "ck.json"],
            "eval": ["--data", "d.csv"]}
# every field the CLI exposes, plus --n (SynthConfig.n) and --seed
# (TrainSettings.seed, on every verb)
OPTIONS = ([(cls, name) for cls, names in cli.FIELDS.items() for name in names]
           + [(SynthConfig, "n"), (TrainSettings, "seed")])
# the oracle's own casts: "on"/"off" are the only bool texts
CASTS = {"int": int, "float": float, "str": str, "bool": {"on": True, "off": False}.__getitem__}

TEXTS = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "0.5", "1.5", "1e3", "nan", "inf", "-inf", "+inf",
                     "on", "off", "", "junk", " 1", "1_0", "True"]
                    + list(VARIANTS) + list(OPTIMIZERS)),
    st.integers(-3, 3).map(str),
    st.floats().map(repr),
    st.text(max_size=6))


def flag_of(cls, name):
    return "--" + (cli.PREFIX.get(cls, "") + name).replace("_", "-")


def library_verdict(cls, name, text):
    """None when the library takes text's value for the field, else the
    message it refuses it with ('' when the text does not cast)."""
    field = next(f for f in dataclasses.fields(cls) if f.name == name)
    try:
        value = CASTS[field.type](text)
    except (KeyError, ValueError):
        return ""
    default = cls(n=3) if cls is SynthConfig else cls()
    try:
        dataclasses.replace(default, **{name: value}).validate()
    except ValueError as exc:
        return str(exc)
    return None


def _build(args, cls):
    """What cli.main and the verb do with parsed args: resolve the seed,
    then build cls; None on success, else the usage error's message."""
    try:
        args.seed = cli._resolve(args, "seed", cli.field_type(TrainSettings, "seed"))
        cli.from_fields(args, cls, **({"n": args.n} if cls is SynthConfig else {}))
    except cli.UsageError as exc:
        return str(exc)
    return None


def flag_verdict(cls, name, text):
    verb = VERBS[cls]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args = cli.build_parser().parse_args(
                [verb] + REQUIRED[verb] + [f"{flag_of(cls, name)}={text}"])
    except SystemExit:
        return err.getvalue()
    args._config = {}
    return _build(args, cls)


def config_verdict(cls, name, text):
    verb = VERBS[cls]
    args = cli.build_parser().parse_args([verb] + REQUIRED[verb])
    args._config = {cli.PREFIX.get(cls, "") + name: text}
    return _build(args, cls)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(OPTIONS), TEXTS)
def test_flag_config_key_and_library_accept_the_same_values(option, text):
    cls, name = option
    expected = library_verdict(cls, name, text)
    # --n has no config key
    verdicts = [flag_verdict(cls, name, text)] + (
        [] if name == "n" else [config_verdict(cls, name, text)])
    for got in verdicts:
        assert (got is None) == (expected is None), (text, got, expected)
        if got is not None:
            assert name in got or flag_of(cls, name) in got, got
            assert expected in got, (got, expected)


def test_help_lists_each_field_rule():
    """--help shows each field's rule after its flag, so the allowed values
    of --variant, --optimizer and --adapter are listed."""
    for cls, names in cli.FIELDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.build_parser().parse_args([VERBS[cls], "--help"])
        text = " ".join(out.getvalue().split())
        for f in dataclasses.fields(cls):
            if f.name in names:
                flag = flag_of(cls, f.name)
                metavar = flag[2:].replace("-", "_").upper()
                assert f"{flag} {metavar} {f.metadata['rule']}" in text, (VERBS[cls], flag)


def _nan_weight_score():
    labels = LabelColumns.from_labels([LabelSet(au=np.zeros(12, int), ce=0, va=np.zeros(2))] * 2)
    evaluate(np.zeros((2, 12)), np.zeros(2, int), np.zeros((2, 2)), labels,
             weights=ScoreWeights(au_f1=math.nan))


def _zero_eps_check():
    store = ParamStore()
    store.add_linear("w", 1, 1, make_rng(0))
    finite_diff_check(lambda: 0.0, store, eps=0)


@pytest.mark.parametrize("call, field", [
    (lambda: NetConfig(adapter="maybe").validate(), "adapter"),
    (lambda: TrainSettings(optimizer="foo").validate(), "optimizer"),
    (_nan_weight_score, "au_f1"),
    (_zero_eps_check, "eps"),
], ids=["adapter-maybe", "optimizer-foo", "nan-weight", "eps-zero"])
def test_library_refuses_what_the_cli_refuses(call, field):
    with pytest.raises(ValueError, match=field):
        call()
