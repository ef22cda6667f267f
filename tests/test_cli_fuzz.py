"""Property tests of the CLI's exit codes on arbitrary and mutated files.

`cli.main` runs in-process on a file of arbitrary bytes, or on a valid file
with a few bytes inserted, deleted or replaced, given as --data, --rules,
--config or --checkpoint. Every call must return the code the contract
documents for that input (0 success, 2 I/O or usage, 3 no labels, 4
checkpoint, 5 rule file) and never raise or print a traceback.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affectstream import cli
from affectstream.data import (AffectRecord, DatasetFormatError, LabelSet, load_dataset,
                               save_dataset)
from affectstream.model import Model, NetConfig, save_checkpoint
from affectstream.pseudo import RuleParseError, parse_rule_file

DIM = 3


def _valid_files(tmp):
    rng = np.random.default_rng(0)
    records = [AffectRecord(id=f"r{i}", embedding=rng.standard_normal(DIM),
                            labels=LabelSet(au=rng.integers(0, 2, 12), ce=i % 7 if i % 2 else None,
                                            va=rng.uniform(-1, 1, 2)))
               for i in range(6)]
    save_dataset(records, tmp / "d.csv")
    (tmp / "r.rules").write_text("# happiness\nREQ au6, au12 FORBID au4 => 4\n"
                                 "REQ au1,au2 FORBID au4 => 6\n")
    (tmp / "s.cfg").write_text("# synth\nseed = 3\nmissing_au = 0.5\nnoise_std = 0.1\n")
    model = Model(NetConfig(embed_dim=DIM, au_feat_dim=4, ce_feat_dim=2, va_feat_dim=2,
                            translator_dim=2, extractor_hidden=4, head_hidden=3))
    save_checkpoint(model, str(tmp / "ck.json"))
    return {name: (tmp / name).read_bytes() for name in ("d.csv", "r.rules", "s.cfg", "ck.json")}


with tempfile.TemporaryDirectory() as _tmp:
    VALID = _valid_files(Path(_tmp))

# each file role: the file it replaces, the argument lists that read it,
# and the codes the contract allows for it
ROLES = {
    "data": ("d.csv", [["pseudo", "--data", "x", "--out", "p.csv"],
                       ["train", "--data", "x", "--out", "ck2.json", "--epochs", "1",
                        "--batch-size", "4"],
                       ["eval", "--data", "x", "--oracle"],
                       ["kfold", "--data", "x", "--k", "2", "--epochs", "1"]], {0, 2, 3}),
    "rules": ("r.rules", [["pseudo", "--data", "d.csv", "--rules", "x", "--out", "p.csv"]],
              {0, 5}),
    "config": ("s.cfg", [["synth", "--n", "4", "--embed-dim", str(DIM), "--latent-dim", "2",
                          "--config", "x", "--out", "s.csv"]], {0, 2}),
    "checkpoint": ("ck.json", [["eval", "--data", "d.csv", "--checkpoint", "x"]], {0, 4}),
}


def _decodes(raw):
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _expected(role, raw, path):
    """The one code the contract fixes for this file, or None when the
    file's content leaves it to the run (any code ROLES allows)."""
    if role == "data":
        try:
            load_dataset(path)
        except DatasetFormatError:
            return 2
        return None
    if role == "rules":
        try:
            parse_rule_file(path)
        except RuleParseError:
            return 5
        return 0
    if not _decodes(raw):
        return {"config": 2, "checkpoint": 4}[role]
    return None


@st.composite
def mutated(draw, valid):
    raw = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(raw)))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        if how == "insert":
            raw[pos:pos] = draw(st.binary(min_size=1, max_size=3))
        elif how == "delete":
            del raw[pos:pos + draw(st.integers(1, 3))]
        elif pos < len(raw):
            raw[pos] = draw(st.integers(0, 255))
    return bytes(raw)


def files(role):
    valid = VALID[ROLES[role][0]]
    return st.one_of(st.binary(max_size=200), mutated(valid))


def _run(role, raw, argv_index):
    name, argvs, allowed = ROLES[role]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for other, content in VALID.items():
            (tmp / other).write_bytes(content)
        (tmp / "x").write_bytes(raw)
        argv = [str(tmp / a) if a in VALID or a in ("x", "p.csv", "s.csv", "ck2.json") else a
                for a in argvs[argv_index % len(argvs)]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        expected = _expected(role, raw, tmp / "x")
    assert "Traceback" not in err.getvalue()
    assert code in allowed, (code, err.getvalue())
    if expected is not None:
        assert code == expected, (code, err.getvalue())


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(files("data"), st.integers(0, 3))
def test_fuzz_dataset_file_exit_codes(raw, verb):
    _run("data", raw, verb)


@SETTINGS
@given(files("rules"))
def test_fuzz_rule_file_exit_codes(raw):
    _run("rules", raw, 0)


@SETTINGS
@given(files("config"))
def test_fuzz_config_file_exit_codes(raw):
    _run("config", raw, 0)


@SETTINGS
@given(files("checkpoint"))
def test_fuzz_checkpoint_file_exit_codes(raw):
    _run("checkpoint", raw, 0)
