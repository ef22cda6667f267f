"""End-to-end checks of the command-line interface via subprocess."""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affectstream
from affectstream.data import load_dataset
from affectstream.metrics import ScoreWeights
from affectstream.model import Model, NetConfig, load_checkpoint, save_checkpoint
from affectstream.train import TrainSettings, evaluate_model, fit

SYNTH_SMALL = ["--n", "50", "--latent-dim", "8", "--embed-dim", "32", "--seed", "3"]


def run_python(args, cwd):
    """Run this interpreter in `cwd` with the directory of the imported package
    first on PYTHONPATH as an absolute path, so the child imports the same
    source as this test process even where a relative PYTHONPATH does not
    resolve."""
    env = dict(os.environ)
    src = str(Path(affectstream.__file__).resolve().parents[1])
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + old if old else src
    return subprocess.run([sys.executable] + list(args), capture_output=True,
                          text=True, cwd=cwd, env=env)


def run_cli(args, cwd):
    return run_python(["-m", "affectstream"] + list(args), cwd)


def test_child_imports_package_under_test(tmp_path):
    proc = run_python(["-c", "import affectstream; print(affectstream.__file__)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(affectstream.__file__).resolve()


def make_dataset(tmp_path, extra=(), name="d.csv"):
    out = tmp_path / name
    proc = run_cli(["synth"] + SYNTH_SMALL + list(extra) + ["--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return out


# -- synth ----------------------------------------------------------------


def test_synth_header_plus_records(tmp_path):
    out = make_dataset(tmp_path)
    lines = out.read_text().splitlines()
    assert len(lines) == 51  # header + 50 records
    assert lines[0].startswith("#affect-v1")
    truth = tmp_path / "d.csv.truth"
    assert len(truth.read_text().splitlines()) == 51


def test_synth_same_flags_byte_identical(tmp_path):
    a = make_dataset(tmp_path, name="a.csv")
    b = make_dataset(tmp_path, name="b.csv")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.truth").read_bytes() == (tmp_path / "b.csv.truth").read_bytes()


def test_synth_missing_ce_drops_all_ce(tmp_path):
    out = make_dataset(tmp_path, extra=["--missing-ce", "1.0"])
    records = load_dataset(str(out))
    assert all(r.labels.ce is None for r in records)
    assert any(r.labels.au is not None for r in records)


def test_synth_unwritable_path_exit_2(tmp_path):
    proc = run_cli(["synth"] + SYNTH_SMALL + ["--out", "/no-such-dir/x.csv"], tmp_path)
    assert proc.returncode == 2
    assert "error" in proc.stderr


# -- train ----------------------------------------------------------------


def test_train_loss_decreases_over_epochs(tmp_path):
    """Epoch-mean total loss after 50 epochs beats the first epoch."""
    data = make_dataset(tmp_path)
    proc = run_cli(["train", "--data", str(data), "--epochs", "50",
                    "--batch-size", "16", "--seed", "0",
                    "--out", "ck.json", "--log", "train.log"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in (tmp_path / "train.log").read_text().splitlines()]
    assert len(rows) == 50
    first_total = float(rows[0][4])
    last_total = float(rows[-1][4])
    assert last_total < first_total
    assert (tmp_path / "ck.json").exists()


def test_train_identical_seed_identical_checkpoint(tmp_path):
    data = make_dataset(tmp_path)
    flags = ["train", "--data", str(data), "--epochs", "3", "--batch-size", "16",
             "--weight-decay", "0.01", "--seed", "7"]
    for name in ("c1.json", "c2.json"):
        proc = run_cli(flags + ["--out", name], tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()


def test_train_epochs_zero_rejected(tmp_path):
    data = make_dataset(tmp_path)
    proc = run_cli(["train", "--data", str(data), "--epochs", "0", "--out", "ck.json"],
                   tmp_path)
    assert proc.returncode == 2
    assert "must be >= 1" in proc.stderr


def test_train_unlabeled_dataset_exit_3(tmp_path):
    data = make_dataset(tmp_path, extra=["--missing-au", "1.0", "--missing-ce", "1.0",
                                         "--missing-va", "1.0"])
    proc = run_cli(["train", "--data", str(data), "--epochs", "1", "--out", "ck.json"],
                   tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.strip()


def test_train_missing_data_file_exit_2(tmp_path):
    proc = run_cli(["train", "--data", "nope.csv", "--epochs", "1", "--out", "ck.json"],
                   tmp_path)
    assert proc.returncode == 2


def write_dataset(path, dim, rows):
    """Write a dataset file by hand from its header width and record lines."""
    path.write_text(f"#affect-v1 dim={dim}\n" + "".join(row + "\n" for row in rows))
    return path


def test_train_va_never_in_pairs_exit_3(tmp_path):
    """The only label is one VA pair: no batch forms a VA loss, so training
    would move the weights by decay alone."""
    data = write_dataset(tmp_path / "va1.csv", 3, ["r0,0.1,0.2,0.3,-,-,0.5,-0.5",
                                                   "r1,0.4,0.5,0.6,-,-,-,-"])
    proc = run_cli(["train", "--data", str(data), "--epochs", "2", "--out", "ck.json"],
                   tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "VA" in proc.stderr
    assert not (tmp_path / "ck.json").exists()


VERB_ARGS = {
    "synth": ["--n", "5", "--out", "s.csv"],
    "train": ["--data", "d.csv", "--out", "ck.json"],
    "eval": ["--data", "d.csv", "--oracle"],
    "kfold": ["--data", "d.csv"],
    "gradcheck": [],
    "pseudo": ["--data", "d.csv", "--out", "p.csv"],
}

BAD_INPUT_CASES = [
    ("pseudo-dim-0", ["pseudo", "--data", "zero.csv", "--out", "p.csv"], "line 1"),
    ("eval-oracle-dim-0", ["eval", "--data", "zero.csv", "--oracle"], "line 1"),
    ("kfold-k-over-n", ["kfold", "--data", "d.csv", "--k", "9"], "k=9"),
    ("noise-std-flag", ["synth", "--noise-std", "-1"] + VERB_ARGS["synth"], "noise-std"),
    ("noise-std-config", ["synth", "--config", "noise.cfg"] + VERB_ARGS["synth"], "noise_std"),
    ("noise-std-nan-config", ["synth", "--config", "nan.cfg"] + VERB_ARGS["synth"], "noise_std"),
    ("latent-dim-1", ["synth", "--latent-dim", "1"] + VERB_ARGS["synth"], "latent_dim"),
    ("lr-nan-flag", ["train", "--lr", "nan"] + VERB_ARGS["train"], "lr"),
    ("lr-negative-flag", ["train", "--lr", "-1"] + VERB_ARGS["train"], "lr"),
    ("lr-zero-config", ["train", "--config", "lr.cfg"] + VERB_ARGS["train"], "lr"),
    ("variant-config", ["train", "--config", "variant.cfg"] + VERB_ARGS["train"], "variant"),
    ("optimizer-config", ["kfold", "--config", "optimizer.cfg"] + VERB_ARGS["kfold"],
     "optimizer"),
    ("adapter-config", ["gradcheck", "--config", "adapter.cfg"], "adapter"),
    ("eps-zero-flag", ["gradcheck", "--eps", "0"], "eps"),
    ("eps-zero-config", ["gradcheck", "--config", "eps.cfg"], "eps"),
] + [(f"seed-flag-{verb}", [verb, "--seed", "-1"] + args, "seed")
     for verb, args in VERB_ARGS.items()] + [
    (f"seed-config-{verb}", [verb, "--config", "seed.cfg"] + args, "seed")
    for verb, args in VERB_ARGS.items()]


@pytest.mark.parametrize("argv, named", [case[1:] for case in BAD_INPUT_CASES],
                         ids=[case[0] for case in BAD_INPUT_CASES])
def test_bad_input_exit_2(tmp_path, argv, named):
    """Malformed datasets and out-of-range values exit 2 naming the cause,
    without a traceback."""
    rows = [f"r{i},{i}.0,1.0,2.0,-,{i},-,-" for i in range(5)]
    write_dataset(tmp_path / "d.csv", 3, rows)
    write_dataset(tmp_path / "zero.csv", 0, ["r0,-,3,-,-"])
    (tmp_path / "noise.cfg").write_text("noise_std = -1\n")
    (tmp_path / "nan.cfg").write_text("noise_std = nan\n")
    (tmp_path / "seed.cfg").write_text("seed = -1\n")
    (tmp_path / "variant.cfg").write_text("variant = foo\n")
    (tmp_path / "optimizer.cfg").write_text("optimizer = foo\n")
    (tmp_path / "adapter.cfg").write_text("adapter = maybe\n")
    (tmp_path / "eps.cfg").write_text("eps = 0\n")
    (tmp_path / "lr.cfg").write_text("lr = 0\n")
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("given", ["flags", "config"])
def test_lr_times_weight_decay_of_one_or_more_exit_2(tmp_path, given):
    """The pair is refused before training, naming both values, whether
    given as flags or as config keys."""
    data = make_dataset(tmp_path)
    pair = (["--lr", "1", "--weight-decay", "2"] if given == "flags"
            else ["--config", str(tmp_path / "lw.cfg")])
    (tmp_path / "lw.cfg").write_text("lr = 1\nweight_decay = 2\n")
    proc = run_cli(["train", "--data", str(data), "--epochs", "1", "--out", "ck.json"] + pair,
                   tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "lr * weight_decay must be < 1, got lr=1.0 and weight_decay=2.0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "ck.json").exists()


# -- eval -----------------------------------------------------------------


def test_eval_oracle_scores_all_one(tmp_path):
    make_dataset(tmp_path)
    proc = run_cli(["eval", "--data", "d.csv.truth", "--oracle", "--out", "rep.json"],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["au"]["score"] == 1.0
    assert doc["ce"]["score"] == 1.0
    assert doc["va"]["score"] == 1.0


def test_eval_va_only_dataset_reports_va_block_only(tmp_path):
    data = make_dataset(tmp_path, extra=["--missing-au", "1.0", "--missing-ce", "1.0"])
    proc = run_cli(["eval", "--data", str(data), "--oracle", "--out", "rep.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert set(doc) == {"va"}


def test_eval_report_matches_library_computation(tmp_path):
    data = make_dataset(tmp_path)
    proc = run_cli(["train", "--data", str(data), "--epochs", "2", "--batch-size", "16",
                    "--out", "ck.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["eval", "--data", "d.csv.truth", "--checkpoint", "ck.json",
                    "--out", "rep.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "rep.json").read_text())
    model = load_checkpoint(str(tmp_path / "ck.json"))
    records = load_dataset(str(tmp_path / "d.csv.truth"))
    assert doc == evaluate_model(model, records).to_dict()


def test_defaults_are_the_dataclass_defaults(tmp_path):
    """train and eval without option flags use NetConfig(), TrainSettings()
    and ScoreWeights() as the library does."""
    data = make_dataset(tmp_path)
    proc = run_cli(["train", "--data", str(data), "--out", "ck.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    records = load_dataset(str(data))
    model = Model(NetConfig(embed_dim=len(records[0].embedding)))
    fit(model, records, TrainSettings())
    save_checkpoint(model, str(tmp_path / "lib.json"))
    assert (tmp_path / "ck.json").read_bytes() == (tmp_path / "lib.json").read_bytes()

    proc = run_cli(["eval", "--data", "d.csv.truth", "--checkpoint", "ck.json",
                    "--out", "rep.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    truth = load_dataset(str(tmp_path / "d.csv.truth"))
    expected = evaluate_model(model, truth, weights=ScoreWeights())
    assert (tmp_path / "rep.json").read_text() == expected.to_json()


def test_eval_checkpoint_dim_mismatch_exit_4(tmp_path):
    data = make_dataset(tmp_path)
    proc = run_cli(["train", "--data", str(data), "--epochs", "1", "--out", "ck.json"],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    other = make_dataset(tmp_path, extra=["--embed-dim", "16"], name="d16.csv")
    # the synth helper fixes --embed-dim 32 first; the later flag wins
    proc = run_cli(["eval", "--data", str(other), "--checkpoint", "ck.json"], tmp_path)
    assert proc.returncode == 4
    assert "checkpoint" in proc.stderr


def _drop_au_thresholds(doc):
    del doc["au_thresholds"]


def _bad_base64_weight(doc):
    doc["params"]["head_au.fc1"]["w"] = "not*base64!"


def _bogus_variant(doc):
    doc["config"]["variant"] = "bogus"


def _string_embed_dim(doc):
    doc["config"]["embed_dim"] = "32"


def _nan_weight(doc):
    w = np.frombuffer(base64.b64decode(doc["params"]["head_ce.fc2"]["w"]), dtype="<f8").copy()
    w[3] = np.nan
    doc["params"]["head_ce.fc2"]["w"] = base64.b64encode(w.tobytes()).decode("ascii")


@pytest.mark.parametrize("corrupt, named", [
    (_drop_au_thresholds, "au_thresholds"),
    (_bad_base64_weight, "head_au.fc1.weight"),
    (_bogus_variant, "bogus"),
    (_string_embed_dim, "embed_dim"),
    (_nan_weight, "head_ce.fc2.weight"),
], ids=["missing-au-thresholds", "bad-base64", "unknown-variant", "string-dim", "nan-weight"])
def test_eval_malformed_checkpoint_exit_4(tmp_path, corrupt, named):
    data = make_dataset(tmp_path)
    save_checkpoint(Model(NetConfig(embed_dim=32, extractor_hidden=8, head_hidden=8)),
                    str(tmp_path / "ck.json"))
    doc = json.loads((tmp_path / "ck.json").read_text())
    corrupt(doc)
    (tmp_path / "ck.json").write_text(json.dumps(doc))
    proc = run_cli(["eval", "--data", str(data), "--checkpoint", "ck.json"], tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr


# -- kfold ----------------------------------------------------------------


def test_kfold_reports_folds_and_mean(tmp_path):
    data = make_dataset(tmp_path)
    proc = run_cli(["kfold", "--data", "d.csv.truth", "--k", "3", "--epochs", "1",
                    "--batch-size", "16", "--out", "folds.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "folds.json").read_text())
    assert doc["k"] == 3
    assert len(doc["folds"]) == 3
    for track in ("au", "ce", "va"):
        fold_scores = [f[track]["score"] for f in doc["folds"]]
        assert doc["aggregate"][f"{track}_score"] == pytest.approx(
            sum(fold_scores) / 3, abs=1e-12)
    assert proc.stdout.count("fold-") == 3
    assert "mean:" in proc.stdout


# -- gradcheck ------------------------------------------------------------


@pytest.mark.parametrize("variant", ["streaming", "parallel"])
def test_gradcheck_passes(tmp_path, variant):
    proc = run_cli(["gradcheck", "--variant", variant], tmp_path)
    assert proc.returncode == 0, proc.stdout
    assert "pass" in proc.stdout


def test_gradcheck_corrupted_gradient_fails_with_parameter(tmp_path):
    proc = run_cli(["gradcheck", "--corrupt-grad"], tmp_path)
    assert proc.returncode != 0
    assert "extractor_au.fc1.weight" in proc.stdout


# -- pseudo ---------------------------------------------------------------


def test_pseudo_fills_and_matches_truth(tmp_path):
    data = make_dataset(tmp_path, extra=["--missing-ce", "1.0"])
    proc = run_cli(["pseudo", "--data", str(data), "--out", "filled.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    filled_count = int(proc.stdout.split()[1])
    assert filled_count > 0
    truth = {r.id: r.labels.ce for r in load_dataset(str(tmp_path / "d.csv.truth"))}
    filled = load_dataset(str(tmp_path / "filled.csv"))
    n_ce = 0
    for rec in filled:
        if rec.labels.ce is not None:
            assert rec.labels.ce == truth[rec.id]
            n_ce += 1
    assert n_ce == filled_count


def test_pseudo_second_pass_fills_nothing(tmp_path):
    data = make_dataset(tmp_path, extra=["--missing-ce", "1.0"])
    run_cli(["pseudo", "--data", str(data), "--out", "f1.csv"], tmp_path)
    proc = run_cli(["pseudo", "--data", "f1.csv", "--out", "f2.csv"], tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.startswith("filled 0 ")
    assert (tmp_path / "f1.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()


def test_pseudo_without_au_labels_copies_dataset(tmp_path):
    data = make_dataset(tmp_path, extra=["--missing-au", "1.0", "--missing-ce", "1.0"])
    proc = run_cli(["pseudo", "--data", str(data), "--out", "out.csv"], tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.startswith("filled 0 ")
    assert (tmp_path / "out.csv").read_bytes() == data.read_bytes()


def test_pseudo_keeps_the_header_width_of_an_empty_dataset(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("#affect-v1 dim=3\n")
    proc = run_cli(["pseudo", "--data", str(data), "--out", "out.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_bytes() == data.read_bytes()


def test_synth_bad_truth_path_leaves_no_dataset(tmp_path):
    proc = run_cli(["synth"] + SYNTH_SMALL + ["--out", "d.csv", "--truth-out",
                                              "/no-such-dir/t.csv"], tmp_path)
    assert proc.returncode == 2
    assert "error" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "d.csv").exists()


def test_pseudo_malformed_rule_file_exit_5(tmp_path):
    data = make_dataset(tmp_path)
    rules = tmp_path / "rules.txt"
    rules.write_text("# comment\nhappiness: au6 au12 => nonsense\n")
    proc = run_cli(["pseudo", "--data", str(data), "--rules", str(rules),
                    "--out", "out.csv"], tmp_path)
    assert proc.returncode == 5
    assert "2" in proc.stderr  # offending line number


# -- config file ----------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    data = make_dataset(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# training defaults\nepochs = 4\nbatch_size = 16\nweight_decay = 0.01\n")
    proc = run_cli(["train", "--data", str(data), "--config", str(cfg),
                    "--out", "ck.json", "--log", "a.log"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "a.log").read_text().splitlines()) == 4

    proc = run_cli(["train", "--data", str(data), "--config", str(cfg),
                    "--epochs", "2", "--out", "ck.json", "--log", "b.log"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "b.log").read_text().splitlines()) == 2


def test_config_file_bad_value_exit_2(tmp_path):
    data = make_dataset(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = banana\n")
    proc = run_cli(["train", "--data", str(data), "--config", str(cfg),
                    "--out", "ck.json"], tmp_path)
    assert proc.returncode == 2
    assert "epochs" in proc.stderr


# -- undecodable files ----------------------------------------------------


UNDECODABLE_CASES = [
    ("pseudo-data", ["pseudo", "--data", "bad.csv", "--out", "p.csv"], 2, "line 2"),
    ("train-data", ["train", "--data", "bad.csv", "--out", "ck.json"], 2, "line 2"),
    ("eval-data", ["eval", "--data", "bad.csv", "--oracle"], 2, "line 2"),
    ("kfold-data", ["kfold", "--data", "bad.csv"], 2, "line 2"),
    ("pseudo-rules", ["pseudo", "--data", "d.csv", "--rules", "bad.rules", "--out", "p.csv"],
     5, "line 2"),
    ("synth-config", ["synth", "--config", "bad.cfg", "--n", "5", "--out", "s.csv"], 2,
     "bad.cfg:2"),
    ("eval-checkpoint", ["eval", "--data", "d.csv", "--checkpoint", "bad.json"], 4,
     "checkpoint"),
]


@pytest.mark.parametrize("argv, code, named", [case[1:] for case in UNDECODABLE_CASES],
                         ids=[case[0] for case in UNDECODABLE_CASES])
def test_undecodable_file_exits_with_its_code(tmp_path, argv, code, named):
    """A byte that is not UTF-8 gets the code of the file it is in, naming
    the line where there is one, without a traceback."""
    rows = [f"r{i},{i}.0,1.0,2.0,-,{i},-,-" for i in range(5)]
    write_dataset(tmp_path / "d.csv", 3, rows)
    (tmp_path / "bad.csv").write_bytes(b"#affect-v1 dim=3\nr0,1.0,\xff,2.0,-,1,-,-\n")
    (tmp_path / "bad.rules").write_bytes(b"# rules\nREQ au6 FORBID au4 => 4 \xff\n")
    (tmp_path / "bad.cfg").write_bytes(b"seed = 1\nlatent_dim = \xff\n")
    (tmp_path / "bad.json").write_bytes(b'{"format": "\xff"}\n')
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == code, proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
