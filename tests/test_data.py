import numpy as np
import pytest

from affectstream.data import (AffectRecord, DatasetFormatError, LabelSet,
                               batch_iter, kfold_split, load_dataset,
                               save_dataset, with_ce)
from affectstream.engine import make_rng

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


def make_records(n, dim=8, seed=0):
    rng = make_rng(seed)
    out = []
    for i in range(n):
        labels = LabelSet(
            au=rng.integers(0, 2, 12) if i % 2 == 0 else None,
            ce=int(rng.integers(0, 7)) if i % 3 == 0 else None,
            va=rng.uniform(-1, 1, 2) if i % 4 != 0 else None)
        out.append(AffectRecord(id=f"r{i}", embedding=rng.normal(0, 1, dim),
                                labels=labels))
    return out


# -- file round trips ----------------------------------------------------


def test_save_load_round_trip_exact(tmp_path):
    records = make_records(17, dim=8)
    path = tmp_path / "d.txt"
    save_dataset(records, path)
    loaded = load_dataset(path)
    assert len(loaded) == 17
    for a, b in zip(records, loaded):
        assert a.id == b.id
        assert np.array_equal(a.embedding, b.embedding)
        if a.labels.au is None:
            assert b.labels.au is None
        else:
            assert np.array_equal(a.labels.au, b.labels.au)
        assert a.labels.ce == b.labels.ce
        if a.labels.va is None:
            assert b.labels.va is None
        else:
            assert np.array_equal(a.labels.va, b.labels.va)


def test_resave_is_byte_identical(tmp_path):
    records = make_records(9, dim=5, seed=1)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_dataset(records, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_unlabeled_record_uses_sentinels(tmp_path):
    rec = AffectRecord(id="x", embedding=np.array([1.0, 2.0]), labels=LabelSet())
    path = tmp_path / "d.txt"
    save_dataset([rec], path, dim=2)
    lines = path.read_text().splitlines()
    assert lines[0] == "#affect-v1 dim=2"
    assert lines[1] == "x,1.0,2.0,-,-,-,-"
    loaded = load_dataset(path)
    assert not loaded[0].labels.any_present()


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "d.txt"
    save_dataset([], path, dim=4)
    assert load_dataset(path) == []


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("#affect-v1 dim=2\n\nr0,0.5,0.25,-,3,-,-\n\n")
    loaded = load_dataset(path)
    assert len(loaded) == 1 and loaded[0].labels.ce == 3


# -- malformed files -----------------------------------------------------


def write_lines(tmp_path, *lines):
    path = tmp_path / "d.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_missing_header(tmp_path):
    path = write_lines(tmp_path, "r0,1.0,2.0,-,-,-,-")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line_no == 1


def test_field_count_error_carries_line_number(tmp_path):
    path = write_lines(tmp_path, "#affect-v1 dim=2",
                       "r0,1.0,2.0,-,-,-,-",
                       "r1,1.0,-,-,-,-")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line_no == 3


@pytest.mark.parametrize("bad_row, what", [
    ("r0,1.0,2.0,01,-,-,-", "AU field too short"),
    ("r0,1.0,2.0,0101010101012,-,-,-", "AU field too long is a field-count error"),
    ("r0,1.0,2.0,01010101010x,-,-,-", "non-binary AU char"),
    ("r0,1.0,2.0,-,9,-,-", "CE out of range"),
    ("r0,1.0,2.0,-,x,-,-", "non-numeric CE"),
    ("r0,1.0,2.0,-,-,0.5,-", "half-present VA"),
    ("r0,1.0,2.0,-,-,0.5,1.5", "arousal out of range"),
    ("r0,1.0,2.0,-,-,abc,0.0", "non-numeric VA"),
    ("r0,1.0,nan,-,-,-,-", "non-finite embedding"),
    ("r0,1.0,zz,-,-,-,-", "non-numeric embedding"),
])
def test_malformed_rows_rejected(tmp_path, bad_row, what):
    path = write_lines(tmp_path, "#affect-v1 dim=2", bad_row)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line_no == 2, what


# -- validation ----------------------------------------------------------


def test_labelset_validation():
    LabelSet(au=np.ones(12, dtype=int), ce=6, va=np.array([1.0, -1.0])).validate()
    with pytest.raises(ValueError):
        LabelSet(au=np.ones(11, dtype=int)).validate()
    with pytest.raises(ValueError):
        LabelSet(au=np.full(12, 2)).validate()
    with pytest.raises(ValueError):
        LabelSet(ce=7).validate()
    with pytest.raises(ValueError):
        LabelSet(va=np.array([0.0, 1.01])).validate()
    with pytest.raises(ValueError):
        LabelSet(va=np.array([0.0])).validate()


def test_record_validation():
    ok = AffectRecord(id="a", embedding=np.zeros(4), labels=LabelSet())
    ok.validate(4)
    with pytest.raises(ValueError):
        AffectRecord(id="", embedding=np.zeros(4), labels=LabelSet()).validate(4)
    with pytest.raises(ValueError):
        AffectRecord(id="a,b", embedding=np.zeros(4), labels=LabelSet()).validate(4)
    with pytest.raises(ValueError):
        AffectRecord(id="a", embedding=np.zeros(3), labels=LabelSet()).validate(4)
    with pytest.raises(ValueError):
        AffectRecord(id="a", embedding=np.array([0.0, np.inf]), labels=LabelSet()).validate(2)


def test_with_ce_returns_new_record():
    rec = make_records(1)[0]
    rec2 = with_ce(rec, 5)
    assert rec2.labels.ce == 5
    assert rec.labels.ce != 5 or rec is not rec2
    assert rec2.id == rec.id
    assert np.array_equal(rec2.embedding, rec.embedding)


# -- k-fold splitting ----------------------------------------------------


def test_kfold_partition_properties():
    records = make_records(23, dim=4, seed=2)
    all_ids = {r.id for r in records}
    for k in (2, 4, 5):
        splits = kfold_split(records, k, seed=7)
        assert len(splits) == k
        seen = []
        for train, val in splits:
            train_ids = {r.id for r in train}
            val_ids = {r.id for r in val}
            assert train_ids | val_ids == all_ids
            assert not train_ids & val_ids
            seen.extend(val_ids)
        assert sorted(seen) == sorted(all_ids)  # disjoint and exhaustive
        sizes = [len(val) for _, val in splits]
        assert max(sizes) - min(sizes) <= 1


def test_kfold_seeded_and_seed_sensitive():
    records = make_records(20, dim=4, seed=3)
    a = kfold_split(records, 4, seed=1)
    b = kfold_split(records, 4, seed=1)
    c = kfold_split(records, 4, seed=2)
    ids = lambda splits: [[r.id for r in val] for _, val in splits]
    assert ids(a) == ids(b)
    assert ids(a) != ids(c)


def test_kfold_rejects_bad_k():
    records = make_records(5, dim=4)
    with pytest.raises(ValueError):
        kfold_split(records, 1, seed=0)
    with pytest.raises(ValueError):
        kfold_split(records, 6, seed=0)


# -- batching ------------------------------------------------------------


def test_batch_iter_partitions_epoch():
    records = make_records(13, dim=4, seed=4)
    batches = list(batch_iter(records, 4, seed=5, epoch=0))
    assert [len(b) for b in batches] == [4, 4, 4, 1]
    seen = [r.id for batch in batches for r in batch]
    assert sorted(seen) == sorted(r.id for r in records)


def test_batch_iter_epoch_changes_order():
    records = make_records(32, dim=4, seed=5)
    ids = lambda e: [r.id for b in batch_iter(records, 8, seed=9, epoch=e) for r in b]
    assert ids(0) == ids(0)
    assert ids(0) != ids(1)


def test_batch_iter_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        list(batch_iter(make_records(3, dim=4), 0, seed=0, epoch=0))
