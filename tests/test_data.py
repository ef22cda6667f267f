from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affectstream.data import (N_AU, N_CE, AffectRecord, DatasetFormatError, LabelColumns,
                               LabelSet, batch_iter, kfold_split, load_dataset,
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
    lab = loaded[0].labels
    assert not (lab.au is not None or lab.ce is not None or lab.va is not None)


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


@pytest.mark.parametrize("raw, line_no", [
    (b"#affect-v1 dim=2\nr0,1.0,\xff,-,-,-,-\n", 2),
    (b"#affect-v1 dim=\xc3\n", 1),
    # NEL, \n and U+2028 each end a line; the encoded surrogate is not UTF-8
    (b"#affect-v1 dim=2\nr0,1.0,2.0,-,-,-,-\r\n\xc2\x85\n\xe2\x80\xa8"
     b"r1\xed\xa0\x80,1,2,-,-,-,-\n", 6),
])
def test_undecodable_line_is_named(tmp_path, raw, line_no):
    """Bytes that are not UTF-8 are a format error on the line holding
    them, counted as str.splitlines() counts lines."""
    path = tmp_path / "d.txt"
    path.write_bytes(raw)
    with pytest.raises(DatasetFormatError, match="not valid UTF-8") as err:
        load_dataset(path)
    assert err.value.line_no == line_no


# -- validation ----------------------------------------------------------


@pytest.mark.parametrize("rec_id", ["a\nb", "a\r", "a\x1cb", "a\u2028b", " c ", "c\t",
                                    "\xa0c", "c\x1f"])
def test_save_rejects_ids_the_loader_cannot_give_back(tmp_path, rec_id):
    rec = AffectRecord(id=rec_id, embedding=np.zeros(2), labels=LabelSet())
    with pytest.raises(ValueError, match="line break"):
        save_dataset([rec], tmp_path / "d.txt")
    assert not (tmp_path / "d.txt").exists()


def test_loader_still_strips_ids(tmp_path):
    path = write_lines(tmp_path, "#affect-v1 dim=1", " \tr0 ,1.0,-,-,-,-")
    assert load_dataset(path)[0].id == "r0"


def test_labelset_validation():
    LabelColumns.from_labels([LabelSet(au=np.ones(12, dtype=int), ce=6, va=np.array([1.0, -1.0]))])
    with pytest.raises(ValueError):
        LabelColumns.from_labels([LabelSet(au=np.ones(11, dtype=int))])
    with pytest.raises(ValueError):
        LabelColumns.from_labels([LabelSet(au=np.full(12, 2))])
    with pytest.raises(ValueError):
        LabelColumns.from_labels([LabelSet(ce=7)])
    with pytest.raises(ValueError):
        LabelColumns.from_labels([LabelSet(va=np.array([0.0, 1.01]))])
    with pytest.raises(ValueError):
        LabelColumns.from_labels([LabelSet(va=np.array([0.0]))])


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


def columns(records):
    return LabelColumns.from_labels(r.labels for r in records)


def batch_ids(records, batch):
    """The ids of the records whose embeddings are the batch's rows."""
    by_row = {r.embedding.tobytes(): r.id for r in records}
    return [by_row[row.tobytes()] for row in batch.emb]


def test_batch_iter_partitions_epoch():
    records = make_records(13, dim=4, seed=4)
    batches = list(batch_iter(records, columns(records), 4, seed=5, epoch=0))
    assert [len(b) for b in batches] == [4, 4, 4, 1]
    seen = [rec_id for batch in batches for rec_id in batch_ids(records, batch)]
    assert sorted(seen) == sorted(r.id for r in records)


def test_batch_iter_epoch_changes_order():
    records = make_records(32, dim=4, seed=5)
    ids = lambda e: [rec_id for b in batch_iter(records, columns(records), 8, seed=9, epoch=e)
                     for rec_id in batch_ids(records, b)]
    assert ids(0) == ids(0)
    assert ids(0) != ids(1)


def test_batch_iter_rejects_bad_batch_size():
    records = make_records(3, dim=4)
    with pytest.raises(ValueError):
        list(batch_iter(records, columns(records), 0, seed=0, epoch=0))


def test_batch_iter_keeps_rows_and_labels_together():
    records = make_records(11, dim=4, seed=6)
    by_id = {r.id: r for r in records}
    for batch in batch_iter(records, columns(records), 3, seed=2, epoch=1):
        assert batch.emb.shape == (len(batch), 4)
        expected = columns([by_id[rec_id] for rec_id in batch_ids(records, batch)])
        for name in ("au", "au_mask", "ce", "va", "va_mask"):
            assert np.array_equal(getattr(batch.labels, name), getattr(expected, name)), name


def test_batch_iter_rejects_columns_of_other_records():
    records = make_records(4, dim=4)
    with pytest.raises(ValueError):
        list(batch_iter(records, columns(records[:3]), 2, seed=0, epoch=0))


# -- label columns -------------------------------------------------------


@st.composite
def label_sets(draw):
    n = draw(st.integers(0, 12))
    out = []
    for _ in range(n):
        au = draw(st.none() | hnp.arrays(draw(st.sampled_from([int, bool, float])), 12,
                                         elements=st.integers(0, 1)))
        ce = draw(st.none() | st.integers(0, 6))
        va = draw(st.none() | hnp.arrays(float, 2, elements=st.floats(-1.0, 1.0)))
        out.append(LabelSet(au=au, ce=ce, va=va))
    return out


@settings(max_examples=200, deadline=None)
@given(label_sets())
def test_label_columns_hold_each_label_and_its_presence(labels):
    cols = LabelColumns.from_labels(labels)
    assert len(cols) == len(labels)
    assert cols.au.shape == (len(labels), 12) and cols.va.shape == (len(labels), 2)
    assert cols.au_mask.tolist() == [lab.au is not None for lab in labels]
    assert cols.ce_mask.tolist() == [lab.ce is not None for lab in labels]
    assert cols.va_mask.tolist() == [lab.va is not None for lab in labels]
    assert cols.any_present() == any(
        lab.au is not None or lab.ce is not None or lab.va is not None for lab in labels)
    for i, lab in enumerate(labels):
        if lab.au is not None:
            assert np.array_equal(cols.au[i], lab.au)
        assert cols.ce[i] == (-1 if lab.ce is None else lab.ce)
        if lab.va is not None:
            assert np.array_equal(cols.va[i], lab.va)
    idx = np.arange(len(labels))[::-1]
    rows = cols[idx]
    assert rows.ce.tolist() == cols.ce[idx].tolist()
    assert np.array_equal(rows.au_mask, cols.au_mask[idx])
    assert np.array_equal(rows.va, cols.va[idx])


@pytest.mark.parametrize("bad", [LabelSet(ce=-1), LabelSet(ce=7), LabelSet(au=np.full(12, 2)),
                                 LabelSet(au=np.ones(11, dtype=int)),
                                 LabelSet(au=np.full(12, 0.5)), LabelSet(va=np.zeros(3))],
                         ids=["ce-minus-1", "ce-7", "au-bit-2", "au-11-bits", "au-half",
                              "va-3-values"])
def test_label_columns_reject_a_bad_label_instead_of_reading_it_as_missing(bad):
    with pytest.raises(ValueError):
        LabelColumns.from_labels([LabelSet(ce=1), bad])


def labelset_validate(self):
    """LabelSet.validate as it stood before LabelColumns.from_labels became
    the one check of label values; the oracle for that check."""
    if self.au is not None:
        au = np.asarray(self.au)
        if au.shape != (N_AU,) or not ((au == 0) | (au == 1)).all():
            raise ValueError(f"au labels must be {N_AU} bits, got {self.au!r}")
    if self.ce is not None and not 0 <= int(self.ce) < N_CE:
        raise ValueError(f"ce class out of range 0..{N_CE - 1}: {self.ce!r}")
    if self.va is not None:
        va = np.asarray(self.va, dtype=float)
        if va.shape != (2,) or not np.isfinite(va).all() or np.abs(va).max() > 1.0:
            raise ValueError(f"va must be two finite values in [-1, 1], got {self.va!r}")


BAD_VA = [np.nan, np.inf, -np.inf, 1.01, -5.0]


@st.composite
def maybe_bad_label_sets(draw):
    """Label sets that are valid or hold one of the bad values the oracle
    rejects: NaN, +-inf and |VA| > 1, an AU bit of 2, 11 AU bits, CE -1 or 7."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        au = draw(st.none() | hnp.arrays(int, 12, elements=st.integers(0, 1))
                  | hnp.arrays(int, 12, elements=st.integers(0, 2))
                  | hnp.arrays(int, 11, elements=st.integers(0, 1)))
        ce = draw(st.none() | st.integers(-1, 7))
        va = draw(st.none() | hnp.arrays(float, 2, elements=st.floats(-1.0, 1.0)
                                         | st.sampled_from(BAD_VA)))
        out.append(LabelSet(au=au, ce=ce, va=va))
    return out


@settings(max_examples=300, deadline=None)
@given(maybe_bad_label_sets())
@example([LabelSet(va=np.array([np.nan, 0.2]))])
@example([LabelSet(va=np.array([0.0, np.inf]))])
@example([LabelSet(va=np.array([-np.inf, 0.0]))])
@example([LabelSet(va=np.array([0.0, 1.01]))])
@example([LabelSet(au=np.full(12, 2))])
@example([LabelSet(au=np.ones(11, dtype=int))])
@example([LabelSet(ce=-1)])
@example([LabelSet(ce=7)])
@example([LabelSet(ce=6, va=np.array([1.0, -1.0]))])
@example([LabelSet(va=np.array([0.1, 0.2])), LabelSet(va=np.zeros(3))])
@example([LabelSet(au=np.ones(12, dtype=int)), LabelSet(au=np.ones(11, dtype=int))])
def test_from_labels_rejects_exactly_what_labelset_validate_did(labels):
    rejected = []
    for lab in labels:
        try:
            labelset_validate(lab)
        except ValueError as exc:
            rejected.append(str(exc))
    if not rejected:
        LabelColumns.from_labels(labels)
        return
    with pytest.raises(ValueError) as err:
        LabelColumns.from_labels(labels)
    if all(msg.startswith("va") for msg in rejected):
        # only VA labels are bad: the same message, naming the first of them
        assert str(err.value) == rejected[0]
    try:
        for lab in labels:
            labelset_validate(replace(lab, au=None))
    except ValueError:
        return
    # only AU labels are bad: the same message, naming the first of them
    assert str(err.value) == rejected[0]
