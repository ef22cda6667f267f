"""Affect records, dataset file I/O, k-fold splitting, and batching.

A record carries a fixed-width expression embedding plus partially present
AU / CE / VA labels; absent labels are the mechanism by which mixed-source
datasets train a single multi-task model.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, suppress
from dataclasses import dataclass, replace
from itertools import zip_longest

import numpy as np

from ._floattext import format_rows
from .engine import make_rng

# Label-space conventions. The AU set and emotion-class order are metadata,
# not hard-wired semantics: everything downstream indexes by position.
AU_NAMES = ["AU1", "AU2", "AU4", "AU6", "AU7", "AU10",
            "AU12", "AU15", "AU23", "AU24", "AU25", "AU26"]
CE_NAMES = ["Neutral", "Anger", "Disgust", "Fear",
            "Happiness", "Sadness", "Surprise"]
N_AU = len(AU_NAMES)
N_CE = len(CE_NAMES)

DEFAULT_EMBED_DIM = 512

_HEADER_PREFIX = "#affect-v1 dim="
_MISSING = "-"
# load_dataset parses embeddings into float64 blocks of about this size;
# with 1 MiB blocks, batch-256 training steps after a load had a 1.3x
# slower tail (p90) on 2 vCPUs, with 8 MiB they did not
_BLOCK_BYTES = 8 << 20


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class LabelSet:
    """Optionally present labels for one sample.

    au: int array of 12 bits, or None
    ce: class index 0..6, or None
    va: float array (valence, arousal) in [-1, 1], or None
    """

    au: np.ndarray | None = None
    ce: int | None = None
    va: np.ndarray | None = None


@dataclass(frozen=True)
class LabelColumns:
    """The labels of N samples as columns, each track with its presence.

    au: (N, 12) int8 bits, read where au_mask (N,) is True
    ce: (N,) int64 class indices, -1 where missing
    va: (N, 2) float64 (valence, arousal), read where va_mask (N,) is True

    Indexing with an index array or a slice takes those rows.
    """

    au: np.ndarray
    au_mask: np.ndarray
    ce: np.ndarray
    va: np.ndarray
    va_mask: np.ndarray

    @classmethod
    def from_labels(cls, labels):
        """Columns of a sequence of LabelSets; missing rows hold zeros.

        This is the one check of label values. An AU label that is not 12
        bits of 0/1, a CE label outside 0..6 (-1 included) or a VA label
        that is not two finite values in [-1, 1] raises ValueError.
        """
        labels = list(labels)
        bad = [lab.ce for lab in labels if lab.ce is not None and not 0 <= int(lab.ce) < N_CE]
        if bad:
            raise ValueError(f"ce class out of range 0..{N_CE - 1}: {bad[0]!r}")
        ce = np.array([-1 if lab.ce is None else int(lab.ce) for lab in labels], dtype=np.int64)
        au_mask = np.array([lab.au is not None for lab in labels], dtype=bool)
        va_mask = np.array([lab.va is not None for lab in labels], dtype=bool)
        au = np.zeros((len(labels), N_AU), dtype=np.int8)
        au[au_mask] = _label_rows([lab.au for lab in labels if lab.au is not None], N_AU, None,
                                  lambda rows: (rows == 0) | (rows == 1),
                                  f"au labels must be {N_AU} bits")
        va = np.zeros((len(labels), 2))
        va[va_mask] = _label_rows([lab.va for lab in labels if lab.va is not None], 2, float,
                                  # false for NaN and +-inf as well
                                  lambda rows: np.abs(rows) <= 1.0,
                                  "va must be two finite values in [-1, 1]")
        return cls(au=au, au_mask=au_mask, ce=ce, va=va, va_mask=va_mask)

    @property
    def ce_mask(self):
        return self.ce != -1

    def __len__(self):
        return len(self.ce)

    def __getitem__(self, idx):
        return LabelColumns(au=self.au[idx], au_mask=self.au_mask[idx], ce=self.ce[idx],
                            va=self.va[idx], va_mask=self.va_mask[idx])

    def any_present(self):
        return bool(self.au_mask.any() or self.ce_mask.any() or self.va_mask.any())


def _label_rows(given, width, dtype, valid, message):
    """The labels in `given` stacked as (len(given), width) rows of dtype.

    Every entry must pass valid(rows); otherwise ValueError(message) names
    the first label that is not `width` valid values. The labels are stacked
    and checked at once, and scanned one at a time only when that fails.
    """
    def stack(labs):
        try:
            rows = np.array(labs, dtype=dtype)
        except ValueError:  # ragged: some label is not `width` values
            return None
        return rows if rows.shape == (len(labs), width) and valid(rows).all() else None

    if not given:
        return np.empty((0, width))
    rows = stack(given)
    if rows is None:
        bad = next(lab for lab in given if stack([lab]) is None)
        raise ValueError(f"{message}, got {bad!r}")
    return rows


@dataclass(frozen=True)
class Batch:
    """A training batch: stacked embedding rows (B, D) and their labels."""

    emb: np.ndarray
    labels: LabelColumns

    def __len__(self):
        return len(self.labels)


def _check_id(rec_id):
    if not rec_id or "," in rec_id:
        raise ValueError(f"record id must be non-empty and comma-free: {rec_id!r}")
    # the loader splits lines as str.splitlines() and strips fields, so it
    # could not give such an id back
    if rec_id.splitlines() != [rec_id] or rec_id.strip() != rec_id:
        raise ValueError(f"record id must hold no line break and no surrounding "
                         f"whitespace: {rec_id!r}")


@dataclass
class AffectRecord:
    """One sample: id, embedding vector, and its (partial) labels.

    Records are treated as immutable once constructed; transformations such
    as pseudo-labeling return new records.
    """

    id: str
    embedding: np.ndarray
    labels: LabelSet

    def validate(self, dim):
        _check_id_and_embedding(self, dim)
        LabelColumns.from_labels([self.labels])


def _check_id_and_embedding(rec, dim):
    _check_id(rec.id)
    emb = np.asarray(rec.embedding, dtype=float)
    if emb.shape != (dim,):
        raise ValueError(f"record {rec.id}: embedding width {emb.shape} != {dim}")
    if not np.isfinite(emb).all():
        raise ValueError(f"record {rec.id}: non-finite embedding entry")


def _format_labels(lab):
    au = "".join(str(int(b)) for b in lab.au) if lab.au is not None else _MISSING
    ce = str(int(lab.ce)) if lab.ce is not None else _MISSING
    if lab.va is not None:
        # repr() of a Python float is the shortest exact round-trip form,
        # which keeps save->load bit-identical
        va = f"{float(lab.va[0])!r},{float(lab.va[1])!r}"
    else:
        va = f"{_MISSING},{_MISSING}"
    return f"{au},{ce},{va}"


def save_datasets(outputs, dim):
    """Write several datasets of embedding width `dim` in one pass.

    `outputs` is a sequence of (path, records) pairs. Every record of every
    output is validated before any file is opened, so a bad record leaves no
    file behind, and a file that cannot be opened or written removes the
    files this call opened. Rows are written one at a time, the i-th row of
    each output in turn; when those records hold the very same embedding
    object, its text is formatted once and reused. Embeddings are formatted
    a block of rows at a time (see _floattext), each entry as its repr().
    The bytes are those of one save_dataset call per output.
    """
    outputs = [(path, list(records)) for path, records in outputs]
    for _, records in outputs:
        for rec in records:
            _check_id_and_embedding(rec, dim)
        LabelColumns.from_labels(rec.labels for rec in records)
    # a later output to the same file replaces an earlier one, as successive
    # save_dataset calls would
    outputs = list({os.path.realpath(path): (path, records)
                    for path, records in outputs}.values())
    files = []
    try:
        with ExitStack() as stack:
            for path, _ in outputs:
                files.append(stack.enter_context(
                    open(path, "w", encoding="utf-8", newline="\n")))
            _write_rows(files, [records for _, records in outputs], dim)
    except BaseException:
        for fh in files:
            with suppress(OSError):
                os.remove(fh.name)
        raise


def _write_rows(files, columns, dim):
    """Write the i-th record of each output in turn; in each row, a record
    holding the very embedding object of the previous output's record reuses
    its text, so every other embedding is formatted once, in write order."""
    writes = []
    for row in zip_longest(*columns):
        emb_obj = None
        for fh, rec in zip(files, row):
            if rec is not None:
                writes.append((fh, rec, rec.embedding is not emb_obj))
                emb_obj = rec.embedding
    texts = format_rows((rec.embedding for _, rec, new in writes if new), dim)
    for fh in files:
        fh.write(f"{_HEADER_PREFIX}{dim}\n")
    for fh, rec, new in writes:
        if new:
            emb_text = next(texts)
        fh.write(f"{rec.id},{emb_text},{_format_labels(rec.labels)}\n")


def save_dataset(records, path, dim=None):
    """Write records in the line-oriented text format (bit-exact round trip).

    Rows are written as they are formatted, so the text held at once stays
    bounded by one block of rows; see save_datasets.
    """
    records = list(records)
    if dim is None:
        dim = len(records[0].embedding) if records else DEFAULT_EMBED_DIM
    save_datasets([(path, records)], dim)


def _parse_labels(au_s, ce_s, va_s, aa_s, line_no):
    au = None
    if au_s != _MISSING:
        if len(au_s) != N_AU or set(au_s) - {"0", "1"}:
            raise DatasetFormatError(line_no, f"bad AU field {au_s!r}")
        au = np.array([int(c) for c in au_s], dtype=np.int64)
    ce = None
    if ce_s != _MISSING:
        if not ce_s.isdigit() or not 0 <= int(ce_s) < N_CE:
            raise DatasetFormatError(line_no, f"bad CE field {ce_s!r}")
        ce = int(ce_s)
    if (va_s == _MISSING) != (aa_s == _MISSING):
        raise DatasetFormatError(line_no, "valence and arousal must both be present or both absent")
    va = None
    if va_s != _MISSING:
        try:
            va = np.array([float(va_s), float(aa_s)], dtype=float)
        except ValueError:
            raise DatasetFormatError(line_no, f"bad VA fields {va_s!r}, {aa_s!r}") from None
        if not np.isfinite(va).all() or np.abs(va).max() > 1.0:
            raise DatasetFormatError(line_no, f"VA out of range [-1, 1]: {va_s}, {aa_s}")
    return LabelSet(au=au, ce=ce, va=va)


def undecodable(text):
    """Whether text read with errors="surrogateescape" held bytes that are
    not UTF-8."""
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _lines(fh):
    """The file's lines as str.splitlines() gives them, numbered from 1.

    fh is read with errors="surrogateescape"; a line holding bytes that
    are not UTF-8 is a DatasetFormatError.
    """
    line_no = 0
    for raw in fh:
        # universal newlines split at \n, \r and \r\n; splitlines() also
        # breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
        for line in raw.splitlines():
            line_no += 1
            if undecodable(line):
                raise DatasetFormatError(line_no, "not valid UTF-8 text")
            yield line_no, line


def _parse_embedding(fields, line_no):
    try:
        # float() skips the same surrounding whitespace as str.strip(),
        # except \x1f, for which the stripped fields are parsed again
        emb = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError:
        try:
            emb = np.array([float(x.strip()) for x in fields], dtype=float)
        except ValueError:
            raise DatasetFormatError(line_no, "non-numeric embedding entry") from None
    if not np.isfinite(emb).all():
        raise DatasetFormatError(line_no, "non-finite embedding entry")
    return emb


def _read_dim(lines):
    _, header = next(lines, (1, None))
    if header is None or not header.startswith(_HEADER_PREFIX):
        raise DatasetFormatError(1, f"missing header '{_HEADER_PREFIX}<dim>'")
    try:
        dim = int(header[len(_HEADER_PREFIX):])
    except ValueError:
        raise DatasetFormatError(1, f"bad header {header!r}") from None
    if dim < 1:
        raise DatasetFormatError(1, f"embedding width must be >= 1, got {header!r}")
    return dim


def load_dataset(path):
    """Parse a dataset file into records, validating every invariant.

    The file is read one line at a time. Embeddings are parsed into blocks
    of about _BLOCK_BYTES, and each record holds a view of its row, so the
    records take one allocation per block instead of one per row, and memory
    beyond them stays bounded by one line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = _lines(fh)
        dim = _read_dim(lines)
        block_rows = max(1, _BLOCK_BYTES // (8 * dim))
        records = []
        for line_no, line in lines:
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) != dim + 5:
                raise DatasetFormatError(line_no, f"expected {dim + 5} fields, got {len(fields)}")
            if len(records) % block_rows == 0:
                block = np.empty((block_rows, dim))
            emb = block[len(records) % block_rows]
            emb[:] = _parse_embedding(fields[1:dim + 1], line_no)
            au_s, ce_s, va_s, aa_s = (f.strip() for f in fields[dim + 1:])
            labels = _parse_labels(au_s, ce_s, va_s, aa_s, line_no)
            rec_id = fields[0].strip()
            try:
                _check_id(rec_id)
            except ValueError as exc:
                raise DatasetFormatError(line_no, str(exc)) from None
            records.append(AffectRecord(id=rec_id, embedding=emb, labels=labels))
    return records


def read_dataset_dim(path):
    """Embedding width declared by a dataset file's header line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _read_dim(_lines(fh))


def with_ce(record, ce):
    """Copy of a record with its CE label set."""
    labels = replace(record.labels, ce=int(ce))
    return replace(record, labels=labels)


def kfold_split(records, k, seed):
    """Seeded shuffle, then k (train, validation) partitions.

    Validation folds are disjoint, cover the dataset, and their sizes differ
    by at most one.
    """
    records = list(records)
    n = len(records)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds dataset size {n}")
    folds = np.array_split(make_rng(seed).permutation(n), k)
    splits = []
    for i, fold in enumerate(folds):
        # the other folds, in shuffled order
        train = np.concatenate(folds[:i] + folds[i + 1:])
        splits.append(([records[j] for j in train], [records[j] for j in fold]))
    return splits


def batch_iter(records, labels, batch_size, seed, epoch):
    """Yield one epoch of shuffled Batches; the final short batch is kept.

    records is a sequence of AffectRecords and labels their LabelColumns.
    Each batch takes its rows of the columns by index and stacks its
    records' embeddings, so no whole-dataset copy of the embeddings is
    made. The shuffle is seeded with seed XOR epoch so every epoch sees a
    fresh but reproducible order.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(labels) != len(records):
        raise ValueError(f"{len(labels)} label rows for {len(records)} records")
    order = make_rng(int(seed) ^ int(epoch)).permutation(len(records))
    for start in range(0, len(records), batch_size):
        idx = order[start:start + batch_size]
        yield Batch(np.stack([records[j].embedding for j in idx]), labels[idx])
