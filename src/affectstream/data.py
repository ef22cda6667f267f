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

    def any_present(self):
        return self.au is not None or self.ce is not None or self.va is not None

    def validate(self):
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


def _check_id(rec_id):
    if not rec_id or "," in rec_id:
        raise ValueError(f"record id must be non-empty and comma-free: {rec_id!r}")


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
        _check_id(self.id)
        emb = np.asarray(self.embedding, dtype=float)
        if emb.shape != (dim,):
            raise ValueError(f"record {self.id}: embedding width {emb.shape} != {dim}")
        if not np.isfinite(emb).all():
            raise ValueError(f"record {self.id}: non-finite embedding entry")
        self.labels.validate()


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
    object, its text is formatted once and reused. The bytes are those of
    one save_dataset call per output.
    """
    outputs = [(path, list(records)) for path, records in outputs]
    for _, records in outputs:
        for rec in records:
            rec.validate(dim)
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
    for fh in files:
        fh.write(f"{_HEADER_PREFIX}{dim}\n")
    for row in zip_longest(*columns):
        emb_obj = emb_text = None
        for fh, rec in zip(files, row):
            if rec is None:
                continue
            if rec.embedding is not emb_obj:
                emb_obj = rec.embedding
                emb_text = ",".join(map(repr, np.asarray(emb_obj, dtype=float).tolist()))
            fh.write(f"{rec.id},{emb_text},{_format_labels(rec.labels)}\n")


def save_dataset(records, path, dim=None):
    """Write records in the line-oriented text format (bit-exact round trip).

    Rows are written as they are formatted, so memory stays bounded by one
    row; see save_datasets.
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


def _lines(fh):
    """The file's lines as str.splitlines() gives them, one at a time."""
    for raw in fh:
        # universal newlines split at \n, \r and \r\n; splitlines() also
        # breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
        yield from raw.splitlines()


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
    header = next(lines, None)
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
    with open(path, "r", encoding="utf-8") as fh:
        lines = _lines(fh)
        dim = _read_dim(lines)
        block_rows = max(1, _BLOCK_BYTES // (8 * dim))
        records = []
        for line_no, line in enumerate(lines, start=2):
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
    with open(path, "r", encoding="utf-8") as fh:
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
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    fold_indices = np.array_split(order, k)
    splits = []
    for i in range(k):
        val_idx = set(fold_indices[i].tolist())
        train = [records[j] for j in order if j not in val_idx]
        val = [records[j] for j in fold_indices[i]]
        splits.append((train, val))
    return splits


def batch_iter(records, batch_size, seed, epoch):
    """Yield shuffled batches for one epoch; the final short batch is kept.

    The shuffle is seeded with seed XOR epoch so every epoch sees a fresh
    but reproducible order.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    records = list(records)
    rng = np.random.Generator(np.random.PCG64(int(seed) ^ int(epoch)))
    order = rng.permutation(len(records))
    for start in range(0, len(records), batch_size):
        yield [records[j] for j in order[start:start + batch_size]]
