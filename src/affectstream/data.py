"""Affect records, dataset file I/O, k-fold splitting, and batching.

A record carries a fixed-width expression embedding plus partially present
AU / CE / VA labels; absent labels are the mechanism by which mixed-source
datasets train a single multi-task model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
            if au.shape != (N_AU,) or not np.isin(au, (0, 1)).all():
                raise ValueError(f"au labels must be {N_AU} bits, got {self.au!r}")
        if self.ce is not None and not 0 <= int(self.ce) < N_CE:
            raise ValueError(f"ce class out of range 0..{N_CE - 1}: {self.ce!r}")
        if self.va is not None:
            va = np.asarray(self.va, dtype=float)
            if va.shape != (2,) or not np.isfinite(va).all() or np.abs(va).max() > 1.0:
                raise ValueError(f"va must be two finite values in [-1, 1], got {self.va!r}")


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
        if not self.id or "," in self.id:
            raise ValueError(f"record id must be non-empty and comma-free: {self.id!r}")
        emb = np.asarray(self.embedding, dtype=float)
        if emb.shape != (dim,):
            raise ValueError(f"record {self.id}: embedding width {emb.shape} != {dim}")
        if not np.isfinite(emb).all():
            raise ValueError(f"record {self.id}: non-finite embedding entry")
        self.labels.validate()


def _format_float(x):
    # repr() of a Python float is the shortest exact round-trip form, which
    # keeps save->load bit-identical.
    return repr(float(x))


def save_dataset(records, path, dim=None):
    """Write records in the line-oriented text format (bit-exact round trip)."""
    records = list(records)
    if dim is None:
        dim = len(records[0].embedding) if records else DEFAULT_EMBED_DIM
    lines = [f"{_HEADER_PREFIX}{dim}\n"]
    for rec in records:
        rec.validate(dim)
        lab = rec.labels
        au = "".join(str(int(b)) for b in lab.au) if lab.au is not None else _MISSING
        ce = str(int(lab.ce)) if lab.ce is not None else _MISSING
        if lab.va is not None:
            v, a = _format_float(lab.va[0]), _format_float(lab.va[1])
        else:
            v = a = _MISSING
        emb = ",".join(_format_float(x) for x in rec.embedding)
        lines.append(f"{rec.id},{emb},{au},{ce},{v},{a}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


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


def load_dataset(path):
    """Parse a dataset file into records, validating every invariant."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise DatasetFormatError(1, f"missing header '{_HEADER_PREFIX}<dim>'")
    try:
        dim = int(lines[0][len(_HEADER_PREFIX):])
    except ValueError:
        raise DatasetFormatError(1, f"bad header {lines[0]!r}") from None
    if dim < 1:
        raise DatasetFormatError(1, f"embedding width must be >= 1, got {lines[0]!r}")
    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != dim + 5:
            raise DatasetFormatError(line_no, f"expected {dim + 5} fields, got {len(fields)}")
        rec_id = fields[0]
        try:
            emb = np.array([float(x) for x in fields[1:dim + 1]], dtype=float)
        except ValueError:
            raise DatasetFormatError(line_no, "non-numeric embedding entry") from None
        if not np.isfinite(emb).all():
            raise DatasetFormatError(line_no, "non-finite embedding entry")
        labels = _parse_labels(fields[dim + 1], fields[dim + 2],
                               fields[dim + 3], fields[dim + 4], line_no)
        rec = AffectRecord(id=rec_id, embedding=emb, labels=labels)
        try:
            rec.validate(dim)
        except ValueError as exc:
            raise DatasetFormatError(line_no, str(exc)) from None
        records.append(rec)
    return records


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
