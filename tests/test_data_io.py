"""Property tests of the dataset text I/O against the reference parser and writer.

`reference_load_dataset` and `reference_save_dataset` are the row-list
implementations the streaming `load_dataset` and `save_dataset` replaced,
kept verbatim as oracles: every accept/reject decision, message, line
number and byte must match them.
"""

import os
import string
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectstream import data
from affectstream.data import (_HEADER_PREFIX, _MISSING, DEFAULT_EMBED_DIM, N_AU, N_CE,
                               AffectRecord, DatasetFormatError, LabelSet, load_dataset,
                               save_dataset, save_datasets)
from affectstream.synth import SynthConfig, synth_generate

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


# -- oracles (verbatim) -----------------------------------------------------


def _format_float(x):
    # repr() of a Python float is the shortest exact round-trip form, which
    # keeps save->load bit-identical.
    return repr(float(x))


def reference_save_dataset(records, path, dim=None):
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


def reference_load_dataset(path):
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


# -- strategies -------------------------------------------------------------

# where repr() changes notation or precision runs out, plus signed zero and
# subnormals
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1e-5, 9.999999999999999e-06, 0.0001, 1e16, -1e16, 9999999999999998.0,
               1e15, 1.7976931348623157e308, 0.1, 1.0]

finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))
unit_floats = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 9.999999999999999e-06, 1.0, -1.0]),
                        st.floats(min_value=-1.0, max_value=1.0))
record_ids = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=8)


@st.composite
def label_sets(draw):
    au = draw(st.none() | st.lists(st.integers(0, 1), min_size=N_AU, max_size=N_AU))
    return LabelSet(
        au=None if au is None else np.array(au, dtype=np.int64),
        ce=draw(st.none() | st.integers(0, N_CE - 1)),
        va=draw(st.none() | st.lists(unit_floats, min_size=2, max_size=2).map(np.array)))


@st.composite
def datasets(draw, max_rows=6):
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(
        st.tuples(record_ids, st.lists(finite_floats, min_size=dim, max_size=dim), label_sets()),
        max_size=max_rows))
    return dim, [AffectRecord(id=i, embedding=np.array(e, dtype=float), labels=lab)
                 for i, e, lab in rows]


def bits(arr):
    return None if arr is None else np.asarray(arr, dtype=float).tobytes()


def record_key(rec):
    """Everything a record holds, with floats compared bit for bit."""
    lab = rec.labels
    au = None if lab.au is None else tuple(int(b) for b in lab.au)
    return (rec.id, bits(rec.embedding), au, lab.ce, bits(lab.va))


def outcome(load, path):
    try:
        return "ok", [record_key(r) for r in load(path)]
    except Exception as exc:
        line_no = getattr(exc, "line_no", None)
        return "error", type(exc).__name__, line_no, str(exc)


# -- round trips ------------------------------------------------------------


# the loader's block size in bytes: one row per block, a few, or all rows
block_sizes = st.sampled_from([8, 24, data._BLOCK_BYTES])


@settings(max_examples=150, deadline=None)
@given(datasets(), block_sizes)
def test_save_load_save_is_byte_identical_and_bit_exact(tmp_path_factory, dataset, block_bytes):
    dim, records = dataset
    tmp = tmp_path_factory.mktemp("rt")
    first, second, reference = tmp / "a.txt", tmp / "b.txt", tmp / "ref.txt"
    save_dataset(records, first, dim=dim)
    reference_save_dataset(records, reference, dim=dim)
    assert first.read_bytes() == reference.read_bytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_BLOCK_BYTES", block_bytes)
        loaded = load_dataset(first)
    assert [record_key(r) for r in loaded] == [record_key(r) for r in records]
    save_dataset(loaded, second, dim=dim)
    assert second.read_bytes() == first.read_bytes()


def test_save_matches_reference_for_other_array_types(tmp_path):
    # lists, float32 rows and bool AU arrays format as the reference did
    records = [
        AffectRecord(id="a", embedding=[1, 2.5, -0.0], labels=LabelSet(
            au=np.ones(N_AU, dtype=bool), ce=np.int64(3), va=[np.float32(0.1), -1])),
        AffectRecord(id="b", embedding=np.array([0.1, 1e-7, 3e20], dtype=np.float32),
                     labels=LabelSet(au=[0] * N_AU)),
    ]
    save_dataset(records, tmp_path / "a.txt")
    reference_save_dataset(records, tmp_path / "ref.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_save_validates_every_record_before_writing(tmp_path):
    good = AffectRecord(id="a", embedding=np.zeros(3), labels=LabelSet())
    bad = AffectRecord(id="b", embedding=np.array([0.0, np.nan, 1.0]), labels=LabelSet())
    with pytest.raises(ValueError, match="non-finite"):
        save_dataset([good, bad], tmp_path / "d.txt", dim=3)
    assert not (tmp_path / "d.txt").exists()


# -- the streaming parser against the reference -----------------------------

# separators splitlines() breaks at, whitespace str.strip() removes (\x1f is
# not float()'s), and characters that break fields, labels or numbers
MUTATIONS = [" ", "\t", "\r", "\r\n", "\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
             "\xa0", "\u2028", "\u3000", ",", "-", "0", "1", "7", "e", ".", "x",
             "nan", "inf", "1e999", "_", "\n\n", "\u0661"]


@st.composite
def mutated_files(draw):
    dim, records = draw(datasets(max_rows=4))
    text = f"{_HEADER_PREFIX}{dim}\n" + "".join(
        f"{r.id},{','.join(map(repr, r.embedding.tolist()))},{data._format_labels(r.labels)}\n"
        for r in records)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:pos] + draw(st.sampled_from(MUTATIONS)) + text[pos:]
        else:
            text = text[:pos] + text[pos + draw(st.integers(1, 3)):]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_files(), block_sizes)
def test_load_agrees_with_reference_on_mutated_files(tmp_path_factory, text, block_bytes):
    path = tmp_path_factory.mktemp("mut") / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_BLOCK_BYTES", block_bytes)
        assert outcome(load_dataset, path) == outcome(reference_load_dataset, path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_reads_a_pipe(tmp_path):
    records, _ = synth_generate(SynthConfig(n=5, latent_dim=4, embed_dim=3, lift_hidden=4))
    save_dataset(records, tmp_path / "d.txt")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes((tmp_path / "d.txt").read_bytes()),
                              daemon=True)
    writer.start()
    try:
        loaded = load_dataset(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert [record_key(r) for r in loaded] == [record_key(r) for r in records]


@pytest.mark.parametrize("text", [
    "",
    "\n#affect-v1 dim=2\n",
    "#affect-v1 dim=2\x0cr0,1,2,-,-,-,-\n",
    "#affect-v1 dim=2\r\nr0, 1\x1f,2 ,-,3,-,-\r\n\x85\nr1,1,2,-,-,-,-",
    "#affect-v1 dim=2\nr0,1,2\x1f\x1f,-,-,-,-\n",
    "#affect-v1 dim=2\n r0 \t,1,2,-,-,-,-\n \n \t\nr1,1,\x1f,-,-,-,-\n",
    "#affect-v1 dim=2\n\x1f,1,2,-,-,-,-\n",
    "#affect-v1 dim=2\nr0,1,2,-,-,-,-\x1c\x1d\x1e",
])
def test_load_agrees_with_reference_on_separator_edge_cases(tmp_path, text):
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_dataset, path) == outcome(reference_load_dataset, path)


# -- the shared-row writer --------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.lists(st.sampled_from(["shared", "copy", "other"]), max_size=12))
def test_shared_row_writer_matches_independent_saves(tmp_path_factory, seed, sharing):
    records, truth = synth_generate(SynthConfig(n=12, latent_dim=4, embed_dim=5, lift_hidden=4,
                                                missing_au=0.3, missing_ce=0.5, missing_va=0.3,
                                                seed=seed))
    # vary how the second output's rows relate to the first's: the same
    # object, an equal copy, or a different embedding
    for i, how in enumerate(sharing):
        if how == "copy":
            truth[i].embedding = truth[i].embedding.copy()
        elif how == "other":
            truth[i].embedding = truth[i].embedding[::-1] * 0.5
    tmp = tmp_path_factory.mktemp("shared")
    save_datasets([(tmp / "a.txt", records), (tmp / "b.txt", truth)], 5)
    save_dataset(records, tmp / "ref_a.txt", dim=5)
    save_dataset(truth, tmp / "ref_b.txt", dim=5)
    assert (tmp / "a.txt").read_bytes() == (tmp / "ref_a.txt").read_bytes()
    assert (tmp / "b.txt").read_bytes() == (tmp / "ref_b.txt").read_bytes()


def test_shared_row_writer_handles_outputs_of_different_lengths(tmp_path):
    records, truth = synth_generate(SynthConfig(n=6, latent_dim=4, embed_dim=3, lift_hidden=4))
    save_datasets([(tmp_path / "a.txt", records[:2]), (tmp_path / "b.txt", truth)], 3)
    save_dataset(records[:2], tmp_path / "ref_a.txt", dim=3)
    save_dataset(truth, tmp_path / "ref_b.txt", dim=3)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "ref_a.txt").read_bytes()
    assert (tmp_path / "b.txt").read_bytes() == (tmp_path / "ref_b.txt").read_bytes()


def test_shared_row_writer_same_path_keeps_the_last_output(tmp_path):
    records, truth = synth_generate(SynthConfig(n=4, latent_dim=4, embed_dim=3, lift_hidden=4,
                                                missing_ce=1.0))
    save_datasets([(tmp_path / "d.txt", records), (tmp_path / "d.txt", truth)], 3)
    save_dataset(truth, tmp_path / "ref.txt", dim=3)
    assert (tmp_path / "d.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_shared_row_writer_validates_all_outputs_before_opening_any(tmp_path):
    records, truth = synth_generate(SynthConfig(n=4, latent_dim=4, embed_dim=3, lift_hidden=4))
    truth[-1] = AffectRecord(id="bad,id", embedding=truth[-1].embedding, labels=LabelSet())
    with pytest.raises(ValueError, match="comma-free"):
        save_datasets([(tmp_path / "a.txt", records), (tmp_path / "b.txt", truth)], 3)
    assert list(tmp_path.iterdir()) == []


# -- handles ------------------------------------------------------------------


@pytest.fixture
def opened(monkeypatch):
    """Every file the data module opens, recorded in order."""
    handles = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        handles.append(fh)
        return fh

    monkeypatch.setattr(data, "open", recording_open, raising=False)
    return handles


@pytest.mark.parametrize("text", [
    "",
    "#affect-v1 dim=x\nr0,1,-,-,-,-\n",
    "#affect-v1 dim=1\nr0,1,-,-,-,-\nr1,zz,-,-,-,-\nr2,1,-,-,-,-\n",
    "#affect-v1 dim=1\nr0,1,-,9,-,-\n",
])
def test_load_error_closes_the_file(tmp_path, opened, text):
    path = tmp_path / "d.txt"
    path.write_text(text)
    with pytest.raises(DatasetFormatError):
        load_dataset(path)
    assert len(opened) == 1 and opened[0].closed


def test_save_and_load_close_their_files(tmp_path, opened):
    records, truth = synth_generate(SynthConfig(n=3, latent_dim=4, embed_dim=3, lift_hidden=4))
    save_datasets([(tmp_path / "a.txt", records), (tmp_path / "b.txt", truth)], 3)
    load_dataset(tmp_path / "a.txt")
    assert len(opened) == 3 and all(fh.closed for fh in opened)
