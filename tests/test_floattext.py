"""The vectorised float formatter against repr(), value for value."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_data_io import EDGE_FLOATS

from affectstream import _floattext, data
from affectstream.data import AffectRecord, LabelSet, save_datasets


def repr_rows(rows):
    return [",".join(map(repr, np.asarray(row, dtype=float).tolist())) for row in rows]


def assert_formats_like_repr(values, dim):
    rows = np.asarray(values, dtype=float).reshape(-1, dim)
    got = list(_floattext.format_rows(rows, dim))
    want = repr_rows(rows)
    for row, g, w in zip(rows, got, want):
        if g != w:
            bad = [(x, a, b) for x, a, b in zip(row.tolist(), g.split(","), w.split(","))
                   if a != b]
            raise AssertionError(f"{len(bad)} values differ from repr(), first {bad[:3]}")
    assert len(got) == len(want)


finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=40))
def test_every_finite_float_formats_as_its_repr(values):
    assert_formats_like_repr(values, len(values))


def test_rounding_interval_ends_equal_their_direct_products():
    # _offset derives g * (cp +- 2^e) from g * cp; it must equal the product
    rng = np.random.default_rng(7)
    n = 1 << 16
    gi = rng.integers(0, _floattext._G1.size, n)
    g = tuple(t[gi] for t in (_floattext._G1, _floattext._G1_HI, _floattext._G1_LO,
                              _floattext._G0, _floattext._G0_HI, _floattext._G0_LO))
    cp = rng.integers(1 << 57, 1 << 59, n, dtype=np.uint64)
    hi, lo, x0 = _floattext._product(g, cp)
    for e in range(2, 7):
        step = np.uint64(1 << e)
        for sign, shifted in ((1, cp + step), (-1, cp - step)):
            got = _floattext._offset(g[0], g[3], hi, lo, x0, np.full(n, e, dtype=np.uint64), sign)
            want = _floattext._product(g, shifted)[:2]
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (e, sign)


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def test_bulk_values_format_as_their_repr():
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2 ** 64, 1 << 20, dtype=np.uint64, endpoint=False)
    random_bits = bits.view(np.float64)
    random_bits = random_bits[np.isfinite(random_bits)]
    # bit patterns inside the vectorised range 1e-4 <= |x| < 1e16, either sign
    lo, hi = np.array([1e-4, 1e16]).view(np.uint64).tolist()
    positional = rng.integers(lo, hi, 1 << 19, dtype=np.uint64)
    positional |= rng.integers(0, 2, positional.size, dtype=np.uint64) << np.uint64(63)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = [v for x in (1e-4, 1e16, 2.0 ** 53, 1e-3, 0.1, 1.0, 1e15, 2.2250738585072014e-308)
             for v in _neighbours(x)]
    subnormals = np.concatenate([np.arange(1, 2000) * 5e-324, rng.random(2000) * 2.2e-308])
    decimals = rng.integers(-10 ** 5, 10 ** 5, 10000) / 10.0 ** rng.integers(0, 9, 10000)
    values = np.concatenate([random_bits, positional.view(np.float64), powers, -powers,
                             edges, [0.0, -0.0], subnormals, -subnormals,
                             rng.integers(-2 ** 53, 2 ** 53, 10000).astype(float), decimals])
    assert values.size >= 10 ** 6 + 2098
    values = np.resize(values, -(-values.size // 512) * 512)
    assert_formats_like_repr(values, 512)


# -- the dataset writer's blocks ------------------------------------------


def reference_text(records, dim):
    return f"#affect-v1 dim={dim}\n" + "".join(
        f"{r.id},{repr_rows([r.embedding])[0]},{data._format_labels(r.labels)}\n"
        for r in records)


def make_records(rng, n, dim, prefix="r"):
    # magnitudes from 1e-3 to 1e3, so the rows mix integer and fraction digits
    return [AffectRecord(id=f"{prefix}{i}",
                         embedding=rng.standard_normal(dim) * 10.0 ** (i % 7 - 3),
                         labels=LabelSet(ce=i % 7)) for i in range(n)]


@pytest.fixture
def small_blocks(monkeypatch):
    # a text step of 2 rows of width 3 and an arithmetic block of 4 rows
    monkeypatch.setattr(_floattext, "_TEXT_VALUES", 6)
    monkeypatch.setattr(_floattext, "_BLOCK_VALUES", 12)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
def test_writer_rows_not_a_multiple_of_the_block(tmp_path, small_blocks, n):
    rng = np.random.default_rng(n)
    records = make_records(rng, n, 3)
    records[-1].embedding[0] = 0.0  # a repr() value in the last, short block
    save_datasets([(tmp_path / "a.txt", records)], 3)
    assert (tmp_path / "a.txt").read_text() == reference_text(records, 3)


def test_writer_shared_embeddings_across_block_boundaries(tmp_path, small_blocks):
    rng = np.random.default_rng(1)
    first = make_records(rng, 9, 3)
    # the second output shares rows 2-5 with the first, and rows 3 and 4 of
    # the first output hold one object, so the formatter's blocks of four
    # embeddings mix unshared, shared and repeated rows
    first[4].embedding = first[3].embedding
    second = make_records(rng, 9, 3, prefix="t")
    for i in range(2, 6):
        second[i].embedding = first[i].embedding
    save_datasets([(tmp_path / "a.txt", first), (tmp_path / "b.txt", second)], 3)
    assert (tmp_path / "a.txt").read_text() == reference_text(first, 3)
    assert (tmp_path / "b.txt").read_text() == reference_text(second, 3)


def test_writer_outputs_of_unequal_length(tmp_path, small_blocks):
    rng = np.random.default_rng(2)
    long = make_records(rng, 7, 3)
    short = [AffectRecord(id=r.id, embedding=r.embedding, labels=LabelSet()) for r in long[:3]]
    save_datasets([(tmp_path / "a.txt", short), (tmp_path / "b.txt", long),
                   (tmp_path / "c.txt", [])], 3)
    assert (tmp_path / "a.txt").read_text() == reference_text(short, 3)
    assert (tmp_path / "b.txt").read_text() == reference_text(long, 3)
    assert (tmp_path / "c.txt").read_text() == reference_text([], 3)


def test_writer_float32_and_list_embeddings(tmp_path, small_blocks):
    rng = np.random.default_rng(3)
    records = [AffectRecord(id="a", embedding=rng.standard_normal(3).astype(np.float32),
                            labels=LabelSet()),
               AffectRecord(id="b", embedding=[1, 2.5, -0.0], labels=LabelSet()),
               AffectRecord(id="c", embedding=np.float32([0.1, 1e-7, 3e20]), labels=LabelSet()),
               AffectRecord(id="d", embedding=[np.float32(0.1), 7, 1e-300], labels=LabelSet()),
               AffectRecord(id="e", embedding=np.arange(3), labels=LabelSet())]
    save_datasets([(tmp_path / "a.txt", records)], 3)
    assert (tmp_path / "a.txt").read_text() == reference_text(records, 3)


def test_writer_at_full_block_size(tmp_path):
    rng = np.random.default_rng(4)
    records = make_records(rng, 37, 512)
    save_datasets([(tmp_path / "a.txt", records)], 512)
    assert (tmp_path / "a.txt").read_text() == reference_text(records, 512)


def test_formatter_allocates_nothing_for_no_rows():
    # a header-only dataset may declare a width no row could be built for
    assert list(_floattext.format_rows([], 10 ** 12)) == []
