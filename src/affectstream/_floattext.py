"""Vectorised float64 -> text giving exactly the bytes of repr().

Dataset files hold every embedding entry as its repr(): the shortest
decimal that reads back to the same double. CPython finds it with David
Gay's dtoa, which costs about a microsecond per 17-digit value. Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020) finds the same
shortest, closest digits with fixed-width integer arithmetic, so here it
runs on whole blocks of values in uint64 NumPy.

Only values whose repr() is positional (1e-4 <= |x| < 1e16) take the
vectorised path. Zeros, subnormals and values repr() writes with an
exponent are formatted by repr() itself.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

# Values per step of the arithmetic; each of its arrays takes 64 KiB.
# Larger steps spread NumPy's per-call cost: 2000x512 synth rows took
# 0.250 s in steps of 8192 values and 0.311 s in steps of 2048 (2 vCPUs);
# 16384 would put every array at glibc's 128 KiB mmap threshold.
_BLOCK_VALUES = 8192
# Values per step of the text layout, whose character arrays take 52
# bytes a value; 2048 keeps every array of a step under glibc's 128 KiB
# mmap threshold.
_TEXT_VALUES = 2048

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292


def _g_table():
    """Per k in [_K_MIN, _K_MAX], g = floor(10^-k / 2^r) + 1 for the r that
    puts it in [2^125, 2^126), as its high and low 63 bits."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            shift = 126 - p.bit_length()
            g = (p << shift if shift >= 0 else p >> -shift) + 1
        else:
            p = 10 ** k
            g = (1 << (p.bit_length() + 125)) // p + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


_G1, _G0 = _g_table()
_G1_HI, _G1_LO, _G0_HI, _G0_LO = _G1 >> _U(32), _G1 & _M32, _G0 >> _U(32), _G0 & _M32
# the four ASCII digits of 0..9999, as one little-endian uint32 each, and
# the number of trailing zeros of each written with four digits
_CHUNK = np.arange(10000)
_DIGITS4 = ((_CHUNK[:, None] // [1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
_DIGITS4 = _DIGITS4.view("<u4")[:, 0]
_TRAILING_ZEROS = sum(_CHUNK % 10 ** j == 0 for j in range(1, 5))

# The text of a value is picked, in order, from a row of 52 characters:
# the sign, the 20-digit zero-padded significand (its integer digits, or the
# zero before the point), the point, the significand again (its fraction
# digits, after as many of its leading zeros as the value needs), the zero
# of ".0", and the separator. The significands fill 4-byte words 1-5 and
# 7-11; the other bytes never change.
_TEMPLATE = np.frombuffer(b"-\0\0\0" + b"0" * 20 + b".\0\0\0" + b"0" * 20 + b"0,\0\0",
                          dtype=np.uint8)
_INT, _POINT, _FRAC, _ZERO, _SEP = 4, 24, 28, 48, 49
_POSITIONAL = np.array([1e-4, 1e16]).view(np.uint64)
_ONE = np.array(1.0).view(np.uint64)


def _mask_table():
    """Which characters of the row a value's text takes, and how many, for
    each key = 800 [negative] + 400 [significand of 16 digits] + 20 (place
    of the decimal point + 3) + index of the last nonzero digit of the 20."""
    neg, short, dp, last = np.meshgrid(np.arange(2), np.arange(2), np.arange(-3, 17),
                                       np.arange(20), indexing="ij")
    neg, lead, dp, last = (a.reshape(-1, 1) for a in (neg, 3 + short, dp, last))
    col = np.arange(len(_TEMPLATE))
    point_first = dp <= 0
    int_only = dp > last - lead
    frac_start = np.where(int_only, _ZERO, _FRAC + lead + dp)
    frac_end = np.where(int_only, _ZERO + 1, _FRAC + last + 1)
    take = (((col == 0) & (neg == 1))
            | ((col >= _INT + lead - point_first) & (col < _INT + lead + np.maximum(dp, 0)))
            | (col == _POINT) | ((col >= frac_start) & (col < frac_end)) | (col == _SEP))
    return take, take.sum(axis=1)


_MASKS, _LENGTHS = _mask_table()


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of the products of a < 2^63 and b < 2^63, both given as
    32-bit halves."""
    t = ((a_lo * b_lo) >> _U(32)) + a_lo * b_hi
    t2 = (t & _M32) + a_hi * b_lo
    return a_hi * b_hi + (t >> _U(32)) + (t2 >> _U(32))


def _product(g, cp):
    """g * cp / 2^127 for Schubfach, g = g1 2^63 + g0: the integer part,
    the 63 bits below it, and the low 64 bits of g0 * cp."""
    g1, g1_hi, g1_lo, g0, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    return _mulhi(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> _U(63)), z & _M63, g0 * cp


def _offset(g1, g0, hi, lo, x0, e, sign):
    """The _product parts of g * (cp + sign 2^e), 2 <= e <= 6, from those of
    g * cp: the step adds or takes g1 2^(e-1) above the low 63 bits and
    g0 2^e to g0 * cp, both shifts, and only the carry out of x0, the low
    64 bits of g0 * cp, needs more than a shift."""
    r = _U(64) - e
    low = g0 << e
    carry = (x0 + low < x0) if sign > 0 else (x0 < low)
    d_lo = ((g1 << (e - _U(1))) & _M63) + (g0 >> r) + carry
    d_hi = (g1 >> r) + (d_lo >> _U(63))
    d_lo &= _M63
    if sign > 0:
        lo = lo + d_lo
        return hi + d_hi + (lo >> _U(63)), lo & _M63
    return hi - d_hi - (lo < d_lo), (lo - d_lo) & _M63


def _rop(hi, lo):
    """Schubfach's rop: the integer part, rounded to odd."""
    return hi | ((lo + _M63) >> _U(63))


def _shortest(bits):
    """Shortest round-trip decimal (f, k), value = f * 10^k, of positive
    normal doubles given as uint64 bit patterns; ties go to the closer
    and then to the even candidate, as in repr()."""
    t = bits & _U((1 << 52) - 1)
    c = t | _U(1 << 52)
    q = (bits >> _U(52)).view(np.int64) - 1075
    pow2 = t == 0
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) when c is a power of
    # two and its lower neighbour is half as far
    k = (q * 661971961083 - pow2 * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).view(np.uint64)
    gi = k - _K_MIN
    g1, g0 = _G1[gi], _G0[gi]
    out = c & _U(1)
    # 4 v and 4 times the ends of its rounding interval, v +- ulp / 2
    # (v - ulp / 4 at a power of two), scaled by 10^-k and rounded to odd
    hi, lo, x0 = _product((g1, _G1_HI[gi], _G1_LO[gi], g0, _G0_HI[gi], _G0_LO[gi]),
                          c << (h + _U(2)))
    vb = _rop(hi, lo)
    vbl = _rop(*_offset(g1, g0, hi, lo, x0, h + _U(1) - pow2, -1)) + out
    vbr = _rop(*_offset(g1, g0, hi, lo, x0, h + _U(1), 1)) - out
    s = vb >> _U(2)
    t = s + _U(1)
    # one digit shorter, if exactly one of its two candidates is in range
    sp10 = (s // _U(10)) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = tp10 << _U(2) <= vbr
    # else s or t: the one in range, or the closer, ties to even
    uin = vbl <= s << _U(2)
    win = t << _U(2) <= vbr
    pick_s = np.where(uin != win, uin, (vb & _U(3)) + (s & _U(1)) < _U(3))
    return np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(pick_s, s, t)), k


def _layout(x):
    """Per value of the float64 block x: whether the vectorised path formats
    it, its significand's 20 zero-padded digits as five 4-digit chunks, and
    its key into _MASKS and _LENGTHS."""
    bits = x.reshape(-1).view(np.uint64)
    mag = bits & _M63
    fast = (mag >= _POSITIONAL[0]) & (mag < _POSITIONAL[1])
    f, k = _shortest(np.where(fast, mag, _ONE))
    f = f.view(np.int64)
    # the digits of f < 10^17 as five 4-digit chunks; floor division by a
    # constant is several times faster than % or divmod in NumPy
    hi = f // 10 ** 8
    lo = f - hi * 10 ** 8
    top = hi // 10 ** 8
    mid = hi - top * 10 ** 8
    chunks = [top]
    for part in (mid, lo):
        upper = part // 10 ** 4
        chunks += [upper, part - upper * 10 ** 4]
    # trailing zeros of f, a chunk at a time while the chunks are zero
    zeros = _TRAILING_ZEROS[chunks[4]]
    ends0 = np.flatnonzero(chunks[4] == 0)
    if ends0.size:
        run = np.ones(ends0.size, dtype=bool)
        for chunk in chunks[3::-1]:
            part = chunk[ends0]
            zeros[ends0] += run * _TRAILING_ZEROS[part]
            run &= part == 0
    # f has 16 or 17 digits, so its decimal point is at 16 + k or 17 + k
    key = ((bits >> _U(63)).view(np.int64) * 800 + (f < 10 ** 16) * 380
           + (400 + 20 * k + 19 - zeros))
    return fast, chunks, key


def _texts(x, fast, chunks, key, chars, masks):
    """The repr() texts of the rows of the float64 block x, joined by ","."""
    chars32 = chars.view(np.uint32)
    for j, chunk in enumerate(chunks):
        chars32[:, _INT // 4 + j] = chars32[:, _FRAC // 4 + j] = _DIGITS4[chunk]
    np.take(_MASKS, key, axis=0, out=masks)
    text = np.compress(masks.reshape(-1), chars.reshape(-1)).tobytes().decode("ascii")
    ends = np.cumsum(_LENGTHS[key].reshape(x.shape).sum(axis=1)).tolist()
    rows = [text[a:b - 1] for a, b in zip([0] + ends, ends)]
    slow = ~fast.reshape(x.shape)
    for r in np.flatnonzero(slow.any(axis=1)).tolist():
        parts = rows[r].split(",")
        for j in np.flatnonzero(slow[r]).tolist():
            parts[j] = repr(float(x[r, j]))
        rows[r] = ",".join(parts)
    return rows


def format_rows(embeddings, dim):
    """Yield ",".join(map(repr, row.tolist())) for each embedding, taken as
    a float64 row of width dim, a block of rows at a time."""
    text_rows = max(1, _TEXT_VALUES // dim)
    block_rows = text_rows * max(1, _BLOCK_VALUES // (text_rows * dim))
    embeddings = iter(embeddings)
    chunk = list(islice(embeddings, block_rows))
    if not chunk:
        return
    block = np.empty((block_rows, dim))
    chars = np.empty((text_rows * dim, len(_TEMPLATE)), dtype=np.uint8)
    chars[:] = _TEMPLATE
    masks = np.empty(chars.shape, dtype=bool)
    while chunk:
        for i, emb in enumerate(chunk):
            block[i] = emb
        x = block[:len(chunk)]
        fast, chunks, key = _layout(x)
        for r in range(0, len(chunk), text_rows):
            values = slice(r * dim, (r + text_rows) * dim)
            n = min(text_rows, len(chunk) - r) * dim
            yield from _texts(x[r:r + text_rows], fast[values], [c[values] for c in chunks],
                              key[values], chars[:n], masks[:n])
        chunk = list(islice(embeddings, block_rows))
