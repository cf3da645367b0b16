"""Exact linear algebra over prime fields.

Everything downstream (filtrations, idempotent images, summand certificates)
is compared through one currency: subspaces of F_p^N in canonical reduced
row echelon form.  Two subspaces are equal iff their canonical bases are
identical, so no tolerance ever enters.

How a row of F_p^N is stored is decided in one place, the field backend
returned by ``field(p)``, and every other module works on rows through it:

* ``p == 2``: a row is a Python int, bit ``j`` = column ``j``.  Every
  product, of any shape, runs Four-Russians on numpy uint64 words, and
  every echelon eliminates on the big ints, whose XOR costs time only
  where rows have bits.
* odd ``p``: a row is a numpy array of the narrowest unsigned dtype that
  holds p - 1 (uint8 below 257), with entries in [0, p).  Each kernel
  widens what it computes on to int64, or to float64 in the product, and
  stores its result narrow.

There is one echelon kernel per field.

A backend holds only what depends on that storage: ``zero``, ``unit``,
``coerce``, ``stack``, ``from_array``, ``from_triples``, ``digits``,
``take``, ``terms`` and ``from_terms`` turn rows into and out of dense
arrays and (index, coefficient) terms, and ``dtype`` is that of
``digits``, the narrowest unsigned dtype that holds p - 1;
``is_zero``, ``key``, ``add``, ``sub``, ``scale``, ``concat``, ``join``
and ``split`` act on single rows, and ``same`` compares two blocks in
one call; ``echelon``, ``reduce`` and ``matmul`` are its one echelon,
reduction and product kernels, and ``echelon_csr`` feeds that echelon
the rows of a sparse matrix; ``tensor_times`` multiplies rows by a
tensor power g x ... x g of a small matrix without forming it.  Its
block writer ``write_rows`` and block reader ``read_rows`` (with its row
reader ``parse_row``) are the one seam between rows and payload text:
the reader takes a block only as the writer gives it back, byte for byte
(lower-case fixed-width hex at p = 2, canonical decimals joined by
single spaces at odd p).
``Mat``, ``Subspace`` and the equivariant solver each have one body
written against it; so do ``Mat.apply`` (a one-row product) and
``Mat.spread`` (digits written into a zero array).  ``field(p)`` is also
the one check that p is a usable modulus.

The equivariant solver keeps each generator's blocks as ``Mat``s, reads
their entries through ``digits`` and widens only each equation's sum of
terms to int64; no package code calls ``Mat.to_array``.  Its linear
system is sparse, and it is held in CSR form only: int64 row starts,
int32 columns and coefficients in the backend's ``dtype`` (the narrowest
unsigned dtype that holds p - 1), one row per equation with its
right-hand side at column nunk.  The solver
orders the equations by descending lowest column, stably, as
``_GF2.echelon`` sorts packed rows, and hands that order to
``echelon_csr``.  The GF(2) kernel
``_rref2_ints`` eliminates an ordered stream: it takes rows in the order
given and keeps only pivot rows.  So ``_GF2.echelon_csr`` packs the rows
one chunk of ``_CHUNK`` entries at a time, and a row that reduces to 0
is dropped as it does; ``_GF2.echelon`` sorts its rows and feeds the
same kernel.  At odd p, ``echelon_csr`` fills one dense block of narrow
rows and eliminates it in place.

The weight table of T^r(V_n) lives here as well, cached per (n, r),
where a word over 1..n of length r has its big-endian base-n index:
``_digit_table`` (the letters of every word), ``_weight_index`` (the
weight space of every index) and ``_weight_blocks`` (the indices of each
weight space).  Every module that grades by letter content reads them.
``_word_texts`` caches the text of every word, which the subspace text
format writes and reads.
``substitute`` is the one letter substitution: the algebra map of T(V)
that replaces each letter by a given tensor.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "field",
    "Mat",
    "Subspace",
    "rref",
    "direct_sum",
    "is_direct_sum",
    "substitute",
    "solve_equivariant_projection",
    "affine_projection_family",
    "word_weight",
    "format_subspace",
    "parse_subspace",
    "parse_terms",
]


# ---------------------------------------------------------------------------
# packed-row kernels, p == 2


def _rref2_ints(vecs):
    """Gauss-Jordan on big-int rows, which enter in the order the
    iterable vecs gives them; returns (canonical rows, pivots).  Only the
    pivot rows are kept: a row that reduces to 0 is dropped as it does,
    and each pivot row is let go once back-substitution has replaced it."""
    piv = {}
    mask = 0
    for v in vecs:
        v = _red2(v, piv, mask)
        if v:
            c = (v & -v).bit_length() - 1
            piv[c] = v
            mask |= 1 << c
    fin = {}
    fmask = 0
    for c in sorted(piv, reverse=True):
        fin[c] = _red2(piv.pop(c), fin, fmask)
        fmask |= 1 << c
    pivots = sorted(fin)
    return [fin[c] for c in pivots], pivots


def _red2(v, piv_by_col, mask):
    """v with its bits at the masked pivot columns cleared, lowest first,
    by XOR with the row of each pivot."""
    while True:
        inter = v & mask
        if not inter:
            return v
        c = (inter & -inter).bit_length() - 1
        v ^= piv_by_col[c]


@lru_cache(maxsize=None)
def _letter_masks(n, r):
    """Per position of a length-r word, (stride, masks): the index stride
    of that position and, per letter j, the int with bit c set for the
    indices c whose word has letter j there."""
    D = _digit_table(n, r)
    out = []
    for pos in range(r):
        stride = n ** (r - 1 - pos)
        masks = np.packbits(D[:, pos] == np.arange(n)[:, None], axis=1,
                            bitorder="little")
        out.append((stride, tuple(_words_to_rows(masks))))
    return tuple(out)


def _mul2(arows, brows):
    """C = A*B for packed rows; bit j of arows[i] selects brows[j].

    Every product, of any shape, goes through the word kernel
    ``_mul2_words``; a row of A that is negative or wider than B's row
    count raises ValueError.
    """
    nb = len(brows)
    for a in arows:
        if a < 0 or a.bit_length() > nb:
            raise ValueError("row width exceeds left factor's column count")
    bw = max((r.bit_length() for r in brows), default=0)
    C = _mul2_words(_rows_to_words(arows, nb), _rows_to_words(brows, bw))
    return _words_to_rows(C)


# ---------------------------------------------------------------------------
# GF(2) word kernels (numpy uint64 word arrays)
#
# Python-int bitsets are convenient, but the quadratic loops dominate once
# matrices reach tensor rank 9 and beyond (4096 columns at rank 12), so
# products run on vectorized word arithmetic.
# Bit j of a row lives in word j // 64 at position j % 64.


def _rows_to_words(rows, ncols):
    """Packed rows as a (rows, words) uint64 array, padded to whole words."""
    nw = max(1, (ncols + 63) // 64)
    return _GF2._bytes(rows, 64 * nw).view(np.uint64)


def _words_to_rows(words):
    """Packed rows from the rows of a 2-d unsigned array read as
    little-endian bits, of words of any width (uint8 or uint64)."""
    return [int.from_bytes(w.tobytes(), "little")
            for w in np.ascontiguousarray(words)]


# words of the tables and of the gathered entries of one batch of groups
# in _mul2_words: 512 KB, which stays in cache
_BATCH_WORDS = 1 << 16


def _mul2_words(A, B):
    """Row-convention product: out row i = XOR of the B rows selected by
    the set bits of A row i, which must lie below B's row count.

    The Four-Russians kernel M4RM (Albrecht, Bard and Hart, ACM TOMS
    37(1), 2010): B's rows are cut into groups of k, each group is
    expanded into the 2^k-entry table of the XORs of its subsets, and
    each row of A gathers one entry per group by its k bits there.  As
    in M4RM, k is about log2 of A's row count, so a one-row product
    builds two-entry tables; k is 1, 2, 4 or 8, so a group's bits lie in
    one byte of A.  Groups are taken as many at a time as _BATCH_WORDS
    words hold both their tables and their gathered entries: the tables
    are built at once by doubling (entries h..2h-1 = entries 0..h-1 XOR
    the group's row of bit h), and the entries are gathered and XORed at
    once.  A group no row of A selects from is skipped.
    """
    m = A.shape[0]
    n_b, nw_b = B.shape
    k = 1 << (max(1, min(8, m.bit_length() - 1)).bit_length() - 1)
    mask = np.uint8((1 << k) - 1)
    out = np.zeros((m, nw_b), dtype=np.uint64)
    Ab = np.ascontiguousarray(A).view(np.uint8)
    # group g is bits g*k .. g*k + k - 1 of a row: byte g*k // 8 from bit
    # g*k % 8; it is live when the OR of A's rows has a bit there
    g = np.arange(min(-(-n_b // k), Ab.shape[1] * 8 // k))
    byte, shift = g * k // 8, (g * k % 8).astype(np.uint8)
    live = g[((np.bitwise_or.reduce(Ab, axis=0)[byte] >> shift) & mask) != 0]
    step = max(1, _BATCH_WORDS // (nw_b * max(m, 1 << k)))
    # entry 0 of every table is 0; the doubling rewrites the others
    luts = np.zeros((min(step, len(live)), 1 << k, nw_b), dtype=np.uint64)
    at = np.arange(len(luts))[:, None]
    # B's rows of each live group; past B's last row A has no bit, so a
    # clipped row is never read
    brow = live[:, None] * k + np.arange(k)
    for s in range(0, len(live), step):
        groups = live[s:s + step]
        lut = luts[:len(groups)]
        rows = B.take(brow[s:s + step], axis=0, mode="clip")
        for bit in range(k):
            h = 1 << bit
            np.bitwise_xor(lut[:, :h], rows[:, bit:bit + 1],
                           out=lut[:, h:2 * h])
        fields = Ab[:, byte[groups]]
        if k < 8:  # at k = 8 a group is a whole byte
            fields = (fields >> shift[groups]) & mask
        picked = lut[at[:len(groups)], fields.T]
        out ^= picked[0] if len(groups) == 1 else np.bitwise_xor.reduce(
            picked, axis=0)
        del picked  # as large as the product: gone before the next one
    return out


# ---------------------------------------------------------------------------
# numpy kernels, odd p


def _echp(a, p):
    """Canonical RREF of a 2-d integer array, in place; returns (matrix,
    pivots).  Its dtype must hold p: ``_GFp`` passes its narrow rows.
    Each pivot updates the rows it touches in int64, a chunk of about
    _CHUNK entries at a time, and stores them back, so the int64
    temporaries stay bounded whatever the size of the block."""
    np.remainder(a, p, out=a)
    nr, nc = a.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # row r is zero left of c, so only columns c.. change
        inv = pow(int(a[r, c]), p - 2, p)
        prow = np.multiply(a[r, c:], inv, dtype=np.int64) % p
        a[r, c:] = prow
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        step = max(1, _CHUNK // (nc - c))
        for s in range(0, rows.size, step):
            at = rows[s:s + step]
            sub = a[at, c:].astype(np.int64)
            sub -= np.outer(sub[:, 0], prow)
            a[at, c:] = np.remainder(sub, p, out=sub)
        pivots.append(c)
        r += 1
    return a, pivots


def _redp(v, rows, pivots, p):
    """v reduced by the rows, pivot by pivot, in int64."""
    v = np.remainder(v, p, dtype=np.int64)
    for i, c in enumerate(pivots):
        f = int(v[c])
        if f:
            v -= np.multiply(rows[i], f, dtype=np.int64)
            np.remainder(v, p, out=v)
    return v


_EXACT = 1 << 53  # float64 holds every integer below this exactly
_TILE = 256


def _matmulp(a, b, p, dtype):
    """Exact (a @ b) mod p of arrays reduced mod p, through float64 BLAS,
    as a new array of the given dtype.

    The delayed reduction of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM
    TOMS 35(3), 2008): the inner dimension is cut into chunks of c terms,
    c * (p - 1)^2 + p - 1 < 2^53, so a chunk's product plus the reduced
    running sum is an integer float64 holds exactly, in any summation
    order.  ``field`` keeps (p - 1)^2 < 2^53, so c >= 1.  As there, the
    entries are stored compactly and widened to float64 only here, each
    once: a whole, b one tile of _TILE columns at a time.  Tiles of _TILE
    rows of a bound the float64 sums.
    """
    m, k = a.shape
    n = b.shape[1]
    step = (_EXACT - p) // (p - 1) ** 2
    out = np.empty((m, n), dtype=dtype)
    af = a.astype(np.float64)
    for j in range(0, n, _TILE):
        bt = b[:, j:j + _TILE].astype(np.float64)
        for i in range(0, m, _TILE):
            acc = np.zeros((min(_TILE, m - i), bt.shape[1]))
            for c in range(0, k, step):
                acc += af[i:i + _TILE, c:c + step] @ bt[c:c + step]
                np.fmod(acc, p, out=acc)
            out[i:i + _TILE, j:j + _TILE] = acc
    return out


# ---------------------------------------------------------------------------
# field backends: the only code that knows how a row is stored
#
# A "row" is one packed vector; a "block" is the storage of a stack of
# rows (a list of rows for GF(2), a 2-d array for odd p).  Iterating a
# block yields its rows, and every method taking rows also takes a block.


_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*\Z")
_DECIMAL_ROW = re.compile(r"(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*))*\Z")


def _read_each(parse, texts, n):
    """The rows parse(text, n) reads, one per text; an error names its
    row."""
    rows = []
    for i, text in enumerate(texts):
        try:
            if not isinstance(text, str):
                raise ValueError("not a string")
            rows.append(parse(text, n))
        except ValueError as exc:
            raise ValueError("row %d: %s" % (i, exc)) from None
    return rows


class _GF2:
    """Rows over GF(2) as Python ints, bit j = column j."""

    dtype = np.dtype(np.uint8)  # of ``digits``

    def zero(self, n):
        return 0

    def unit(self, n, i):
        return 1 << i

    def coerce(self, vec):
        """A packed row from a packed row or a plain 0/1 sequence."""
        return vec if isinstance(vec, int) else self.from_array([vec])[0]

    def stack(self, rows, n):
        return list(rows)

    def from_array(self, arr):
        bits = np.asarray(arr).astype(np.uint8) & 1  # the cast keeps parity
        return _words_to_rows(np.packbits(bits, axis=1, bitorder="little"))

    def from_triples(self, nrows, ncols, rows, cols, vals):
        """Rows that are 0 but for vals[t] at (rows[t], cols[t]), set in
        uint64 words; no position may repeat."""
        words = np.zeros((nrows, max(1, (ncols + 63) // 64)), dtype=np.uint64)
        rows, cols = rows[vals % 2 != 0], cols[vals % 2 != 0]
        np.bitwise_or.at(words, (rows, cols // 64), np.left_shift(
            np.uint64(1), (cols % 64).astype(np.uint64)))
        return _words_to_rows(words)

    @staticmethod
    def _bytes(rows, n):
        """The rows as a uint8 array; column j is bit j % 8 of byte j // 8."""
        nb = max(1, (n + 7) // 8)
        return np.frombuffer(b"".join(r.to_bytes(nb, "little") for r in rows),
                             dtype=np.uint8).reshape(len(rows), nb)

    def digits(self, rows, n):
        """The rows as a dense array of the narrowest dtype: uint8 bits."""
        return np.unpackbits(self._bytes(rows, n), axis=1, count=n,
                             bitorder="little")

    def take(self, rows, n, cols):
        """The given columns of the rows, in order, as new rows."""
        cols = np.array(cols, dtype=np.intp)
        picked = self._bytes(rows, n)[:, cols // 8]
        return self.from_array(picked >> (cols % 8).astype(np.uint8))

    def terms(self, row):
        while row:
            low = row & -row
            yield low.bit_length() - 1, 1
            row ^= low

    def from_terms(self, n, pairs):
        """Sum of coefficient * unit row over (index, coefficient) pairs."""
        out = 0
        for i, c in pairs:
            if c & 1:
                out ^= 1 << i
        return out

    def is_zero(self, row):
        return not row

    def key(self, row):
        return row

    def add(self, a, b):
        return a ^ b

    sub = add

    def scale(self, a, c):
        return a if c & 1 else 0

    def concat(self, v1, v2, n2):
        """Outer product: column i * n2 + j holds v1[i] * v2[j]."""
        out = 0
        while v1:
            low = v1 & -v1
            out ^= v2 << ((low.bit_length() - 1) * n2)
            v1 ^= low
        return out

    def join(self, a, b, n1):
        """Row a (n1 columns) followed by row b."""
        return a | (b << n1)

    def split(self, row, n1):
        """Inverse of join: the first n1 columns and the rest."""
        return row & ((1 << n1) - 1), row >> n1

    def same(self, a, b):
        """True when blocks a and b hold the same rows."""
        return list(a) == list(b)

    def echelon(self, rows, n):
        """Canonical RREF of the rows: (nonzero rows, pivot columns).
        Rows enter by descending lowest set bit, stably, which about
        halves the XORs on the sparse systems of the solve and the
        certificate inverse."""
        return _rref2_ints(sorted(rows, key=lambda v: -(v & -v).bit_length()))

    def echelon_csr(self, csr, order, n):
        """``echelon`` of the rows ``order`` of the n-column CSR matrix
        csr, streamed in that order a chunk of _CHUNK entries at a time."""
        step = max(1, _CHUNK // max(n, 1))
        chunks = (order[s:s + step] for s in range(0, len(order), step))
        return _rref2_ints(
            row for rows in chunks
            for row in self.from_triples(len(rows), n, *_csr_take(csr, rows)))

    def reduce(self, rows, pivots, vecs):
        """Each vector reduced by canonical echelon rows."""
        piv = dict(zip(pivots, rows))
        mask = 0
        for c in pivots:
            mask |= 1 << c
        return [_red2(v, piv, mask) for v in vecs]

    def matmul(self, a, b):
        """a @ b for blocks of rows, always through the word kernel."""
        return _mul2(a, b)

    def tensor_times(self, rows, g, n, r):
        """Each row times g tensor ... tensor g (r factors), for an n x n
        array g, without forming that matrix.  Per tensor axis, the n
        slices of a row (the columns with letter j there, cut out by a
        mask and shifted onto letter 0) are summed into the output
        slices, one XOR per nonzero entry of g."""
        masks = _letter_masks(n, r)
        cols = [np.flatnonzero(g[:, i] & 1).tolist() for i in range(n)]
        out = []
        for x in rows:
            for stride, mask in masks:
                parts = [(x & mask[j]) >> (j * stride) for j in range(n)]
                x = 0
                for i, js in enumerate(cols):
                    acc = 0
                    for j in js:
                        acc ^= parts[j]
                    x |= acc << (i * stride)
            out.append(x)
        return out

    def write_rows(self, rows, n):
        """Each row as lower-case hex, zero-padded to ceil(n / 4) digits
        (one digit at n = 0)."""
        return ["%0*x" % (max(1, (n + 3) // 4), r) for r in rows]

    def read_rows(self, texts, n):
        """The rows that ``write_rows`` writes as texts, read one by one
        with ``parse_row``.  Once every row parses, the first row that
        the writer would not write (upper-case hex) is refused too."""
        rows = _read_each(self.parse_row, texts, n)
        back = self.write_rows(rows, n)
        if back != texts:
            i = next(i for i, (a, b) in enumerate(zip(back, texts)) if a != b)
            raise ValueError("row %d: not the canonical text of its entries"
                             % i)
        return rows

    def parse_row(self, text, n):
        width = max(1, (n + 3) // 4)
        # int(text, 16) alone would also take '0x', '_', whitespace and
        # non-ASCII digits
        if len(text) != width or not _HEX_DIGITS.match(text):
            raise ValueError("not %d hex digits" % width)
        row = int(text, 16)
        if row.bit_length() > n:
            raise ValueError("set bit beyond column %d" % (n - 1))
        return row


class _GFp:
    """Rows over GF(p), p odd, as numpy arrays of the narrowest unsigned
    dtype that holds p - 1, with entries in [0, p): uint8 below 257,
    uint16 up to 65521, uint32 above.  Arithmetic widens to int64 (float64
    in ``_matmulp``) inside each method and stores its result narrow;
    int64 is exact, as ``field`` keeps (p - 1)^2 < 2^53, the bound of the
    exact FFLAS-FFPACK products of ``_matmulp``."""

    def __init__(self, p):
        self.p = p
        self.dtype = np.min_scalar_type(p - 1)  # of every row and block
        self._digits = len(str(p - 1))  # of the widest entry

    def _narrow(self, x):
        """The int64 work array x, reduced mod p in place, stored narrow."""
        return np.remainder(x, self.p, out=x).astype(self.dtype)

    def zero(self, n):
        return np.zeros(n, dtype=self.dtype)

    def unit(self, n, i):
        out = self.zero(n)
        out[i] = 1
        return out

    def stack(self, rows, n):
        return np.array(rows, dtype=self.dtype).reshape(len(rows), n)

    def from_array(self, arr):
        """Rows from an integer array, reduced mod p in the array's own
        dtype where it holds p, else in int64."""
        a = np.asarray(arr)
        if a.dtype.kind not in "iu" or np.iinfo(a.dtype).max < self.p:
            a = a.astype(np.int64)
        return np.remainder(a, self.p).astype(self.dtype, copy=False)

    def from_triples(self, nrows, ncols, rows, cols, vals):
        out = np.zeros((nrows, ncols), dtype=self.dtype)
        out[rows, cols] = self.from_array(vals)
        return out

    coerce = from_array
    digits = stack

    def terms(self, row):
        for i in np.nonzero(row)[0]:
            yield int(i), int(row[i])

    def from_terms(self, n, pairs):
        out = np.zeros(n, dtype=np.int64)
        for i, c in pairs:
            out[i] += c
        return self._narrow(out)

    def is_zero(self, row):
        return not row.any()

    def key(self, row):
        return row.tobytes()

    def add(self, a, b):
        return self._narrow(np.add(a, b, dtype=np.int64))

    def sub(self, a, b):
        return self._narrow(np.subtract(a, b, dtype=np.int64))

    def scale(self, a, c):
        return self._narrow(np.multiply(a, c % self.p, dtype=np.int64))

    def concat(self, v1, v2, n2):
        return self._narrow(np.multiply.outer(v1, v2, dtype=np.int64).ravel())

    def take(self, rows, n, cols):
        return self.stack(rows, n)[:, cols]

    def join(self, a, b, n1):
        return np.concatenate((a, b))

    def split(self, row, n1):
        return row[:n1], row[n1:]

    def same(self, a, b):
        return np.array_equal(a, b)

    def echelon(self, rows, n):
        return self._echelon(self.stack(rows, n))

    def echelon_csr(self, csr, order, n):
        """``echelon`` of the rows ``order`` of the n-column CSR matrix
        csr, from the one dense narrow block they fill."""
        return self._echelon(self.from_triples(len(order), n,
                                               *_csr_take(csr, order)))

    def _echelon(self, a):
        """Canonical RREF of a fresh block, eliminated in place."""
        a, piv = _echp(a, self.p)
        rows = a if len(piv) == len(a) else a[: len(piv)].copy()
        rows.flags.writeable = False  # packed_rows hands out views
        return rows, piv

    def reduce(self, rows, pivots, vecs):
        return [_redp(v, rows, pivots, self.p).astype(self.dtype)
                for v in vecs]

    def matmul(self, a, b):
        return _matmulp(a, b, self.p, self.dtype)

    def tensor_times(self, rows, g, n, r):
        """Each row times g tensor ... tensor g (r factors), for an n x n
        array g reduced mod p, without forming that matrix.  Per tensor
        axis, each output slice is an int64 sum of input slices scaled by
        entries of g, reduced and stored narrow once per axis, and reduced
        after every lim terms where n terms could overflow int64."""
        p = self.p
        x = self.stack(rows, n ** r)
        m = len(x)
        lim = (np.iinfo(np.int64).max - p + 1) // (p - 1) ** 2  # >= 1023
        for axis in range(r):
            src = x.reshape(m * n ** axis, n, n ** (r - axis - 1))
            out = np.zeros(src.shape, dtype=np.int64)
            for i in range(n):
                for t, j in enumerate(np.flatnonzero(g[:, i])):
                    if t and t % lim == 0:
                        np.remainder(out[:, i], p, out=out[:, i])
                    out[:, i] += np.multiply(src[:, j], int(g[j, i]),
                                             dtype=np.int64)
            x = self._narrow(out)
        return x.reshape(m, n ** r)

    def write_rows(self, block, n):
        """Each row as its entries' decimals joined by single spaces,
        written a chunk of rows at a time by ``_text_bytes``."""
        a = np.asarray(block, dtype=self.dtype).reshape(len(block), n)
        if n == 0:
            return [""] * len(a)
        out = []
        step = max(1, _CHUNK // n)
        for lo in range(0, len(a), step):
            text = self._text_bytes(a[lo:lo + step]).decode("ascii")
            out += text.split("\n")[:-1]
        return out

    def _text_bytes(self, a):
        """The rows of the 2-d array a (at least one column) as ASCII:
        each entry's decimal, then a space, or a row end after a row's
        last entry.  Each entry gets len(str(p - 1)) digit cells, filled
        one numpy pass per decimal position, and its leading zero cells
        are then dropped."""
        top = self._digits - 1
        cells = np.empty(a.shape + (top + 2,), dtype=np.uint8)
        cells[..., -1] = ord(" ")
        cells[:, -1, -1] = ord("\n")
        x = a
        for k in range(top, 0, -1):
            x, d = np.divmod(x, 10)
            np.add(d, ord("0"), out=cells[..., k], casting="unsafe")
        # entries are below 10 ** _digits, so x is one digit
        np.add(x, ord("0"), out=cells[..., 0], casting="unsafe")
        if not top:
            return cells.tobytes()
        keep = np.ones(cells.shape, dtype=bool)
        for k in range(top):  # the units digit is always kept
            keep[..., k] = a >= 10 ** (top - k)
        return cells[keep].tobytes()

    def read_rows(self, texts, n):
        """The block of n-column rows that ``write_rows`` writes as texts.

        Per chunk of rows, the texts joined by row ends are guessed
        leniently, and the guess is kept only when ``_text_bytes`` gives
        the same bytes back.  That holds exactly when the writer gives
        back every text byte for byte: its bytes have one row end per row.
        Otherwise the rows are read one by one with ``parse_row``, which
        takes only the writer's text, so an error names its row and keeps
        its message.
        """
        out = np.empty((len(texts), n), dtype=self.dtype)
        step = max(1, _CHUNK // max(n, 1))
        for lo in range(0, len(texts), step):
            try:
                raw = ("\n".join(texts[lo:lo + step]) + "\n").encode("ascii")
            except (TypeError, UnicodeEncodeError):
                break
            block = np.empty(out[lo:lo + step].shape, dtype=np.int32)
            if not self._guess_rows(raw, block) or (
                    self._text_bytes(block) != raw):
                break
            out[lo:lo + step] = block
        else:
            return out
        return self.stack(_read_each(self.parse_row, texts, n), n)

    def _guess_rows(self, raw, block):
        """Fill the m x n int32 block from the ASCII bytes raw, taking
        each non-digit byte as the end of one entry and the up to
        len(str(p - 1)) digits before it, 8 at most, as its decimal.  False
        unless there are m * n such ends and every entry is below p.  On
        text the writer writes this reads the block it wrote; on other
        text it may read anything, which the writer then does not give back."""
        digit = np.frombuffer(raw, dtype=np.uint8) - np.uint8(ord("0"))
        stop = np.flatnonzero(digit >= 10).astype(np.int32)
        vals = block.reshape(-1)
        if stop.size != vals.size:
            return False
        vals[:] = digit[stop - 1]
        more = np.ones(stop.size, dtype=bool)
        for k in range(1, self._digits):
            # before the first entry, wrap round to the final row end
            d = digit.take(stop - 1 - k, mode="wrap")
            more &= d < 10
            vals[more] += d[more].astype(np.int32) * 10 ** k
        return not (vals >= self.p).any()

    def parse_row(self, text, n):
        toks = text.split()
        try:
            row = np.array(toks, dtype=np.int64)
        except OverflowError:  # an integer token too wide for int64
            row = None
        if len(toks) != n:
            raise ValueError("%d entries, expected %d" % (len(toks), n))
        if row is None or ((row < 0) | (row >= self.p)).any():
            raise ValueError("entry outside 0..%d" % (self.p - 1))
        if not _DECIMAL_ROW.match(text):  # numpy takes "+1", "01", "1_0"
            raise ValueError("not %d decimals joined by single spaces" % n)
        return row.astype(self.dtype)


@lru_cache(maxsize=None)
def field(p):
    """The row backend of GF(p), shared by every caller.

    A packed row is whatever its methods take and return; no other code
    needs to know its type.  This is the one check of a modulus: it raises
    ValueError unless p is an int prime with (p - 1)^2 < 2^53, the bound
    of the exact odd-p products.
    """
    if p == 0:
        raise ValueError("linear algebra needs a prime modulus, got 0")
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"modulus must be a prime, got {p!r}")
    # the bound comes first: trial division of a large p takes minutes
    if (p - 1) ** 2 >= _EXACT:
        raise ValueError("modulus %d too large: need (p - 1)^2 < 2^53" % p)
    if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"modulus must be a prime, got {p}")
    return _GF2() if p == 2 else _GFp(p)


class Mat:
    """Dense matrix over GF(p), stored as a block of packed rows of the
    field backend.  Row vectors act on the right: ``v -> v @ M``.
    """

    __slots__ = ("p", "nrows", "ncols", "_f", "_d")

    def __init__(self, p, nrows, ncols, payload):
        self._f = field(p)
        self.p = p
        self.nrows = nrows
        self.ncols = ncols
        self._d = payload

    # -- construction

    @classmethod
    def from_packed(cls, p, rows, ncols):
        """From packed rows (see ``field``) of width ncols."""
        block = field(p).stack(rows, ncols)
        return cls(p, len(block), ncols, block)

    @classmethod
    def from_array(cls, p, arr):
        """From a 2-d integer array; entries are reduced mod p."""
        arr = np.asarray(arr)
        return cls(p, arr.shape[0], arr.shape[1], field(p).from_array(arr))

    @classmethod
    def from_rows(cls, p, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls.from_array(
            p, np.array(rows, dtype=np.int64).reshape(len(rows), ncols))

    @classmethod
    def from_texts(cls, p, size, texts):
        """Inverse of ``row_texts`` for a size x size matrix.

        Raises ValueError unless there are size rows, each the text
        ``row_texts`` writes for size entries in 0..p-1.
        """
        if not isinstance(texts, list) or len(texts) != size:
            raise ValueError("expected a list of %d rows" % size)
        return cls(p, size, size, field(p).read_rows(texts, size))

    @classmethod
    def zeros(cls, p, nrows, ncols):
        return cls.from_packed(p, [field(p).zero(ncols)] * nrows, ncols)

    @classmethod
    def identity(cls, p, n):
        F = field(p)
        return cls.from_packed(p, [F.unit(n, i) for i in range(n)], n)

    # -- access

    def to_array(self):
        """Entries as a 2-d int64 array; for tests, as no package code
        calls it."""
        return self._f.digits(self._d, self.ncols).astype(np.int64)

    def packed_rows(self):
        return list(self._d)

    def transpose(self):
        """The transposed matrix."""
        return Mat.from_array(self.p, np.ascontiguousarray(
            self._f.digits(self._d, self.ncols).T))

    def columns(self, cols):
        """The submatrix of the given columns, in the given order."""
        cols = list(cols)
        return Mat(self.p, self.nrows, len(cols),
                   self._f.take(self._d, self.ncols, cols))

    def spread(self, cols, ncols):
        """The ncols-column matrix whose column cols[j] is column j of this
        one; every other column is zero.  Inverse of ``columns``."""
        digits = self._f.digits(self._d, self.ncols)
        out = np.zeros((self.nrows, ncols), dtype=digits.dtype)
        out[:, np.asarray(cols, dtype=np.intp)] = digits
        return Mat(self.p, self.nrows, ncols, self._f.from_array(out))

    def row_texts(self):
        """One payload text line per row."""
        return self._f.write_rows(self._d, self.ncols)

    # -- arithmetic

    def __matmul__(self, other):
        if self.p != other.p or self.ncols != other.nrows:
            raise ValueError("shape/modulus mismatch")
        return Mat(self.p, self.nrows, other.ncols,
                   self._f.matmul(self._d, other._d))

    def _rowwise(self, op, other):
        if self.p != other.p or (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape/modulus mismatch")
        return Mat.from_packed(self.p, [op(a, b) for a, b in zip(self._d, other._d)],
                               self.ncols)

    def __add__(self, other):
        return self._rowwise(self._f.add, other)

    def __sub__(self, other):
        return self._rowwise(self._f.sub, other)

    def scale(self, c):
        return Mat.from_packed(self.p, [self._f.scale(a, c) for a in self._d],
                               self.ncols)

    def apply(self, vec):
        """Row vector times matrix: a packed row for a packed row, a plain
        list for a plain list."""
        F = self._f
        out = F.matmul(F.stack([F.coerce(vec)], self.nrows), self._d)[0]
        if isinstance(vec, list):
            return F.digits([out], self.ncols)[0].tolist()
        return out

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.p != other.p or (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self._f.same(self._d, other._d)

    def __hash__(self):
        # equal matrices have equal shapes; entries are left to __eq__,
        # so hashing copies no row
        return hash((self.p, self.nrows, self.ncols))

    def __repr__(self):
        return f"Mat({self.p}, {self.nrows}x{self.ncols})"


def rref(mat):
    """Canonical reduced row echelon form, shape preserved.

    Returns (rref_matrix, rank).  Pivot entries are 1, pivot columns are
    cleared elsewhere, pivot columns strictly increase, zero rows sink to
    the bottom.
    """
    F = mat._f
    rows, pivots = F.echelon(mat._d, mat.ncols)
    rows = list(rows) + [F.zero(mat.ncols)] * (mat.nrows - len(pivots))
    return Mat.from_packed(mat.p, rows, mat.ncols), len(pivots)


class Subspace:
    """A subspace of F_p^N held as its canonical RREF basis.

    Equality of subspaces is literal equality of the stored bases; the
    canonical form makes that a complete test.
    """

    __slots__ = ("p", "ambient", "_f", "_rows", "_pivots")

    def __init__(self, p, ambient, rows, pivots, _internal=False):
        if not _internal:
            raise TypeError("use Subspace.from_vectors / from_packed")
        self._f = field(p)
        self.p = p
        self.ambient = ambient
        self._rows = rows
        self._pivots = pivots

    @classmethod
    def from_vectors(cls, p, ambient, vectors):
        F = field(p)
        return cls.from_packed(p, ambient, [F.coerce(v) for v in vectors])

    @classmethod
    def from_packed(cls, p, ambient, packed_rows):
        """Span of packed rows (see ``field``)."""
        rows, piv = field(p).echelon(packed_rows, ambient)
        return cls(p, ambient, rows, list(piv), _internal=True)

    @classmethod
    def zero(cls, p, ambient):
        return cls.from_vectors(p, ambient, [])

    @property
    def dim(self):
        return len(self._pivots)

    @property
    def pivots(self):
        return list(self._pivots)

    def packed_rows(self):
        return list(self._rows)

    def basis_matrix(self):
        return Mat.from_packed(self.p, self._rows, self.ambient)

    def contains(self, vec):
        F = self._f
        return F.is_zero(F.reduce(self._rows, self._pivots, [F.coerce(vec)])[0])

    def contains_space(self, other):
        F = self._f
        return all(map(F.is_zero, F.reduce(self._rows, self._pivots, other._rows)))

    def add(self, rows):
        """The span of this subspace and the given packed rows."""
        return Subspace.from_packed(self.p, self.ambient,
                                    list(self._rows) + list(rows))

    def sum(self, other):
        self._check_compat(other)
        return self.add(other._rows)

    def intersect(self, other):
        """Zassenhaus: echelonize [A|A ; B|0]; zero-left rows carry the
        intersection on the right."""
        self._check_compat(other)
        F, N = self._f, self.ambient
        aug = [F.join(r, r, N) for r in self._rows] + \
            [F.join(r, F.zero(N), N) for r in other._rows]
        rows, _ = F.echelon(aug, 2 * N)
        inter = []
        for r in rows:
            left, right = F.split(r, N)
            if F.is_zero(left):
                inter.append(right)
        return Subspace.from_packed(self.p, N, inter)

    def _check_compat(self, other):
        if self.p != other.p or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambients")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if (self.p, self.ambient, self._pivots) != (other.p, other.ambient, other._pivots):
            return False
        return self._f.same(self._rows, other._rows)

    def __hash__(self):
        return hash((self.p, self.ambient, tuple(map(self._f.key, self._rows))))

    def __repr__(self):
        return f"Subspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"


# bench/tracer.py wraps ``SpanBuilder.add`` by name: the name stays, as
# Subspace, whose ``add`` grows a span, until the tracer's GROUPS drop it
SpanBuilder = Subspace


def direct_sum(p, ambient, parts):
    """The sum of the subspaces parts of F_p^ambient and the sum of their
    dimensions; the sum is direct exactly when the two dimensions agree."""
    total = Subspace.from_packed(
        p, ambient, [row for part in parts for row in part.packed_rows()])
    return total, sum(part.dim for part in parts)


def is_direct_sum(parts, whole):
    """True iff the parts are independent and together span the whole."""
    total, want = direct_sum(whole.p, whole.ambient, parts)
    return total.dim == want and total == whole


# ---------------------------------------------------------------------------
# equivariant projections


# entries of one dense block of equations or solutions: 2 MB as int64
_CHUNK = 1 << 18


def _restrict(space, times):
    """Matrix of a map g on the canonical basis B of space, or None when
    space is not g-invariant; times(X) is X @ g.  Each row of B is 1 at
    its own pivot and 0 at the others, so a vector of the span has its
    entries at the pivots as coordinates: M = (B g)[:, pivots], and B g
    lies in the span exactly when M B = B g."""
    B = space.basis_matrix()
    img = times(B)
    co = img.columns(space.pivots)
    return co if co @ B == img else None


def _null_rows(p, ech, piv, ncols, cols):
    """Row t is 1 at cols[t] and -ech[:, cols[t]] at the pivots piv of the
    canonical echelon rows ech, in the narrowest signed dtype: for a free
    cols[t], the kernel vector that is 1 there and 0 at the other free."""
    out = np.zeros((len(cols), ncols), dtype=np.min_scalar_type(-p))
    out[np.arange(len(cols)), cols] = 1
    piv = np.array(piv, dtype=np.intp)
    step = max(1, _CHUNK // max(1, len(cols)))  # bounds the dense copies
    F = field(p)
    for s in range(0, len(piv), step):
        # widened before the negation, as the digits are unsigned
        out[:, piv[s:s + step]] = -F.digits(F.take(
            ech[s:s + step], ncols, cols), len(cols)).T.astype(out.dtype)
    return out


def _complement(n, idx):
    """The ascending indices of range(n) that are not in idx."""
    out = np.ones(n, dtype=bool)
    out[np.asarray(idx, dtype=np.intp)] = False
    return np.flatnonzero(out)


def _solve_linear_system(p, system, nunk):
    """Solve stacked equations, given as ``system``: the CSR arrays
    (ptr, cols, vals) of the augmented equation rows over nunk + 1
    columns, each row's coefficients at its unknowns 0..nunk-1 in
    ascending column order and its right-hand side at column nunk.

    Returns (particular, kernel_basis) with packed vectors, or None if
    inconsistent.  The particular solution is 0 at the echelon's free
    columns, kernel vector t 1 at the t-th and 0 at the rest.  Rows enter
    the echelon by descending lowest column, stably, empty rows last: the
    order ``_GF2.echelon`` sorts packed rows into, read off the CSR.
    """
    F = field(p)
    ptr, cols, _ = system
    filled = ptr[1:] > ptr[:-1]
    low = np.zeros(len(filled), dtype=np.int64)
    low[filled] = cols[ptr[:-1][filled]] + 1
    ech, piv = F.echelon_csr(system, np.argsort(-low, kind="stable"),
                             nunk + 1)
    if nunk in piv:
        return None
    out = _null_rows(p, ech, piv, nunk + 1,
                     np.append(_complement(nunk, piv), nunk))
    out[-1] *= -1  # with the free unknowns at 0, x[piv] is the last column
    *kernel, part = F.from_array(out[:, :nunk])
    return part, kernel


def _canonical_solution(p, part, kernel, index):
    """``_solve_linear_system``'s answer in reference order (the kept
    X[u, v] row by row), from its answer (part, kernel) in the numbering
    index.  Column j is free in the reference echelon exactly when some
    kernel vector ends at j, so the kernel echeloned in reversed reference
    order has the free columns as pivots and is the reference kernel; the
    particular solution reduced by it is the reference one."""
    F = field(p)
    rev = index[index >= 0][::-1]
    n, back = len(rev), np.arange(len(rev))[::-1]
    ech, piv = F.echelon(F.take(kernel, n, rev), n)
    part = F.reduce(ech, piv, F.take([part], n, rev))
    return F.take(part, n, back)[0], list(F.take(ech, n, back))[::-1]


def _projection_problem(action, image, domain, labels):
    """Shared setup for the equivariant projection solver.

    Returns None if the image is not an invariant subspace (then no
    projection with that image can commute with the action), otherwise a
    dict of the data in echelon coordinates.  In domain coordinates the
    image is its canonical echelon basis ``image``, I at its pivot columns
    and R at its ``free`` columns.  Per generator g, ``blocks`` holds the
    Mats

    * A, the action of g on the image basis (``_restrict``);
    * C = G.columns(pivots) and D = G.columns(free) - C R, where G is the
      packed rows of g at the free columns.

    Together they are g, [[A, 0], [C, D]], in the basis of the image rows
    and the unit rows at the free columns.  That basis has the inverse
    [[I, -R], [0, I]] in closed form, so neither is formed.  ``graded``
    (k x m) holds the grade of X[u, v], or -1 where u and v differ in
    grade: the grade of a coordinate is the rank of its label among the
    labels (one int or string per domain coordinate).  An image row that
    crosses labels raises ValueError.
    """
    p = domain.p
    d = domain.dim
    if not domain.contains_space(image):
        raise ValueError("image must lie inside the domain")
    gmats = [_restrict(domain, partial(action.times, gi))
             for gi in range(len(action.generators))]
    if any(g is None for g in gmats):
        raise ValueError("domain is not invariant under the action")

    im = Subspace.from_packed(
        p, d, image.basis_matrix().columns(domain.pivots).packed_rows())
    piv = np.array(im.pivots, dtype=np.intp)
    free = _complement(d, piv)
    R = im.basis_matrix().columns(free)
    lab = np.unique(labels, return_inverse=True)[1].ravel()
    nz = field(p).digits(im.packed_rows(), d) != 0
    if (nz & (lab != lab[piv][:, None])).any():
        raise ValueError("an image row crosses labels")

    blocks = []
    for g in gmats:
        A = _restrict(im, lambda b: b @ g)
        if A is None:
            return None  # image not invariant: infeasible
        rows = g.packed_rows()
        G = Mat.from_packed(p, [rows[i] for i in free], d)
        C = G.columns(piv)
        blocks.append((A, C, G.columns(free) - C @ R))
    graded = np.where(lab[free][:, None] == lab[piv], lab[free][:, None], -1)

    return {"p": p, "d": d, "m": im.dim, "image": im, "free": free, "R": R,
            "blocks": blocks, "graded": graded}


def _invert(mat):
    F, n = mat._f, mat.nrows
    # the [mat | I] rows are not named, so they are freed with the echelon
    ech, piv = F.echelon(
        [F.join(r, F.unit(n, i), n) for i, r in enumerate(mat._d)], 2 * n)
    if piv != list(range(n)):
        raise ValueError("matrix not invertible")
    return Mat.from_packed(mat.p, [F.split(r, n)[1] for r in ech], n)


def _csr(a):
    """The nonzeros of a 2-d array by rows: (row starts, columns, values)."""
    r, cols = np.nonzero(a)
    return np.searchsorted(r, np.arange(len(a) + 1)), cols, a[r, cols]


def _csr_gather(ptr, rows):
    """The nonzeros of the given rows (repeats allowed) of a matrix with
    row starts ptr: (index into rows, position in the nonzero arrays)."""
    counts = ptr[rows + 1] - ptr[rows]
    owner = np.repeat(np.arange(len(rows)), counts)
    shift = np.repeat(ptr[rows] - np.cumsum(counts) + counts, counts)
    return owner, np.arange(len(owner)) + shift


def _csr_take(csr, rows):
    """The nonzeros of the given rows of the CSR matrix csr as triples
    (index into rows, column, value), for ``from_triples``."""
    ptr, cols, vals = csr
    owner, at = _csr_gather(ptr, rows)
    return owner, cols[at], vals[at]


def _assemble_projection_system(prob):
    """Equations X*A - D*X = C per generator over the unknowns X[u, v],
    v an image row, u a free column (the blocks of ``_projection_problem``);
    equation (i, j) has coefficient A[v, j] at X[i, v] and -D[i, u] at
    X[u, j], and right-hand side C[i, j].

    Unknowns where ``prob["graded"]`` is -1 are pinned to zero.  Returns
    (index, nunk, system): index[u, v] numbers X[u, v] (-1 when pinned)
    in elimination order (grade block size descending, grade, v
    descending, u).  system is the CSR form of ``_solve_linear_system``:
    every equation other than 0 = 0 in generator and equation order,
    repeats included, as the echelon depends only on their span, with
    int64 row starts, int32 columns and coefficients in the backend's
    ``dtype``.  The terms are read from the blocks' narrow ``digits`` and
    summed one chunk of equations, about _CHUNK terms, at a time, each
    sum widened to int64 before it is reduced mod p; no equation is
    packed.
    """
    p, d, m = prob["p"], prob["d"], prob["m"]
    k = d - m
    graded = prob["graded"]
    keep = graded >= 0
    nunk = int(np.count_nonzero(keep))
    index = np.full((k, m), -1, dtype=np.intp)
    (u, v), w = np.nonzero(keep), graded[keep]
    index[keep] = np.argsort(np.lexsort((u, -v, w, -np.bincount(w)[w])))
    # pinned unknowns land in column nunk + 1, past the right-hand side
    col = np.where(keep, index, nunk + 1)
    step = max(1, _CHUNK // max(m, k, 1))
    F = field(p)
    sizes = [np.zeros(0, dtype=np.int64)]
    cols, vals = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=F.dtype)]
    for a, c, dd in prob["blocks"]:
        aptr, acol, aval = _csr(F.digits(a.packed_rows(), m).T)
        dptr, dcol, dval = _csr(F.digits(dd.packed_rows(), k))
        c = F.digits(c.packed_rows(), m)
        for e0 in range(0, k * m, step):
            i, j = np.divmod(np.arange(e0, min(e0 + step, k * m)), m)
            r1, t1 = _csr_gather(aptr, j)
            r2, t2 = _csr_gather(dptr, i)
            eq = np.concatenate((r1, r2, np.arange(len(i))))
            unk = np.concatenate((col[i[r1], acol[t1]], col[dcol[t2], j[r2]],
                                  np.full(len(i), nunk)))
            coef = np.concatenate((aval[t1], p - dval[t2], c[i, j]))
            # sort by (equation, column), then sum the terms on one column
            order = np.argsort(eq * (nunk + 2) + unk)
            eq, unk, coef = eq[order], unk[order], coef[order]
            if len(eq):
                new = np.flatnonzero(np.diff(eq, prepend=-1)
                                     | np.diff(unk, prepend=-1))
                eq, unk = eq[new], unk[new]
                coef = np.add.reduceat(coef, new, dtype=np.int64) % p
                live = (coef != 0) & (unk <= nunk)
                eq, unk, coef = eq[live], unk[live], coef[live]
            sizes.append(np.unique(eq, return_counts=True)[1])
            cols.append(unk.astype(np.int32))
            vals.append(coef.astype(F.dtype))
    ptr = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    return index, nunk, (ptr, np.concatenate(cols), np.concatenate(vals))


def _projection_from_x(prob, xvals, index):
    """The projection of the unknowns X (k x m): P = Y @ image, where Y is
    X at the free columns and I - R X at the pivot columns: the rows of
    those two Mats, put in domain order.  In the basis of
    ``_projection_problem`` it is [[I, 0], [X, 0]]."""
    p, m, F = prob["p"], prob["m"], field(prob["p"])
    keep = index >= 0
    x = np.zeros(index.shape, dtype=F.dtype)
    x[keep] = F.digits([xvals], np.count_nonzero(keep))[0]
    X = Mat.from_array(p, x)
    rows = X.packed_rows() + (Mat.identity(p, m) - prob["R"] @ X).packed_rows()
    at = np.argsort(np.append(prob["free"], prob["image"].pivots))
    Y = Mat.from_packed(p, [rows[i] for i in at], m)
    return Y @ prob["image"].basis_matrix()


def _projection_solution(action, image, domain, labels):
    """The projection problem, its index of unknowns and its solution
    (particular, kernel), or None when it is infeasible."""
    prob = _projection_problem(action, image, domain, labels)
    if prob is None:
        return None
    index, nunk, system = _assemble_projection_system(prob)
    sol = _solve_linear_system(prob["p"], system, nunk)
    return None if sol is None else (
        prob, index, _canonical_solution(prob["p"], *sol, index))


def solve_equivariant_projection(action, image, domain, labels):
    """Find an idempotent projection of the domain onto the image that
    commutes with every generator and keeps the grading.

    ``labels`` assigns a grade (an int or a string) to each domain basis
    row, and every image row must be homogeneous.  The answer is a Mat in
    domain coordinates, or None when the linear system is infeasible (no
    such projection exists).  Precondition violations (image outside
    domain, non-invariant domain, an image row that crosses labels) raise
    ValueError instead.
    """
    got = _projection_solution(action, image, domain, labels)
    if got is None:
        return None
    prob, index, (part, _) = got
    return _projection_from_x(prob, part, index)


def affine_projection_family(action, image, domain, labels):
    """The full affine family of solutions of the projection system that
    ``solve_equivariant_projection`` solves, labels included.

    Returns (particular Mat, [kernel-direction Mats]) or None if
    infeasible.  No package code calls it; it stays while
    ``bench/tracer.py`` wraps it by name.
    """
    got = _projection_solution(action, image, domain, labels)
    if got is None:
        return None
    prob, index, (part, kern) = got
    base = _projection_from_x(prob, part, index)
    zero = field(prob["p"]).zero(np.count_nonzero(index >= 0))
    m0 = _projection_from_x(prob, zero, index)
    dirs = [_projection_from_x(prob, v, index) - m0 for v in kern]
    return base, dirs


# ---------------------------------------------------------------------------
# letter substitution


def substitute(p, n, d, images, r, rows):
    """Images of rows of T^r(V_b), b = len(images), under the algebra map
    T(V_b) -> T(V_n) that sends letter a to images[a - 1], a row of
    T^d(V_n): a word goes to the concatenation of its letters' images, a
    row of T^(rd)(V_n).  A word's image is its first letter's image
    followed by that of the rest, so each suffix shared by the words of
    the rows is built once."""
    F = field(p)
    b = len(images)
    memo = {(0, 0): F.unit(1, 0)}  # (length, index) of a suffix -> image

    def image(length, idx):
        got = memo.get((length, idx))
        if got is None:
            head, tail = divmod(idx, b ** (length - 1))
            got = memo[length, idx] = F.concat(
                images[head], image(length - 1, tail), n ** (d * (length - 1)))
        return got

    out = []
    for row in rows:
        acc = F.zero(n ** (d * r))
        for idx, c in F.terms(row):
            acc = F.add(acc, F.scale(image(r, idx), c))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# words and the shared text format


def word_weight(word, n):
    """Multidegree of a word: how often each letter occurs."""
    w = [0] * n
    for a in word:
        w[a - 1] += 1
    return tuple(w)


@lru_cache(maxsize=None)
def _digit_table(n, r):
    """The letters of every word of length r as an n^r x r array, row i
    holding the word of index i with letters 0..n-1."""
    D = np.empty((n ** r, r), dtype=np.int64)
    idx = np.arange(n ** r)
    for pos in range(r - 1, -1, -1):
        D[:, pos] = idx % n
        idx = idx // n
    return D


@lru_cache(maxsize=None)
def _weight_index(n, r):
    """Per word index of T^r(V_n), the position of its weight (letter
    content) among the keys of ``_weight_blocks(n, r)``."""
    D = _digit_table(n, r)
    content = np.stack([(D == a).sum(axis=1) for a in range(n)], axis=1)
    return np.unique(content, axis=0, return_inverse=True)[1].ravel()


@lru_cache(maxsize=None)
def _weight_blocks(n, r):
    """The weight spaces of T^r(V_n): letter content (the count of each
    letter, the ``word_weight`` of its words) -> ascending array of the
    indices of the words with it, in ascending order of content."""
    label = _weight_index(n, r)
    order = np.argsort(label, kind="stable")
    D = _digit_table(n, r)
    return {tuple(np.bincount(D[idx[0]], minlength=n).tolist()): idx
            for idx in np.split(order, np.cumsum(np.bincount(label))[:-1])}


@lru_cache(maxsize=None)
def _word_texts(n, r):
    """The payload text of every word of T^r(V_n), in index order, and
    the inverse dict from text to index: letters' digits run together
    for n <= 9, letters joined by '.' for n > 9."""
    sep = "." if n > 9 else ""
    texts = [sep.join(map(str, w)) for w in (_digit_table(n, r) + 1).tolist()]
    return texts, {t: i for i, t in enumerate(texts)}


def parse_terms(line, n, r):
    """The (index, coefficient) pairs of a term line 'c w c w ...' over
    words of length r in 1..n, each word written as in
    ``format_subspace``; a word's index is big-endian base n."""
    toks = line.split()
    if len(toks) % 2:
        raise ValueError(f"dangling token in term line: {line!r}")
    out = []
    for i in range(0, len(toks), 2):
        c = int(toks[i])
        w = toks[i + 1]
        letters = w.split(".") if n > 9 else w
        if len(letters) != r:
            raise ValueError(f"word {w!r} has length {len(letters)}, "
                             f"expected {r}")
        idx = 0
        # every letter is read before any is range-checked
        for a in [int(ch) for ch in letters]:
            if not 1 <= a <= n:
                raise ValueError(f"letter {a} outside alphabet 1..{n}")
            idx = idx * n + a - 1
        out.append((idx, c))
    return out


def format_subspace(space, n, r):
    """Serialize a subspace of the word space T^r(V_n).

    Header 'p n r', then one line per canonical basis vector listing
    coefficient/word pairs.  A word is written as its letters' digits
    run together ('2 121'), or, when n > 9, as its letters joined by '.'
    ('2 1.10.3'); the header's n decides which.  '#' starts a comment.
    Terms are read from the basis's digit array, and word texts from a
    table cached per (n, r).
    """
    if space.ambient != n ** r:
        raise ValueError("ambient does not match n^r")
    lines = [f"{space.p} {n} {r}"]
    texts = _word_texts(n, r)[0]
    digits = space._f.digits(space.packed_rows(), space.ambient)
    flat = np.flatnonzero(digits)
    at, cols = np.divmod(flat, space.ambient)
    terms = [f"{c} {texts[j]}"
             for c, j in zip(digits.ravel()[flat].tolist(), cols.tolist())]
    ends = np.cumsum(np.bincount(at, minlength=len(digits))).tolist()
    lines += [" ".join(terms[a:b]) for a, b in zip([0] + ends, ends)]
    return "\n".join(lines) + "\n"


def parse_subspace(text, header=None):
    """Inverse of format_subspace: returns (Subspace, n, r).

    A given header (p, n, r) must match the text's header; that is
    checked before any row is read or n^r is formed.  Canonical lines are
    read through the word table of ``format_subspace``, all others by
    ``parse_terms`` (see ``_row_terms``).
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty subspace text")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"bad header {lines[0]!r}, want 'p n r'")
    p, n, r = (int(t) for t in head)
    if header is not None and (p, n, r) != tuple(header):
        raise ValueError("header %r, expected '%d %d %d'"
                         % (lines[0], *header))
    F = field(p)
    # the table holds n^r words: a text shorter than that, or a header
    # with no words, is read by parse_terms alone, so a huge or malformed
    # header fails on its rows as it always has, not on memory
    index = _word_texts(n, r)[1] if n >= 1 and r >= 0 and \
        n ** r <= len(text) else {}
    vecs = [F.from_terms(n ** r, _row_terms(ln, n, r, index))
            for ln in lines[1:]]
    return Subspace.from_packed(p, n ** r, vecs), n, r


def _row_terms(line, n, r, index):
    """The (index, coefficient) pairs of one term line: through the word
    table ``index`` when every word is in it, else through
    ``parse_terms``, which accepts and rejects as always, with its
    messages."""
    toks = line.split()
    if len(toks) % 2 == 0:
        try:
            return [(index[w], int(c)) for c, w in zip(toks[::2], toks[1::2])]
        except (KeyError, ValueError):
            pass
    return parse_terms(line, n, r)
