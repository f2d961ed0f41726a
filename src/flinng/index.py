"""Grouped near-neighbor index: a B x R grid of cells probed through reverse tables.

Construction distributes the N points over B equal cells, independently R
times (a derived-seed permutation plus modulo-B assignment per repetition).
Every point is hashed once into m codes; for each hash function i, a reverse
table maps an l_bits-wide code to the deduplicated list of cells holding a
point with that code. A query then:

  1. hashes once into m codes,
  2. counts, per cell, how many of the m tables contain the cell under the
     query's code (``cell_counts``),
  3. takes as candidates the members of repetition 0's qualifying cells and
     checks each candidate's R cells through ``point_cells``: ``query_threshold``
     keeps those whose R cells all count >= t; ``query_topk`` walks the cells by
     descending count (ties by ascending id, zero counts skipped) and emits a
     point in the last of its R cells that the walk reaches, after the smaller
     ids in that cell, stopping after k emissions.

Top-k results are in emission order, which is not a similarity ranking.
Indexes are immutable after build, and queries keep no state between calls,
so one index serves concurrent queries with no per-thread buffers.
"""

import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lsh
from ._prng import TAG_PERMUTATION, derive, permutation
from .errors import ConfigError, FormatError, InputError

METRIC_JACCARD = "jaccard"
METRIC_COSINE = "cosine"

_METRIC_KIND = {METRIC_JACCARD: lsh.KIND_MINHASH, METRIC_COSINE: lsh.KIND_SRP}
_KIND_METRIC = {kind: metric for metric, kind in _METRIC_KIND.items()}

MAGIC = b"FLNG"
VERSION = 4
# 64 bytes, so the uint64 bucket bitmap right after it starts 8-byte aligned; pad bytes are reserved zeros
_HEADER = struct.Struct("<4sIB3xIIIIQI4xQQI")
_KINDS = (lsh.KIND_MINHASH, lsh.KIND_SRP)

MAX_REPETITIONS = 255
# offsets are uint32: R * n_points and the reverse-table payload length stay below this
OFFSET_LIMIT = 1 << 32

# the header, then the index arrays of these names, in image order: item sizes never
# grow along it, so every array starts aligned to its own item size
IMAGE_PARTS = ("header", "bucket_bits", "bucket_offsets", "cell_offsets", "cell_members", "table_payload")

# entry s: the bits of a word below bit s
_LOW_MASKS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64)) - np.uint64(1)


def _image_dtypes(width):
    """Image dtypes of the arrays in IMAGE_PARTS[1:]."""
    u4 = np.dtype("<u4")
    return np.dtype("<u8"), u4, u4, u4, np.dtype(f"<u{width}")


def _word_ranks(bits):
    """The set bits before each word of a bitmap (int64): its rank directory."""
    ones = np.bitwise_count(bits)
    return np.cumsum(ones, dtype=np.int64) - ones


def _bucket_words(n_buckets):
    """Words in the bitmap of n_buckets buckets: bit n_buckets has one too, so rank(n_buckets) is defined."""
    return (n_buckets >> 6) + 1


def _bucket_bitmap(flags):
    """The bitmap of one bool per bit as uint64 words."""
    return np.packbits(flags, bitorder="little").view("<u8")


def _check_family(family, config):
    """Raise ConfigError unless a family passed in was built for the config's hash spec."""
    if family is not None and family.spec != config.hash_spec:
        raise ConfigError(f"hash family built for {family.spec}, but the config has {config.hash_spec}")


@dataclass(frozen=True)
class FlinngConfig:
    """Grid shape (num_cells x repetitions), hash family spec, and metric.

    ConfigError at construction for a bad field; num_cells and repetitions are held as ints.
    """

    num_cells: int
    repetitions: int
    hash_spec: lsh.HashFamilySpec
    metric: str

    def __post_init__(self):
        if not isinstance(self.hash_spec, lsh.HashFamilySpec):
            raise ConfigError(f"hash_spec must be a HashFamilySpec, got {self.hash_spec!r}")
        # the dataclass is frozen
        object.__setattr__(self, "num_cells", lsh._count(self.num_cells, "num_cells", 2, error=ConfigError))
        object.__setattr__(self, "repetitions",
                           lsh._count(self.repetitions, "repetitions", high=MAX_REPETITIONS, error=ConfigError))
        if self.num_cells * self.repetitions >= 1 << 32:
            raise ConfigError("num_cells * repetitions exceeds the 32-bit cell id width")
        if self.metric not in _METRIC_KIND:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if _METRIC_KIND[self.metric] != self.hash_spec.kind:
            raise ConfigError(
                f"metric {self.metric!r} requires a {_METRIC_KIND[self.metric]!r} "
                f"hash family, got {self.hash_spec.kind!r}"
            )

    @property
    def total_cells(self):
        return self.num_cells * self.repetitions

    @property
    def cell_dtype(self):
        # short cell ids whenever they fit
        return np.uint16 if self.total_cells < (1 << 16) else np.uint32


class QueryScratch:
    """Accepted by query_topk, query_topk_codes and cell_counts for compatibility; they ignore it."""

    def __init__(self, index):
        pass


def _ragged(values, starts, stops):
    """values[starts[i]:stops[i]] for each i, concatenated in that order."""
    # int64: a uint32 cumsum is uint64, and uint64 with int64 gives float64
    starts = starts.astype(np.int64)
    sizes = stops - starts
    # slot j of row i's run reads values[starts[i] + j]
    shift = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    return values[np.arange(shift.size) + shift]


def _run_starts(values):
    """Bool mask of the first entry of each run of equal values in a non-empty array."""
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _check_membership(cell_offsets, cell_members, B, R, n):
    """Raise FormatError unless each repetition holds every point in [0, n) once,
    with ids ascending within each cell."""
    if (cell_offsets[: B * R : B] != np.arange(R) * n).any():
        raise FormatError("a repetition does not hold exactly n_points members")
    if cell_members.max() >= n:
        raise FormatError("cell membership references an out-of-range point")
    # R * n keys below R * n: all present means each exactly once
    keys = np.repeat(np.arange(R, dtype=np.int64) * n, n) + cell_members
    if not np.bincount(keys, minlength=R * n).all():
        raise FormatError("a point occurs twice in one repetition")
    cell_start = np.zeros(cell_members.size + 1, dtype=bool)
    cell_start[cell_offsets] = True
    if ((cell_members[1:] <= cell_members[:-1]) & ~cell_start[1:-1]).any():
        raise FormatError("cell member ids are not ascending")


class FlinngIndex:
    """Immutable cell memberships plus m reverse tables from codes to cells.

    The m * 2**l_bits buckets of the reverse tables are numbered table by
    table, and bit b of ``bucket_bits`` marks bucket b non-empty. Only the
    non-empty buckets have offsets: bucket b holds
    ``table_payload[bucket_offsets[rank(b)] : bucket_offsets[rank(b + 1)]]``,
    where rank(x), the set bits before bit x, is ``bucket_ranks[x >> 6]`` plus
    those below x in its word. An empty bucket has rank(b + 1) = rank(b).
    The rank directory ``bucket_ranks`` and the hash ``family`` are derived,
    not stored; a family passed to the constructor or ``from_codes`` must be
    built for ``config.hash_spec``, and is kept.
    """

    def __init__(self, config, n_points, cell_offsets, cell_members, table_offsets, table_payload, family=None):
        """An index from dense bucket offsets: bucket b spans table_offsets[b] .. table_offsets[b + 1]."""
        _check_family(family, config)
        table_offsets = np.asarray(table_offsets, dtype=np.uint32)
        nonempty = np.flatnonzero(np.diff(table_offsets))
        flags = np.zeros(_bucket_words(table_offsets.size - 1) * 64, dtype=bool)
        flags[nonempty] = True
        self._set(config, n_points, cell_offsets, cell_members, _bucket_bitmap(flags),
                  np.append(table_offsets[nonempty], table_offsets[-1]), table_payload)
        if family is not None:
            self.family = family

    @classmethod
    def _from_parts(cls, *parts):
        """An index from its stored parts (the arguments of ``_set``), with no dense offsets."""
        index = cls.__new__(cls)
        index._set(*parts)
        return index

    def _set(self, config, n_points, cell_offsets, cell_members, bucket_bits, bucket_offsets, table_payload):
        self.config = config
        self.n_points = n_points
        self.cell_offsets = cell_offsets  # (B*R + 1,) uint32, last entry R * N
        self.cell_members = cell_members  # (R * N,) uint32, ascending ids per cell
        self.bucket_bits = bucket_bits  # (m * 2**l_bits // 64 + 1,) uint64, bit b set: bucket b non-empty
        self.bucket_ranks = _word_ranks(bucket_bits)  # int64 per word, set bits in the words before it
        self.bucket_offsets = bucket_offsets  # (non-empty buckets + 1,) uint32, last entry payload length
        self.table_payload = table_payload  # uint16/uint32 cell ids, dedup per bucket
        spec = config.hash_spec
        # row 0: the first bucket of each table; row 1: the bucket after it
        self._table_base = (np.arange(spec.m, dtype=np.int64) << spec.l_bits) + np.array([[0], [1]])

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, points, config: FlinngConfig):
        """Hash and partition a homogeneous point list. Deterministic per (points, config)."""
        n = len(points)
        if n < 1:
            raise InputError("cannot build an index over zero points")
        if config.num_cells > n:
            warnings.warn(
                f"num_cells={config.num_cells} exceeds n_points={n}; some cells stay empty",
                stacklevel=2,
            )
        family = lsh.build_family(config.hash_spec)
        if config.metric == METRIC_JACCARD:
            codes = lsh.hash_set_many(family, points)
        else:
            codes = lsh.hash_dense_many(family, points)
        return cls.from_codes(codes, config, family=family)

    @classmethod
    def from_codes(cls, codes, config: FlinngConfig, family=None):
        """Assemble the grid and reverse tables from a precomputed (n, m) code matrix."""
        _check_family(family, config)
        spec = config.hash_spec
        codes = lsh._code_array(codes, spec.m, spec.l_bits, matrix=True)
        n, m = codes.shape
        if n < 1:
            raise InputError("cannot build an index over zero points")
        B, R = config.num_cells, config.repetitions
        if R * n >= OFFSET_LIMIT:
            raise InputError(f"repetitions * n_points = {R * n} does not fit the 32-bit cell offsets")

        total = config.total_cells
        # repetition r: permute, then position i lands in cell i mod B
        cells_of = np.empty((R, n), dtype=np.int64)
        positions = np.arange(n, dtype=np.int64)
        for r in range(R):
            perm = permutation(derive(spec.seed, TAG_PERMUTATION + r), n)
            cells_of[r, perm] = r * B + (positions % B)

        flat_cells = cells_of.reshape(R * n)
        order = np.argsort(flat_cells, kind="stable")  # ascending ids within a cell
        cell_members = np.tile(np.arange(n, dtype=np.uint32), R)[order]
        # cell and bucket sizes go into the offsets arrays themselves, then one cumsum in place
        cell_offsets = np.zeros(total + 1, dtype=np.uint32)
        cell_offsets[1:] = np.bincount(flat_cells, minlength=total)
        np.cumsum(cell_offsets, out=cell_offsets)

        table_size = 1 << spec.l_bits
        flags = np.zeros(_bucket_words(m * table_size) * 64, dtype=bool)  # bit b: bucket b is non-empty
        payloads, starts = [], []
        payload_len = 0
        cells_t = cells_of.T  # (n, R)
        for i in range(m):
            # unique (bucket, cell) pairs for table i, sorted by bucket then cell
            composite = (codes[:, i].astype(np.int64) * total)[:, None] + cells_t
            keys = np.sort(composite, axis=None)
            uniq = keys[_run_starts(keys)]
            if payload_len + uniq.size >= OFFSET_LIMIT:
                raise InputError("the reverse tables outgrow the 32-bit bucket offsets")
            payloads.append((uniq % total).astype(config.cell_dtype))
            buckets = np.floor_divide(uniq, total, out=uniq)  # in place: uniq is not read again
            first = np.flatnonzero(_run_starts(buckets))  # each non-empty bucket's first pair
            flags[buckets[first] + i * table_size] = True
            starts.append((first + payload_len).astype(np.uint32))
            payload_len += buckets.size
        bucket_offsets = np.concatenate(starts + [np.array([payload_len], dtype=np.uint32)])
        index = cls._from_parts(config, n, cell_offsets, cell_members, _bucket_bitmap(flags), bucket_offsets,
                                np.concatenate(payloads))
        if family is not None:
            index.family = family
        return index

    # -- inspection ---------------------------------------------------------

    def members_of(self, flat_cell):
        """Point ids stored in one flat cell (repetition * num_cells + cell)."""
        return self.cell_members[self.cell_offsets[flat_cell] : self.cell_offsets[flat_cell + 1]]

    @cached_property
    def point_cells(self):
        """(R, n) flat cell of point p in repetition r; derived on first use, not stored.

        Concurrent first queries may each derive the same array, which is harmless."""
        B, n = self.config.num_cells, self.n_points
        cells = np.repeat(np.arange(self.config.total_cells), np.diff(self.cell_offsets))
        out = np.empty(self.cell_members.size, dtype=np.intp)
        out[cells // B * n + self.cell_members] = cells
        return out.reshape(self.config.repetitions, n)

    @cached_property
    def table_offsets(self):
        """Dense (m * 2**l_bits + 1,) uint32 bucket offsets, read-only; derived on first use, not stored.

        Built from a running count of the bitmap, not through the query's rank lookup."""
        spec = self.config.hash_spec
        flags = np.unpackbits(self.bucket_bits.view(np.uint8), bitorder="little")[: spec.m << spec.l_bits]
        before = np.zeros(flags.size + 1, dtype=np.int64)  # non-empty buckets below each bucket
        np.cumsum(flags, out=before[1:])
        dense = self.bucket_offsets[before]
        dense.flags.writeable = False
        return dense

    @cached_property
    def family(self):
        """The hash family of ``config.hash_spec``, built on first use (the first query), not stored."""
        return lsh.build_family(self.config.hash_spec)

    def hash_query(self, point):
        if self.config.metric == METRIC_JACCARD:
            return lsh.hash_set(self.family, point)
        return lsh.hash_dense(self.family, point)

    # -- queries ------------------------------------------------------------

    def _checked(self, query_codes):
        spec = self.config.hash_spec
        return lsh._code_array(query_codes, spec.m, spec.l_bits, "query codes")

    def _gather(self, codes):
        """Collisions per cell (int32, B*R) for one query's m codes, each in [0, 2**l_bits)."""
        b = self._table_base + codes  # the query's buckets, and the buckets after them
        w = b >> 6
        # rank(x): the non-empty buckets before x
        ranks = self.bucket_ranks[w] + np.bitwise_count(self.bucket_bits[w] & _LOW_MASKS[b & 63])
        starts, stops = self.bucket_offsets[ranks]
        hits = _ragged(self.table_payload, starts, stops)
        return np.bincount(hits, minlength=self.config.total_cells).astype(np.int32)

    def cell_counts(self, query_codes, scratch=None):
        """Per-cell collision counts in [0, m] for one query's codes."""
        return self._gather(self._checked(query_codes))

    def query_threshold(self, query, t):
        """Ids passing the count threshold in every repetition (ascending order)."""
        return self._threshold(self.hash_query(query), t)

    def query_threshold_codes(self, query_codes, t):
        return self._threshold(self._checked(query_codes), t)

    def _threshold(self, codes, t):
        t = lsh._count(t, "threshold", high=self.config.hash_spec.m)
        ok = self._gather(codes) >= t
        cand = self._members(np.flatnonzero(ok[: self.config.num_cells]))
        return np.sort(cand[ok[np.take(self.point_cells, cand, axis=1)].all(0)]).astype(np.int64)

    def query_topk(self, query, k, scratch=None):
        """Up to k point ids in emission order (may be shorter when few cells fire)."""
        return self._topk(self.hash_query(query), k)

    def query_topk_codes(self, query_codes, k, scratch=None):
        return self._topk(self._checked(query_codes), k)

    def _members(self, cells):
        """The members of the given cells, concatenated in that order."""
        return _ragged(self.cell_members, self.cell_offsets[cells], self.cell_offsets[cells + 1])

    def _topk(self, codes, k):
        k = lsh._count(k, "k")
        counts = self._gather(codes)
        touched = np.flatnonzero(counts)
        # touched is ascending, so a stable sort breaks count ties by cell id
        order = touched[np.argsort(-counts[touched], kind="stable")]
        rank = np.full(self.config.total_cells, order.size)
        rank[order] = np.arange(order.size)
        cand = self._members(touched[touched < self.config.num_cells])
        last = rank[np.take(self.point_cells, cand, axis=1)].max(0)
        keep = last < order.size
        # emission order is (last cell reached, id): ids ascend within a cell
        key = last[keep] * self.n_points + cand[keep]
        key = np.sort(np.partition(key, k - 1)[:k] if key.size > k else key)
        return key % self.n_points

    # -- serialization ------------------------------------------------------

    def _image_parts(self):
        """The header, then the five arrays in image order as little-endian contiguous arrays."""
        cfg = self.config
        spec = cfg.hash_spec
        width = np.dtype(cfg.cell_dtype).itemsize
        header = _HEADER.pack(MAGIC, VERSION, _KINDS.index(spec.kind), cfg.num_cells, cfg.repetitions, spec.m,
                              spec.l_bits, spec.seed, spec.dim or 0, self.n_points, self.table_payload.shape[0],
                              self.bucket_offsets.shape[0] - 1)
        arrays = [getattr(self, name) for name in IMAGE_PARTS[1:]]
        return [header] + [np.ascontiguousarray(a, dtype=d) for a, d in zip(arrays, _image_dtypes(width))]

    @property
    def nbytes(self):
        """Size of the ``to_bytes`` image: the header plus every array."""
        return sum(memoryview(part).nbytes for part in self._image_parts())

    def to_bytes(self) -> bytes:
        """Little-endian byte image; layout documented in the README."""
        return b"".join(self._image_parts())

    @classmethod
    def from_bytes(cls, buf: bytes):
        """Check an image and view its arrays, read-only, in one private copy of ``buf``."""
        if len(buf) < _HEADER.size:
            raise FormatError("index image truncated before the header")
        (magic, version, kind_i, B, R, m, l_bits, seed, dim, n_points, payload_len,
         nonempty) = _HEADER.unpack_from(buf, 0)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"unsupported index version {version}")
        if kind_i >= len(_KINDS):
            raise FormatError("corrupt header fields")
        kind = _KINDS[kind_i]
        try:
            spec = lsh.HashFamilySpec(kind, m, l_bits, seed, dim if kind == lsh.KIND_SRP else None)
            config = FlinngConfig(B, R, spec, _KIND_METRIC[kind])
        except ConfigError as exc:
            raise FormatError(f"corrupt header fields: {exc}") from exc
        # the reserved bytes, and a minhash image's dim, are zeros: one index has one image
        if _HEADER.pack(MAGIC, VERSION, kind_i, B, R, m, l_bits, seed, spec.dim or 0, n_points, payload_len,
                        nonempty) != bytes(buf[: _HEADER.size]):
            raise FormatError("nonzero reserved header bytes, or a dim in a minhash header")
        if n_points < 1:
            raise FormatError("the header holds zero points")
        if R * n_points >= OFFSET_LIMIT or payload_len >= OFFSET_LIMIT:
            raise FormatError("R * n_points or the payload length does not fit the 32-bit offsets")
        total = B * R
        n_buckets = m << l_bits
        words = _bucket_words(n_buckets)
        dtypes = _image_dtypes(np.dtype(config.cell_dtype).itemsize)
        counts = (words, nonempty + 1, total + 1, R * n_points, payload_len)
        # Python ints: a corrupt n_points cannot overflow the expected size
        expected = _HEADER.size + sum(c * d.itemsize for c, d in zip(counts, dtypes))
        if len(buf) != expected:
            raise FormatError(f"index image is {len(buf)} bytes, expected {expected}")
        buf = bytes(buf)  # copies only a mutable buffer, which its owner could rewrite later
        arrays = []
        off = _HEADER.size
        for count, dtype in zip(counts, dtypes):
            arrays.append(np.frombuffer(buf, dtype, count, off))
            off += count * dtype.itemsize
        bucket_bits, bucket_offsets, cell_offsets, cell_members, table_payload = arrays
        if bucket_bits[-1] >> (n_buckets & 63):
            raise FormatError("the bucket bitmap has bits past the last bucket")
        if int(np.bitwise_count(bucket_bits).sum()) != nonempty:
            raise FormatError(f"the bucket bitmap does not mark the header's {nonempty} non-empty buckets")
        # every listed bucket is non-empty, so its offsets strictly increase
        if (bucket_offsets[0] != 0 or bucket_offsets[-1] != payload_len
                or (bucket_offsets[1:] <= bucket_offsets[:-1]).any()):
            raise FormatError("corrupt reverse-table offsets")
        if (cell_offsets[0] != 0 or cell_offsets[-1] != R * n_points
                or (cell_offsets[1:] < cell_offsets[:-1]).any()):
            raise FormatError("corrupt membership offsets")
        if payload_len and table_payload.max() >= total:
            raise FormatError("reverse-table payload references an out-of-range cell")
        _check_membership(cell_offsets, cell_members, B, R, n_points)
        return cls._from_parts(config, n_points, cell_offsets, cell_members, bucket_bits, bucket_offsets,
                               table_payload)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.writelines(self._image_parts())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
