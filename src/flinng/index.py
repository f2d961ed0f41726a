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
Indexes are immutable after build and safe for concurrent queries, one
QueryScratch per thread.
"""

import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels, lsh
from ._prng import TAG_PERMUTATION, derive, permutation
from .errors import ConfigError, FormatError, InputError

METRIC_JACCARD = "jaccard"
METRIC_COSINE = "cosine"

_METRIC_KIND = {METRIC_JACCARD: lsh.KIND_MINHASH, METRIC_COSINE: lsh.KIND_SRP}

MAGIC = b"FLNG"
VERSION = 1
_HEADER = struct.Struct("<4sIBBBBIIIIQIIQQ")
_KINDS = (lsh.KIND_MINHASH, lsh.KIND_SRP)
_METRICS = (METRIC_JACCARD, METRIC_COSINE)

MAX_REPETITIONS = 255


@dataclass(frozen=True)
class FlinngConfig:
    """Grid shape (num_cells x repetitions), hash family spec, and metric."""

    num_cells: int
    repetitions: int
    hash_spec: lsh.HashFamilySpec
    metric: str

    def validate(self):
        lsh._validate_spec(self.hash_spec)
        if self.num_cells < 2:
            raise ConfigError(f"num_cells must be >= 2, got {self.num_cells}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.repetitions > MAX_REPETITIONS:
            raise ConfigError(f"repetitions capped at {MAX_REPETITIONS}")
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
    """Reusable per-thread query buffers; every query re-zeroes what it touched."""

    def __init__(self, index):
        self.cell_counts = np.zeros(index.config.total_cells, dtype=np.int32)
        self.touched = np.empty(index.config.total_cells, dtype=np.int64)

    def assert_clean(self):
        """Debug sweep: verify every scratch slot was reset after the last query."""
        assert not self.cell_counts.any(), "cell counts were not reset"


def _check_membership(cell_offsets, cell_members, B, R, n):
    """Raise FormatError unless each repetition holds every point in [0, n) once,
    with ids ascending within each cell."""
    if (cell_offsets[: B * R : B] != np.arange(R) * n).any():
        raise FormatError("a repetition does not hold exactly n_points members")
    if cell_members.size == 0:
        return
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
    """Immutable cell memberships plus m reverse tables from codes to cells."""

    def __init__(self, config, n_points, cell_offsets, cell_members, table_offsets, table_payload, family):
        self.config = config
        self.n_points = n_points
        self.cell_offsets = cell_offsets  # (B*R + 1,) int64
        self.cell_members = cell_members  # (R * N,) uint32, ascending ids per cell
        self.table_offsets = table_offsets  # (m * 2**l_bits + 1,) int64
        self.table_payload = table_payload  # uint16/uint32 cell ids, dedup per bucket
        self.family = family

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, points, config: FlinngConfig):
        """Hash and partition a homogeneous point list. Deterministic per (points, config)."""
        config.validate()
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
            mat = np.asarray(points, dtype=np.float64)
            if mat.ndim != 2:
                raise InputError("cosine metric expects a homogeneous (n, dim) matrix")
            codes = lsh.hash_dense_many(family, mat)
        return cls.from_codes(codes, config, family=family)

    @classmethod
    def from_codes(cls, codes, config: FlinngConfig, family=None):
        """Assemble the grid and reverse tables from a precomputed (n, m) code matrix."""
        config.validate()
        codes = np.ascontiguousarray(codes, dtype=np.uint32)
        n, m = codes.shape
        spec = config.hash_spec
        if m != spec.m:
            raise InputError(f"code matrix has m={m}, spec expects {spec.m}")
        if (codes >= np.uint32(1 << spec.l_bits)).any():
            raise InputError(f"codes must lie in [0, 2**{spec.l_bits})")
        if family is None:
            family = lsh.build_family(spec)

        B, R = config.num_cells, config.repetitions
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
        sizes = np.bincount(flat_cells, minlength=total)
        cell_offsets = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(sizes, out=cell_offsets[1:])

        table_size = 1 << spec.l_bits
        bucket_sizes = []
        payloads = []
        cells_t = cells_of.T  # (n, R)
        for i in range(m):
            # unique (bucket, cell) pairs for table i, sorted by bucket then cell
            composite = (codes[:, i].astype(np.int64) * total)[:, None] + cells_t
            uniq = np.unique(composite.ravel())
            buckets = uniq // total
            payloads.append((uniq % total).astype(config.cell_dtype))
            bucket_sizes.append(np.bincount(buckets, minlength=table_size))
        table_offsets = np.zeros(m * table_size + 1, dtype=np.int64)
        np.cumsum(np.concatenate(bucket_sizes), out=table_offsets[1:])
        table_payload = np.concatenate(payloads)

        return cls(config, n, cell_offsets, cell_members, table_offsets, table_payload, family)

    # -- inspection ---------------------------------------------------------

    def members_of(self, flat_cell):
        """Point ids stored in one flat cell (repetition * num_cells + cell)."""
        return self.cell_members[self.cell_offsets[flat_cell] : self.cell_offsets[flat_cell + 1]]

    def _members(self, cells):
        """Point ids stored in an array of flat cells, concatenated in that order."""
        starts = self.cell_offsets[cells]
        sizes = self.cell_offsets[cells + 1] - starts
        # slot j of cell i's run reads cell_members[starts[i] + j]
        shift = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        return self.cell_members[np.arange(shift.size) + shift]

    @cached_property
    def point_cells(self):
        """(R, n) flat cell of point p in repetition r; derived on first use, not stored.

        Concurrent first queries may each derive the same array, which is harmless."""
        B, n = self.config.num_cells, self.n_points
        cells = np.repeat(np.arange(self.config.total_cells), np.diff(self.cell_offsets))
        out = np.empty(self.cell_members.size, dtype=np.intp)
        out[cells // B * n + self.cell_members] = cells
        return out.reshape(self.config.repetitions, n)

    def hash_query(self, point):
        if self.config.metric == METRIC_JACCARD:
            return lsh.hash_set(self.family, point)
        return lsh.hash_dense(self.family, point)

    # -- queries ------------------------------------------------------------

    def _gather(self, query_codes, scratch):
        """Validate one query's codes and scratch, then count collisions per cell.

        Returns the scratch and its touched cells, whose counts are left in
        ``scratch.cell_counts``; the caller resets them.
        """
        if scratch is None:
            scratch = QueryScratch(self)
        else:
            total = (self.config.total_cells,)
            if (scratch.cell_counts.shape, scratch.touched.shape) != (total, total):
                raise InputError("scratch was sized for a different index")
        spec = self.config.hash_spec
        codes = np.asarray(query_codes)
        if codes.dtype.kind not in "iu":
            raise InputError(f"query codes must be integers, got dtype {codes.dtype}")
        if codes.shape != (spec.m,):
            raise InputError(f"expected {spec.m} query codes")
        if codes.min() < 0 or codes.max() >= 1 << spec.l_bits:
            raise InputError(f"query codes must lie in [0, 2**{spec.l_bits})")
        codes = np.ascontiguousarray(codes, dtype=np.uint32)
        n_touched = _kernels.gather_counts(
            self.table_offsets, self.table_payload, codes, 1 << spec.l_bits,
            scratch.cell_counts, scratch.touched,
        )
        return scratch, scratch.touched[:n_touched]

    def cell_counts(self, query_codes, scratch=None):
        """Per-cell collision counts in [0, m] for one query's codes."""
        scratch, touched = self._gather(query_codes, scratch)
        out = scratch.cell_counts.copy()
        scratch.cell_counts[touched] = 0
        return out

    def query_threshold(self, query, t, scratch=None):
        """Ids passing the count threshold in every repetition (ascending order)."""
        return self.query_threshold_codes(self.hash_query(query), t, scratch)

    def query_threshold_codes(self, query_codes, t, scratch=None):
        m = self.config.hash_spec.m
        if not (0 < t <= m):
            raise InputError(f"threshold must satisfy 0 < t <= {m}, got {t}")
        scratch, touched = self._gather(query_codes, scratch)
        ok = scratch.cell_counts >= t
        scratch.cell_counts[touched] = 0
        cand = self._members(np.flatnonzero(ok[: self.config.num_cells]))
        return np.sort(cand[ok[np.take(self.point_cells, cand, axis=1)].all(0)]).astype(np.int64)

    def query_topk(self, query, k, scratch=None):
        """Up to k point ids in emission order (may be shorter when few cells fire)."""
        return self.query_topk_codes_trace(self.hash_query(query), k, scratch)[0]

    def query_topk_codes(self, query_codes, k, scratch=None):
        return self.query_topk_codes_trace(query_codes, k, scratch)[0]

    def query_topk_codes_trace(self, query_codes, k, scratch=None):
        """Top-k ids plus, per emission, the collision count of the emitting cell."""
        if k < 1:
            raise InputError(f"k must be >= 1, got {k}")
        scratch, touched = self._gather(query_codes, scratch)
        counts = scratch.cell_counts
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
        out_counts = counts[order[key // self.n_points]]
        counts[touched] = 0
        return key % self.n_points, out_counts

    # -- serialization ------------------------------------------------------

    @property
    def nbytes(self):
        """Size of the ``to_bytes`` image: the header plus every array."""
        arrays = (self.cell_offsets, self.cell_members, self.table_offsets, self.table_payload)
        return _HEADER.size + sum(a.nbytes for a in arrays)

    def to_bytes(self) -> bytes:
        """Little-endian byte image; layout documented in the README."""
        cfg = self.config
        spec = cfg.hash_spec
        width = np.dtype(cfg.cell_dtype).itemsize
        header = _HEADER.pack(
            MAGIC,
            VERSION,
            _KINDS.index(spec.kind),
            _METRICS.index(cfg.metric),
            width,
            0,
            cfg.num_cells,
            cfg.repetitions,
            spec.m,
            spec.l_bits,
            spec.seed,
            spec.dim or 0,
            0,
            self.n_points,
            self.table_payload.shape[0],
        )
        parts = [
            header,
            self.cell_offsets.astype("<i8").tobytes(),
            self.cell_members.astype("<u4").tobytes(),
            self.table_offsets.astype("<i8").tobytes(),
            self.table_payload.astype(f"<u{width}").tobytes(),
        ]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buf: bytes):
        if len(buf) < _HEADER.size:
            raise FormatError("index image truncated before the header")
        (magic, version, kind_i, metric_i, width, _r0, B, R, m, l_bits, seed, dim, _r1,
         n_points, payload_len) = _HEADER.unpack_from(buf, 0)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"unsupported index version {version}")
        if kind_i >= len(_KINDS) or metric_i >= len(_METRICS):
            raise FormatError("corrupt header fields")
        spec = lsh.HashFamilySpec(
            kind=_KINDS[kind_i], m=m, l_bits=l_bits, seed=seed,
            dim=dim if _KINDS[kind_i] == lsh.KIND_SRP else None,
        )
        config = FlinngConfig(num_cells=B, repetitions=R, hash_spec=spec, metric=_METRICS[metric_i])
        try:
            config.validate()
        except ConfigError as exc:
            raise FormatError(f"corrupt header fields: {exc}") from exc
        if width != np.dtype(config.cell_dtype).itemsize:
            raise FormatError(f"cell id width {width} does not match a grid of {B * R} cells")
        total = B * R
        table_size = 1 << l_bits
        sizes = [
            (total + 1) * 8,
            R * n_points * 4,
            (m * table_size + 1) * 8,
            payload_len * width,
        ]
        if len(buf) != _HEADER.size + sum(sizes):
            raise FormatError(
                f"index image is {len(buf)} bytes, expected {_HEADER.size + sum(sizes)}"
            )
        off = _HEADER.size
        cell_offsets = np.frombuffer(buf[off : off + sizes[0]], dtype="<i8").astype(np.int64)
        off += sizes[0]
        cell_members = np.frombuffer(buf[off : off + sizes[1]], dtype="<u4").astype(np.uint32)
        off += sizes[1]
        table_offsets = np.frombuffer(buf[off : off + sizes[2]], dtype="<i8").astype(np.int64)
        off += sizes[2]
        table_payload = np.frombuffer(buf[off:], dtype=f"<u{width}").astype(config.cell_dtype)
        if cell_offsets[0] != 0 or cell_offsets[-1] != R * n_points or (np.diff(cell_offsets) < 0).any():
            raise FormatError("corrupt membership offsets")
        if table_offsets[0] != 0 or table_offsets[-1] != payload_len or (np.diff(table_offsets) < 0).any():
            raise FormatError("corrupt reverse-table offsets")
        if payload_len and (table_payload.astype(np.int64) >= total).any():
            raise FormatError("reverse-table payload references an out-of-range cell")
        _check_membership(cell_offsets, cell_members, B, R, n_points)
        family = lsh.build_family(spec)
        return cls(config, n_points, cell_offsets, cell_members, table_offsets, table_payload, family)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
