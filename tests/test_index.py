import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flinng import index as index_module
from flinng.errors import ConfigError, FormatError, InputError
from flinng.index import FlinngConfig, FlinngIndex, QueryScratch
from flinng.lsh import HashFamilySpec, build_family, hash_dense_many, hash_set_many
from tests.conftest import random_token_points, small_index


def config(B, R, m=8, l_bits=8, seed=0, metric="jaccard", dim=None):
    kind = "minhash" if metric == "jaccard" else "srp"
    return FlinngConfig(
        num_cells=B,
        repetitions=R,
        hash_spec=HashFamilySpec(kind, m=m, l_bits=l_bits, seed=seed, dim=dim),
        metric=metric,
    )


def codes_index(codes, B, R, **kw):
    return FlinngIndex.from_codes(np.asarray(codes, dtype=np.uint32), config(B, R, **kw))


def rep_cells(index, r):
    B = index.config.num_cells
    return [set(index.members_of(r * B + b).tolist()) for b in range(B)]


def brute_threshold(index, counts, t):
    """Independent decode: union passing cells per repetition, intersect across."""
    result = set(range(index.n_points))
    B, R = index.config.num_cells, index.config.repetitions
    for r in range(R):
        fired = set()
        for b in range(B):
            if counts[r * B + b] >= t:
                fired |= set(index.members_of(r * B + b).tolist())
        result &= fired
    return result


# -- construction ------------------------------------------------------------


def test_even_partition_six_points():
    idx = codes_index(np.zeros((6, 8)), B=3, R=2)
    for r in range(2):
        cells = rep_cells(idx, r)
        assert all(len(c) == 2 for c in cells)
        assert set().union(*cells) == set(range(6))


def test_uneven_partition_seven_points():
    idx = codes_index(np.zeros((7, 8)), B=3, R=2)
    for r in range(2):
        sizes = sorted(len(c) for c in rep_cells(idx, r))
        assert sizes == [2, 2, 3]


def test_balanced_partitions_random_shapes():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 200))
        B = int(rng.integers(2, 20))
        R = int(rng.integers(1, 5))
        idx = codes_index(np.zeros((n, 4)), B=B, R=R, m=4)
        for r in range(R):
            cells = rep_cells(idx, r)
            union = set().union(*cells)
            assert union == set(range(n))
            assert sum(len(c) for c in cells) == n  # disjoint + complete
            assert max(len(c) for c in cells) - min(len(c) for c in cells) <= 1


def test_build_deterministic_byte_identical(token_corpus_50):
    points, idx = token_corpus_50
    spec = idx.config.hash_spec
    cfg = FlinngConfig(8, 3, spec, "jaccard")
    again = FlinngIndex.build(points, cfg)
    assert idx.to_bytes() == again.to_bytes()


def test_config_validation():
    with pytest.raises(ConfigError):
        config(B=1, R=2)
    with pytest.raises(ConfigError):
        config(B=4, R=0)
    with pytest.raises(ConfigError):
        config(B=4, R=300)
    with pytest.raises(ConfigError):
        FlinngConfig(4, 2, HashFamilySpec("minhash", 4, 8, 0), "cosine")
    with pytest.raises(ConfigError):
        FlinngConfig(1 << 20, 1 << 13, HashFamilySpec("minhash", 4, 8, 0), "jaccard")
    with pytest.raises(ConfigError, match="HashFamilySpec"):
        FlinngConfig(4, 2, ("minhash", 4, 8, 0), "jaccard")


@pytest.mark.parametrize(
    "B, R, fields",
    [
        (16, 2, dict(kind="minhash", m=8.0, l_bits=8, seed=0)),
        (16, 2, dict(kind="minhash", m=8, l_bits=8.5, seed=0)),
        (16, 2, dict(kind="minhash", m=8, l_bits=8, seed=1.5)),
        (16, 2, dict(kind="srp", m=8, l_bits=8, seed=0, dim=4.0)),
        (16.5, 2, dict(kind="minhash", m=8, l_bits=8, seed=0)),
        (16, 2.5, dict(kind="minhash", m=8, l_bits=8, seed=0)),
    ],
    ids=["m", "l_bits", "seed", "dim", "num_cells", "repetitions"],
)
def test_non_integer_config_sizes_rejected(B, R, fields):
    # unchecked, m = 8.0 builds and answers but cannot be saved, and the others raise a bare TypeError
    metric = "cosine" if fields["kind"] == "srp" else "jaccard"
    with pytest.raises(ConfigError, match="must be an integer"):
        FlinngConfig(B, R, HashFamilySpec(**fields), metric)


def test_numpy_integer_config_sizes_accepted():
    # held as given, R = uint8(3) times 100 points wrapped to 44 and the build raised numpy's ValueError
    points = random_token_points(100, 30, seed=5)
    spec = HashFamilySpec("minhash", m=np.uint8(8), l_bits=np.uint8(8), seed=np.uint64(3))
    cfg = FlinngConfig(np.uint16(8), np.uint8(3), spec, "jaccard")
    fields = (cfg.num_cells, cfg.repetitions, spec.m, spec.l_bits, spec.seed)
    assert [type(v) for v in fields] == [int] * 5
    as_ints = FlinngConfig(8, 3, HashFamilySpec("minhash", m=8, l_bits=8, seed=3), "jaccard")
    assert cfg == as_ints
    assert FlinngIndex.build(points, cfg).to_bytes() == FlinngIndex.build(points, as_ints).to_bytes()
    # held as given, uint16(300) * uint8(255) wrapped to 10964 cells
    assert FlinngConfig(np.uint16(300), np.uint8(255), spec, "jaccard").total_cells == 76500


@pytest.mark.parametrize("change", [{"seed": 5}, {"l_bits": 10}, {"m": 9}], ids=["seed", "l_bits", "m"])
def test_family_for_another_spec_rejected(change):
    # unchecked, another seed finds no point itself, l_bits 10 runs past the bitmap, and m 9 mis-shapes the codes
    points = random_token_points(50, 40, seed=2)
    cfg = config(8, 3, m=8, l_bits=8, seed=4)
    idx = FlinngIndex.build(points, cfg)
    other = build_family(dataclasses.replace(cfg.hash_spec, **change))
    codes = hash_set_many(idx.family, points)
    with pytest.raises(ConfigError, match="hash family"):
        FlinngIndex.from_codes(codes, cfg, family=other)
    with pytest.raises(ConfigError, match="hash family"):
        FlinngIndex(cfg, idx.n_points, idx.cell_offsets, idx.cell_members, idx.table_offsets, idx.table_payload,
                    other)
    assert FlinngIndex.from_codes(codes, cfg, family=idx.family).family is idx.family


def test_build_warns_when_cells_exceed_points():
    points = random_token_points(4, 10, seed=1)
    with pytest.warns(UserWarning, match="stay empty"):
        FlinngIndex.build(points, config(B=8, R=2))


def test_build_rejects_kind_mismatch():
    with pytest.raises(InputError):
        FlinngIndex.build(np.ones((4, 3)), config(B=2, R=1))


def test_ragged_vectors_rejected():
    ragged = [[1.0, 2.0], [1.0]]
    cfg = config(B=2, R=1, metric="cosine", dim=2)
    with pytest.raises(InputError, match="regular array"):
        hash_dense_many(build_family(cfg.hash_spec), ragged)
    with pytest.raises(InputError, match="regular array"):
        FlinngIndex.build(ragged, cfg)


@pytest.mark.parametrize(
    "codes",
    [np.full((20, 8), 2.7), np.full((20, 8), "1"), np.zeros(8, dtype=np.uint32), np.zeros((0, 8), dtype=np.uint32)],
    ids=["float", "strings", "1-d", "zero-points"],
)
def test_bad_code_matrix_rejected(codes):
    # unchecked, 2.7 is truncated to 2, "1" is parsed as 1 and zero points build an empty index
    with pytest.raises(InputError):
        FlinngIndex.from_codes(codes, config(B=3, R=2))


def test_cell_id_width_follows_grid_size():
    assert config(B=100, R=2).cell_dtype == np.uint16
    assert config(B=40000, R=2).cell_dtype == np.uint32


# -- cell counts -------------------------------------------------------------


def test_exact_match_counts_full(token_corpus_50):
    points, idx = token_corpus_50
    m = idx.config.hash_spec.m
    codes = idx.hash_query(points[7])
    counts = idx.cell_counts(codes)
    mine = [c for c in range(idx.config.total_cells) if 7 in idx.members_of(c)]
    assert len(mine) == idx.config.repetitions
    assert all(counts[c] == m for c in mine)


def test_no_collisions_counts_zero():
    idx = codes_index([[1, 2, 3, 4, 5, 6, 7, 8]], B=2, R=2)
    counts = idx.cell_counts(np.array([9, 10, 11, 12, 13, 14, 15, 16], dtype=np.uint32))
    assert not counts.any()


def test_partial_code_overlap_counts_exactly():
    stored = np.array([[1, 2, 3, 4, 5, 6, 7, 8]], dtype=np.uint32)
    idx = codes_index(stored, B=2, R=2)
    query = np.array([1, 2, 3, 14, 15, 16, 17, 18], dtype=np.uint32)  # 3 shared codes
    counts = idx.cell_counts(query)
    mine = [c for c in range(4) if 0 in idx.members_of(c)]
    assert all(counts[c] == 3 for c in mine)
    others = [c for c in range(4) if c not in mine]
    assert all(counts[c] == 0 for c in others)


def test_reverse_tables_match_member_codes(token_corpus_50):
    # reconstruct each cell's code set from the tables and compare to rehashing
    points, idx = token_corpus_50
    m = idx.config.hash_spec.m
    table_size = 1 << idx.config.hash_spec.l_bits
    codes = hash_set_many(idx.family, points)
    for i in range(m):
        base = i * table_size
        for bucket in range(table_size):
            cells = idx.table_payload[idx.table_offsets[base + bucket] : idx.table_offsets[base + bucket + 1]]
            expect = {
                c
                for c in range(idx.config.total_cells)
                if np.any(codes[idx.members_of(c), i] == bucket)
            }
            assert set(cells.tolist()) == expect


# -- threshold query ----------------------------------------------------------


def test_threshold_rejects_bad_t(token_corpus_50):
    points, idx = token_corpus_50
    with pytest.raises(InputError):
        idx.query_threshold(points[0], 0)
    with pytest.raises(InputError):
        idx.query_threshold(points[0], idx.config.hash_spec.m + 1)


def test_threshold_exact_match_survives(token_corpus_50):
    points, idx = token_corpus_50
    result = idx.query_threshold(points[3], idx.config.hash_spec.m)
    assert 3 in result


def test_threshold_handcrafted_two_rep_fixture():
    # want memberships where M_{1,2} = {a, b}, a in M_{0,0}, b in M_{0,1}:
    # then codes give rep-0 passes {0, 1}, rep-1 passes {2}, and the
    # decode (M00 | M01) & M12 must equal {a, b}
    n, B, R, m = 8, 4, 2, 8
    found = None
    for seed in range(200):
        idx = codes_index(np.zeros((n, m)), B=B, R=R, m=m, seed=seed)
        m12 = sorted(idx.members_of(B + 2).tolist())
        if len(m12) != 2:
            continue
        a, b = m12
        in0 = set(idx.members_of(0).tolist())
        in1 = set(idx.members_of(1).tolist())
        if (a in in0 and b in in1) or (b in in0 and a in in1):
            if a not in in0:
                a, b = b, a
            found = (seed, a, b)
            break
    assert found, "no seed produced the target membership layout"
    seed, a, b = found
    query = np.arange(1000, 1000 + m, dtype=np.uint32)
    codes = (np.arange(n, dtype=np.uint32)[:, None] * m + np.arange(m)[None, :] + 1).astype(np.uint32)
    codes[a, 0:2] = query[0:2]  # a fires tables 0-1 for cells M00 and M12
    codes[b, 2:4] = query[2:4]  # b fires tables 2-3 for cells M01 and M12
    idx = codes_index(codes % 256, B=B, R=R, m=m, seed=seed)
    counts = idx.cell_counts(query % 256)
    m00 = set(idx.members_of(0).tolist())
    m01 = set(idx.members_of(1).tolist())
    m12 = set(idx.members_of(B + 2).tolist())
    assert counts[0] >= 2 and counts[1] >= 2 and counts[B + 2] >= 4
    result = set(idx.query_threshold_codes(query % 256, t=2).tolist())
    assert result == (m00 | m01) & m12 == {a, b}


def test_threshold_matches_brute_force_random():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(4, 60))
        B = int(rng.integers(2, 8))
        R = int(rng.integers(1, 4))
        m = int(rng.integers(2, 12))
        codes = rng.integers(0, 16, (n, m)).astype(np.uint32)
        idx = codes_index(codes, B=B, R=R, m=m, l_bits=4, seed=int(rng.integers(1000)))
        q = rng.integers(0, 16, m).astype(np.uint32)
        counts = idx.cell_counts(q)
        for t in range(1, m + 1):
            got = set(idx.query_threshold_codes(q, t).tolist())
            assert got == brute_threshold(idx, counts, t)


# -- top-k -------------------------------------------------------------------


def test_topk_exact_match_first(token_corpus_50):
    # pick a target sharing no full cell triple with any other point, so it is
    # the unique point reaching the repetition quota inside the top cells
    points, idx = token_corpus_50
    target = None
    for cand in range(idx.n_points):
        cells = [c for c in range(idx.config.total_cells) if cand in idx.members_of(c)]
        inter = set.intersection(*[set(idx.members_of(c).tolist()) for c in cells])
        if inter == {cand}:
            target = cand
            break
    assert target is not None
    assert idx.query_topk(points[target], 1).tolist() == [target]


def test_topk_full_relaxation_returns_everything():
    # every point's codes collide with the query somewhere: all counts > 0
    n, m = 12, 4
    codes = np.tile(np.array([5, 9, 2, 7], dtype=np.uint32), (n, 1))
    idx = codes_index(codes, B=3, R=2, m=m, l_bits=4)
    got = idx.query_topk_codes(np.array([5, 9, 2, 7], dtype=np.uint32), k=n)
    assert sorted(got.tolist()) == list(range(n))


def test_topk_emission_prefix_equals_threshold_decode():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(4, 64))
        B = int(rng.integers(2, 8))
        R = int(rng.integers(1, 4))
        m = int(rng.integers(2, 10))
        codes = rng.integers(0, 8, (n, m)).astype(np.uint32)
        idx = codes_index(codes, B=B, R=R, m=m, l_bits=3, seed=int(rng.integers(1000)))
        q = rng.integers(0, 8, m).astype(np.uint32)
        ids = idx.query_topk_codes(q, k=n)
        at_counts = idx.cell_counts(q)[idx.point_cells[:, ids]].min(0)  # an id's count where it is emitted
        for t in range(1, m + 1):
            prefix = set(ids[at_counts >= t].tolist())
            assert prefix == set(idx.query_threshold_codes(q, t).tolist())


def test_topk_superset_of_every_threshold(token_corpus_50):
    points, idx = token_corpus_50
    q = points[5]
    everything = set(idx.query_topk(q, idx.n_points).tolist())
    for t in range(1, idx.config.hash_spec.m + 1):
        assert set(idx.query_threshold(q, t).tolist()) <= everything


def test_topk_k_validation(token_corpus_50):
    points, idx = token_corpus_50
    with pytest.raises(InputError):
        idx.query_topk(points[0], 0)


def test_non_integer_k_and_t_rejected(token_corpus_50):
    # unchecked, k = 2.5 reaches np.partition and t = 2.5 acts as 3
    points, idx = token_corpus_50
    q = points[0]
    with pytest.raises(InputError, match="k must be an integer"):
        idx.query_topk(q, 2.5)
    with pytest.raises(InputError, match="threshold must be an integer"):
        idx.query_threshold(q, 2.5)
    assert np.array_equal(idx.query_topk(q, np.int64(3)), idx.query_topk(q, 3))
    assert np.array_equal(idx.query_threshold(q, np.uint8(2)), idx.query_threshold(q, 2))


def test_exact_match_recall_over_seeds():
    hits = 0
    for seed in range(100):
        points, idx = small_index(n=100, B=10, R=2, m=16, l_bits=8, seed=seed)
        target = seed % 100
        got = idx.query_topk(points[target], 10)
        hits += target in got
    assert hits >= 99


def test_scratch_reuse_and_clean(token_corpus_50):
    # queries ignore the scratch: one from this index, reused, or from another
    # grid gives the answers of no scratch at all
    points, idx = token_corpus_50
    t = idx.config.hash_spec.m // 2

    def answers(scratch):
        return ([idx.query_topk(p, 5, scratch).tolist() for p in points[:5]],
                [idx.query_threshold(p, t).tolist() for p in points[:5]],
                [idx.cell_counts(idx.hash_query(p), scratch).tolist() for p in points[:5]])

    fresh = answers(None)
    scratch = QueryScratch(idx)
    assert answers(scratch) == fresh
    assert answers(scratch) == fresh
    assert answers(QueryScratch(codes_index(np.zeros((20, 8)), B=3, R=2))) == fresh


def test_threads_sharing_a_scratch_answer_as_serial(token_corpus_50):
    points, idx = token_corpus_50
    t = idx.config.hash_spec.m // 2
    scratch = QueryScratch(idx)

    def answer(p):
        return idx.query_topk(p, 5, scratch).tolist(), idx.query_threshold(p, t).tolist()

    serial = [answer(p) for p in points]
    with ThreadPoolExecutor(max_workers=4) as pool:
        for _ in range(5):
            assert list(pool.map(answer, points)) == serial


@pytest.mark.parametrize(
    "bad",
    [
        # an unchecked code 2**l_bits reads the next table's bucket (table 3)
        # or runs past the last offset (table 7)
        lambda q: np.where(np.arange(q.size) == 3, 16, q),
        lambda q: np.where(np.arange(q.size) == 7, 16, q),
        # a cast to uint32 truncates floats and overflows on negatives
        lambda q: q + 0.7,
        lambda q: [-1] + q[1:].tolist(),
    ],
    ids=["3", "7", "float", "negative-in-list"],
)
def test_query_code_out_of_range_rejected(bad):
    rng = np.random.default_rng(1)
    idx = codes_index(rng.integers(0, 16, (20, 8)), B=3, R=2, l_bits=4)
    q = bad(rng.integers(0, 16, 8).astype(np.uint32))
    with pytest.raises(InputError, match="query codes"):
        idx.cell_counts(q)
    with pytest.raises(InputError, match="query codes"):
        idx.query_topk_codes(q, 3)
    with pytest.raises(InputError, match="query codes"):
        idx.query_threshold_codes(q, 1)


@pytest.mark.parametrize("tokens", [[1.5, 2.0], [-1, 2], np.array([-1, 2])],
                         ids=["float", "negative-list", "negative-array"])
def test_bad_query_tokens_rejected(token_corpus_50, tokens):
    _, idx = token_corpus_50
    with pytest.raises(InputError):
        idx.query_topk(tokens, 3)
    with pytest.raises(InputError):
        idx.query_threshold(tokens, 1)


def test_candidate_shrinkage_matches_expectation():
    # cells pass independently at rate rho: survivors shrink like n * rho**R
    rng = np.random.default_rng(5)
    n, B, R, rho, trials = 400, 20, 3, 0.3, 300
    idx = codes_index(np.zeros((n, 2)), B=B, R=R, m=2)
    sizes = []
    for _ in range(trials):
        counts = (rng.random(B * R) < rho).astype(np.int64)
        sizes.append(len(brute_threshold(idx, counts, 1)))
    mean = np.mean(sizes)
    expect = n * rho**R
    assert expect / 2 <= mean <= expect * 2, (mean, expect)


# -- serialization -----------------------------------------------------------


def test_roundtrip_preserves_structure(token_corpus_50):
    points, idx = token_corpus_50
    clone = FlinngIndex.from_bytes(idx.to_bytes())
    assert clone.n_points == idx.n_points
    assert np.array_equal(clone.cell_offsets, idx.cell_offsets)
    assert np.array_equal(clone.cell_members, idx.cell_members)
    assert np.array_equal(clone.table_offsets, idx.table_offsets)
    assert np.array_equal(clone.table_payload, idx.table_payload)
    assert clone.to_bytes() == idx.to_bytes()
    assert idx.nbytes == clone.nbytes == len(idx.to_bytes())
    for p in points[:10]:
        assert np.array_equal(clone.query_topk(p, 10), idx.query_topk(p, 10))


def test_dense_offsets_constructor_matches_build(token_corpus_50, srp_corpus_50):
    # the constructor takes dense bucket offsets and stores the same parts as from_codes
    for _, idx in (token_corpus_50, srp_corpus_50):
        again = FlinngIndex(idx.config, idx.n_points, idx.cell_offsets, idx.cell_members, idx.table_offsets,
                            idx.table_payload, idx.family)
        assert again.to_bytes() == idx.to_bytes()
        assert np.array_equal(again.table_offsets, idx.table_offsets)
        assert not idx.table_offsets.flags.writeable


def test_image_arrays_aligned_to_their_item_size(token_corpus_50, srp_corpus_50):
    for _, idx in (token_corpus_50, srp_corpus_50):
        at = 0
        for name, part in zip(index_module.IMAGE_PARTS, idx._image_parts()):
            view = memoryview(part)
            assert at % view.itemsize == 0, name
            at += view.nbytes
        clone = FlinngIndex.from_bytes(idx.to_bytes())
        for name in index_module.IMAGE_PARTS[1:]:
            assert getattr(clone, name).flags.aligned, name


def test_corrupt_magic_rejected(token_corpus_50):
    _, idx = token_corpus_50
    blob = bytearray(idx.to_bytes())
    blob[:4] = b"NOPE"
    with pytest.raises(FormatError, match="magic"):
        FlinngIndex.from_bytes(bytes(blob))


def test_truncation_rejected(token_corpus_50):
    _, idx = token_corpus_50
    blob = idx.to_bytes()
    with pytest.raises(FormatError):
        FlinngIndex.from_bytes(blob[: len(blob) - 7])
    with pytest.raises(FormatError):
        FlinngIndex.from_bytes(blob[:10])


def _image(idx, **arrays):
    fields = {name: getattr(idx, name) for name in
              ("cell_offsets", "cell_members", "table_offsets", "table_payload")}
    fields.update(arrays)
    return FlinngIndex(idx.config, idx.n_points, family=idx.family, **fields).to_bytes()


def _wide_payload_image(idx):
    # a 4-byte payload for a 2-byte grid, with byte 10 (the cell id width up to version 3) set to 4:
    # the width follows the grid, so cell 65536 + c cannot load as cell c
    payload = idx.table_payload.astype("<u4")
    payload[0] += 1 << 16
    blob = bytearray(idx.to_bytes()[: -idx.table_payload.nbytes])
    blob[10] = 4
    return bytes(blob) + payload.tobytes()


def _header_field(idx, offset, value, size=4):
    blob = bytearray(idx.to_bytes())
    blob[offset : offset + size] = value.to_bytes(size, "little")
    return bytes(blob)


def _srp_dim_image(dim):
    # an m = 2, l_bits = 2, dim = 4 srp image whose header asks for another dim
    points = np.random.default_rng(0).standard_normal((20, 4))
    idx = FlinngIndex.build(points, config(4, 2, m=2, l_bits=2, metric="cosine", dim=4))
    return _header_field(idx, 36, dim)


def _edited_image(idx, **edits):
    # the image of idx with each edit applied to a copy of the array part it names
    parts = idx._image_parts()
    for name, edit in edits.items():
        i = index_module.IMAGE_PARTS.index(name)
        parts[i] = parts[i].copy()
        edit(parts[i])
    return b"".join(parts)


def _extra_bucket_image(idx):
    # one more bit in the last word that holds buckets: a bitmap that marks one bucket more
    # than the header and the offsets list
    def add_bit(bits):
        bits[-2] |= ~bits[-2] & (bits[-2] + np.uint64(1))
    return _edited_image(idx, bucket_bits=add_bit)


def _bit_past_last_bucket_image():
    # 3 tables of 16 buckets fill 48 bits of one word: move the highest set bit to bit 48,
    # so the popcount and the offsets still agree
    codes = np.random.default_rng(6).integers(0, 16, (12, 3))
    idx = codes_index(codes, B=3, R=2, m=3, l_bits=4)

    def move(bits):
        top = int(bits[0]).bit_length() - 1
        bits[0] ^= np.uint64((1 << top) | (1 << 48))
    return _edited_image(idx, bucket_bits=move)


def _zero_point_image(idx):
    # a header of n_points = 0 with arrays to match: every offset 0, no members, no payload
    cfg, spec = idx.config, idx.config.hash_spec
    return FlinngIndex(cfg, 0, np.zeros(cfg.total_cells + 1, np.uint32), np.empty(0, np.uint32),
                       np.zeros((spec.m << spec.l_bits) + 1, np.uint32), np.empty(0, cfg.cell_dtype),
                       idx.family).to_bytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda idx: _image(idx, cell_members=np.where(idx.cell_members == 7, 10**6, idx.cell_members)),
        lambda idx: _image(idx, cell_members=np.where(idx.cell_members == 4, 3, idx.cell_members)),
        lambda idx: _image(idx, cell_members=idx.cell_members[np.r_[1, 0, 2 : idx.cell_members.size]]),
        _wide_payload_image,
        lambda idx: _header_field(idx, 16, 0),  # R = 0
        lambda idx: _header_field(idx, 4, 1),  # version 1 had int64 offsets
        lambda idx: _header_field(idx, 4, 2),  # version 2 had dense bucket offsets
        lambda idx: _header_field(idx, 4, 3),  # version 3 stored the bucket ranks
        lambda idx: _srp_dim_image(1 << 23),
        lambda idx: _srp_dim_image((1 << 32) - 1),
        _zero_point_image,
        _extra_bucket_image,
        lambda idx: _bit_past_last_bucket_image(),
        lambda idx: _edited_image(idx, bucket_bits=lambda a: a.__setitem__(-1, 1)),
        lambda idx: _edited_image(idx, bucket_offsets=lambda a: a.__setitem__(2, a[1])),
        lambda idx: _edited_image(idx, bucket_offsets=lambda a: a.__setitem__(0, 1)),
        lambda idx: _edited_image(idx, bucket_offsets=lambda a: a.__setitem__(-1, a[-1] + 1)),
        lambda idx: _header_field(idx, 60, idx.bucket_offsets.size),  # one more non-empty bucket
        lambda idx: _header_field(idx, 60, idx.bucket_offsets.size - 2),
        lambda idx: _header_field(idx, 24, 25),  # l_bits = 25
        lambda idx: _header_field(idx, 20, 0),  # m = 0
        # reserved bytes and a minhash image's dim: each one set would give one index a second image
        lambda idx: _header_field(idx, 9, 1, size=1),
        lambda idx: _header_field(idx, 11, 1, size=1),
        lambda idx: _header_field(idx, 36, 5),
        lambda idx: _header_field(idx, 40, 1, size=1),
        lambda idx: _header_field(idx, 43, 1, size=1),
    ],
    ids=["member-out-of-range", "member-twice", "members-not-ascending", "wide-payload", "zero-repetitions",
         "version-1", "version-2", "version-3", "srp-dim-2^23", "srp-dim-2^32-1", "zero-points",
         "bitmap-past-header-count", "bit-past-last-bucket", "bit-in-sentinel-word", "bucket-offsets-repeat",
         "first-offset-not-0", "last-offset-past-payload", "nonempty-count-high", "nonempty-count-low",
         "l_bits-25", "zero-m", "reserved-byte-9", "reserved-byte-11", "minhash-dim", "reserved-byte-40",
         "reserved-byte-43"],
)
def test_corrupt_image_rejected(token_corpus_50, corrupt):
    _, idx = token_corpus_50
    with pytest.raises(FormatError):
        FlinngIndex.from_bytes(corrupt(idx))


@pytest.mark.parametrize(
    "offset, value",
    [(44, -(-(1 << 32) // 3)), (52, 1 << 32)],  # R = 3: R * n_points = 2^32 + 2, then payload length 2^32
    ids=["R*n_points", "payload-length"],
)
def test_header_past_32_bit_offsets_rejected(token_corpus_50, offset, value):
    _, idx = token_corpus_50
    with pytest.raises(FormatError, match="32-bit offsets"):
        FlinngIndex.from_bytes(_header_field(idx, offset, value, size=8))


def test_point_twice_in_repetition_1_rejected(token_corpus_50):
    # repetition 1 only: the first member of a cell without point 0 becomes 0, so ids still ascend in
    # every cell, the other repetitions are untouched, and only the duplicate check can reject the image
    _, idx = token_corpus_50
    B, members = idx.config.num_cells, idx.cell_members.copy()
    cell = next(c for c in range(B, 2 * B) if idx.members_of(c).size and 0 not in idx.members_of(c))
    members[idx.cell_offsets[cell]] = 0
    with pytest.raises(FormatError, match="twice in one repetition"):
        FlinngIndex.from_bytes(_image(idx, cell_members=members))


def test_header_past_64_bit_topk_keys_rejected():
    # B * R = 2^32 - 1 and R * n_points = 2^31 + 1 fit their 32-bit limits, but (B * R + 1) * n_points
    # = 2^63 + 2^32 does not fit an int64 key; raised from the header, before the size is checked
    header = index_module._HEADER.pack(index_module.MAGIC, index_module.VERSION, 0, (1 << 32) - 1, 1, 1, 1, 0,
                                       0, (1 << 31) + 1, 0, 0)
    with pytest.raises(FormatError, match="64-bit top-k keys"):
        FlinngIndex.from_bytes(header)


def test_from_codes_rejects_keys_past_limit(monkeypatch):
    codes = np.random.default_rng(3).integers(0, 16, (10, 4))
    full = codes_index(codes, B=3, R=2, m=4, l_bits=4)
    monkeypatch.setattr(index_module, "KEY_LIMIT", (3 * 2 + 1) * 10)
    with pytest.raises(InputError, match="64-bit top-k keys"):
        codes_index(codes, B=3, R=2, m=4, l_bits=4)
    monkeypatch.setattr(index_module, "KEY_LIMIT", (3 * 2 + 1) * 10 + 1)
    assert codes_index(codes, B=3, R=2, m=4, l_bits=4).to_bytes() == full.to_bytes()


def test_from_codes_rejects_offsets_past_limit(monkeypatch):
    codes = np.random.default_rng(3).integers(0, 16, (10, 4))
    full = codes_index(codes, B=3, R=2, m=4, l_bits=4)
    # R * n = 20 reaches a limit of 20; a limit equal to the payload length passes R * n
    # and is reached at the last table; one more than that builds the same image
    monkeypatch.setattr(index_module, "OFFSET_LIMIT", 20)
    with pytest.raises(InputError, match="cell offsets"):
        codes_index(codes, B=3, R=2, m=4, l_bits=4)
    monkeypatch.setattr(index_module, "OFFSET_LIMIT", full.table_payload.size)
    with pytest.raises(InputError, match="bucket offsets"):
        codes_index(codes, B=3, R=2, m=4, l_bits=4)
    monkeypatch.setattr(index_module, "OFFSET_LIMIT", full.table_payload.size + 1)
    assert codes_index(codes, B=3, R=2, m=4, l_bits=4).to_bytes() == full.to_bytes()


def test_offsets_are_uint32(tmp_path, token_corpus_50):
    _, idx = token_corpus_50
    path = tmp_path / "toy.flinng"
    idx.save(path)
    for index in (idx, FlinngIndex.load(path)):
        assert index.cell_offsets.dtype == np.uint32
        assert index.table_offsets.dtype == np.uint32


@pytest.fixture(scope="module")
def srp_corpus_50():
    points = np.random.default_rng(4).standard_normal((50, 8))
    return points, FlinngIndex.build(points, config(8, 3, m=16, l_bits=4, metric="cosine", dim=8))


@pytest.mark.parametrize("corpus", ["token_corpus_50", "srp_corpus_50"], ids=["minhash", "srp"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_image_rejected_or_answers_in_range(request, corpus, data):
    points, idx = request.getfixturevalue(corpus)
    blob = bytearray(idx.to_bytes())
    # half the flips land in the header and the bucket bitmap and offsets, the rest anywhere
    front = sum(memoryview(part).nbytes for part in idx._image_parts()[:3])
    where = st.one_of(st.integers(0, front - 1), st.integers(0, len(blob) - 1))
    for pos, mask in data.draw(st.lists(st.tuples(where, st.integers(1, 255)), max_size=3)):
        blob[pos] ^= mask
    cut = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob) - 1)))
    try:
        clone = FlinngIndex.from_bytes(bytes(blob[:cut]))
    except FormatError:
        return
    spec = clone.config.hash_spec
    for p in points[:3]:
        # a flipped m or l_bits can still load (m = 17 keeps the bitmap's word count): fit the codes to it
        codes = np.resize(idx.hash_query(p), spec.m) & ((1 << spec.l_bits) - 1)
        for ids in (
            clone.query_topk_codes(codes, 10),
            clone.query_threshold_codes(codes, 1),
            clone.query_threshold_codes(codes, spec.m),
        ):
            assert ((ids >= 0) & (ids < clone.n_points)).all()


def test_point_cells_name_the_cell_holding_each_point(token_corpus_50):
    _, idx = token_corpus_50
    B, R, n = idx.config.num_cells, idx.config.repetitions, idx.n_points
    for index in (idx, FlinngIndex.from_bytes(idx.to_bytes())):
        assert index.point_cells.shape == (R, n)
        for r in range(R):
            for p in range(n):
                cell = index.point_cells[r, p]
                assert r * B <= cell < (r + 1) * B
                assert p in index.members_of(cell)


def test_save_load_file(tmp_path, token_corpus_50):
    points, idx = token_corpus_50
    path = tmp_path / "toy.flinng"
    idx.save(path)
    assert path.read_bytes() == idx.to_bytes()
    assert path.stat().st_size == idx.nbytes
    clone = FlinngIndex.load(path)
    assert np.array_equal(clone.query_topk(points[0], 3), idx.query_topk(points[0], 3))


def test_loaded_arrays_are_read_only(tmp_path, token_corpus_50):
    _, idx = token_corpus_50
    path = tmp_path / "toy.flinng"
    idx.save(path)
    for index in (FlinngIndex.load(path), FlinngIndex.from_bytes(idx.to_bytes())):
        for name in ("cell_offsets", "cell_members", "table_offsets", "table_payload"):
            assert not getattr(index, name).flags.writeable, name


def test_from_bytearray_survives_later_writes(token_corpus_50):
    points, idx = token_corpus_50
    t = idx.config.hash_spec.m // 2
    blob = bytearray(idx.to_bytes())
    clone = FlinngIndex.from_bytes(blob)
    blob[:] = bytes(len(blob))
    for p in points[:5]:
        assert np.array_equal(clone.query_topk(p, 10), idx.query_topk(p, 10))
        assert np.array_equal(clone.query_threshold(p, t), idx.query_threshold(p, t))
    assert clone.to_bytes() == idx.to_bytes()
