import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flinng import lsh
from flinng.errors import ConfigError, InputError


def jaccard_pair(inter, x_only, y_only, base=0):
    """Two token sets with |x & y| = inter and the given private tails."""
    shared = np.arange(base, base + inter, dtype=np.uint64)
    x = np.concatenate([shared, np.arange(10**6, 10**6 + x_only, dtype=np.uint64)])
    y = np.concatenate([shared, np.arange(2 * 10**6, 2 * 10**6 + y_only, dtype=np.uint64)])
    return np.sort(x), np.sort(y)


def test_build_family_deterministic():
    spec = lsh.HashFamilySpec("minhash", m=4, l_bits=16, seed=7)
    a = lsh.build_family(spec)
    b = lsh.build_family(spec)
    assert np.array_equal(a.keys, b.keys)
    x = lsh.token_set([3, 1, 4, 1, 5])
    assert np.array_equal(lsh.hash_set(a, x), lsh.hash_set(b, x))


def test_build_family_srp_seed_changes_directions():
    a = lsh.build_family(lsh.HashFamilySpec("srp", m=2, l_bits=12, seed=1, dim=128))
    b = lsh.build_family(lsh.HashFamilySpec("srp", m=2, l_bits=12, seed=2, dim=128))
    assert not np.array_equal(a.directions, b.directions)
    assert a.directions.shape == (2 * 12, 128)


@pytest.mark.parametrize(
    "spec",
    [
        dict(kind="minhash", m=0, l_bits=8, seed=1),
        dict(kind="minhash", m=4, l_bits=0, seed=1),
        dict(kind="minhash", m=4, l_bits=25, seed=1),
        dict(kind="srp", m=2, l_bits=12, seed=1),
        dict(kind="srp", m=2, l_bits=12, seed=1, dim=0),
        dict(kind="mystery", m=2, l_bits=12, seed=1),
        dict(kind="srp", m=2, l_bits=2, seed=1, dim=lsh.MAX_SRP_FLOATS // 4 + 1),
        # hashing would ignore the dim, but the image would store it
        dict(kind="minhash", m=4, l_bits=8, seed=1, dim=5),
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(ConfigError):
        lsh.HashFamilySpec(**spec)


def test_spec_holds_python_ints():
    # numpy fields were kept as given: m = np.uint8(32) times l_bits = np.uint8(16) wrapped to 0 keys
    spec = lsh.HashFamilySpec("minhash", m=np.uint8(32), l_bits=np.uint8(16), seed=np.uint64(7))
    assert [type(v) for v in (spec.m, spec.l_bits, spec.seed)] == [int, int, int]
    assert spec == lsh.HashFamilySpec("minhash", m=32, l_bits=16, seed=7)
    assert lsh.build_family(spec).keys.size == 32 * 16
    srp = lsh.HashFamilySpec("srp", m=np.int16(2), l_bits=np.uint8(4), seed=0, dim=np.int32(3))
    assert type(srp.dim) is int and srp.dim == 3


def test_hash_set_equal_inputs_collide():
    fam = lsh.build_family(lsh.HashFamilySpec("minhash", m=8, l_bits=12, seed=2))
    x = lsh.token_set([10, 20, 30])
    assert np.array_equal(lsh.hash_set(fam, x), lsh.hash_set(fam, x.copy()))


def test_hash_set_empty_rejected():
    fam = lsh.build_family(lsh.HashFamilySpec("minhash", m=2, l_bits=4, seed=0))
    with pytest.raises(InputError):
        lsh.hash_set(fam, np.empty(0, dtype=np.uint64))


def _one_bit_rate(x, y, n_bits, seed=0):
    """Collision rate of n_bits independent 1-bit codes (l_bits=1 families)."""
    fam = lsh.build_family(lsh.HashFamilySpec("minhash", m=n_bits, l_bits=1, seed=seed))
    return float(np.mean(lsh.hash_set(fam, x) == lsh.hash_set(fam, y)))


def test_minhash_disjoint_rate_half():
    x, y = jaccard_pair(0, 100, 100)
    assert _one_bit_rate(x, y, 10_000) == pytest.approx(0.5, abs=0.02)


def test_minhash_half_jaccard_rate():
    x, y = jaccard_pair(66, 33, 33)  # J = 66 / 132 = 0.5
    assert _one_bit_rate(x, y, 10_000) == pytest.approx(0.75, abs=0.02)


def test_hash_dense_identical_and_antipodal():
    fam = lsh.build_family(lsh.HashFamilySpec("srp", m=64, l_bits=1, seed=5, dim=16))
    rng = np.random.default_rng(1)
    v = rng.standard_normal(16)
    assert np.array_equal(lsh.hash_dense(fam, v), lsh.hash_dense(fam, v.copy()))
    assert not np.any(lsh.hash_dense(fam, v) == lsh.hash_dense(fam, -v))


def test_hash_dense_orthogonal_half():
    fam = lsh.build_family(lsh.HashFamilySpec("srp", m=10_000, l_bits=1, seed=5, dim=8))
    v = np.eye(8)[0]
    w = np.eye(8)[1]
    rate = float(np.mean(lsh.hash_dense(fam, v) == lsh.hash_dense(fam, w)))
    assert rate == pytest.approx(0.5, abs=0.02)


def test_hash_dense_input_errors():
    fam = lsh.build_family(lsh.HashFamilySpec("srp", m=2, l_bits=4, seed=0, dim=8))
    with pytest.raises(InputError):
        lsh.hash_dense(fam, np.ones(7))
    with pytest.raises(InputError):
        lsh.hash_dense(fam, np.zeros(8))
    with pytest.raises(InputError):
        lsh.hash_set(fam, lsh.token_set([1, 2]))  # wrong family kind


@pytest.mark.parametrize(
    "tokens",
    [[1.5, 2.0], [-1, 2], np.array([-1, 2]), np.array([3, -7], dtype=np.int8)],
    ids=["float", "negative-list", "negative-array", "negative-int8"],
)
def test_bad_tokens_rejected(tokens):
    # unchecked, a float set hashes as its truncation and -1 as 2**64 - 1
    fam = lsh.build_family(lsh.HashFamilySpec("minhash", m=4, l_bits=8, seed=0))
    with pytest.raises(InputError):
        lsh.hash_set(fam, tokens)
    with pytest.raises(InputError, match="point 1"):
        lsh.hash_set_many(fam, [np.array([1, 2]), tokens])


def test_hash_set_accepts_ids_past_int64():
    # numpy reads the list [2**63, 5] as floats, so it must be read id by id
    fam = lsh.build_family(lsh.HashFamilySpec("minhash", m=4, l_bits=8, seed=0))
    want = lsh.hash_set(fam, lsh.token_set([2**63, 5]))
    assert np.array_equal(lsh.hash_set(fam, [2**63, 5]), want)
    assert np.array_equal(lsh.hash_set_many(fam, [[1], [2**63, 5]])[1], want)


def test_string_vector_rejected():
    fam = lsh.build_family(lsh.HashFamilySpec("srp", m=2, l_bits=4, seed=0, dim=3))
    with pytest.raises(InputError):
        lsh.hash_dense(fam, np.array(["1", "2", "3"]))
    with pytest.raises(InputError):
        lsh.hash_dense_many(fam, [["1", "2", "3"]])


def test_estimate_collision_exact_cases():
    x = lsh.token_set([1, 2, 3])
    assert lsh.estimate_collision("minhash", x, x, trials=500) == 1.0
    v = np.r_[1.0, -2.0, 0.5]
    assert lsh.estimate_collision("srp", v, -v, trials=500) == 0.0
    assert lsh.estimate_collision("srp", v, v, trials=500) == 1.0


def test_estimate_collision_rejects_non_integer_trials():
    # unchecked, 3.5 trials hash with a 4-bit family
    x = lsh.token_set([1, 2, 3])
    with pytest.raises(InputError, match="trials must be an integer"):
        lsh.estimate_collision("minhash", x, x, trials=3.5)
    assert lsh.estimate_collision("minhash", x, x, trials=np.int64(4)) == 1.0


@pytest.mark.parametrize("x", [[math.nan, 1.0], ["1", "2"]], ids=["nan", "strings"])
def test_estimate_collision_srp_rejects_non_numbers(x):
    # unchecked, the nan pair estimates 0.508 and the strings parse as floats
    with pytest.raises(InputError, match="vector entries"):
        lsh.estimate_collision("srp", x, [1.0, 1.0], trials=500)
    with pytest.raises(InputError, match="vector entries"):
        lsh.estimate_collision("srp", [1.0, 1.0], x, trials=500)


def test_estimate_collision_quarter_jaccard():
    x, y = jaccard_pair(40, 60, 60)  # J = 40 / 160 = 0.25
    rate = lsh.estimate_collision("minhash", x, y, trials=10_000, seed=3)
    assert rate == pytest.approx((1 + 0.25) / 2, abs=0.02)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 24),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=30),
    st.integers(0, 2**64 - 1),
)
def test_codes_stay_in_range(m, l_bits, tokens, seed):
    fam = lsh.build_family(lsh.HashFamilySpec("minhash", m=m, l_bits=l_bits, seed=seed))
    codes = lsh.hash_set(fam, lsh.token_set(tokens))
    assert codes.shape == (m,)
    assert (codes < (1 << l_bits)).all()


# statistical ladders: empirical rate within 3 sigma of the analytic value

_LADDER_BITS = 20_000


def test_minhash_rate_tracks_jaccard_ladder():
    pairs = [(0, 100, 100, 0.0), (40, 60, 60, 0.25), (66, 33, 33, 0.5), (90, 15, 15, 0.75), (100, 0, 0, 1.0)]
    rates = []
    for inter, xo, yo, jac in pairs:
        x, y = jaccard_pair(inter, xo, yo)
        rate = _one_bit_rate(x, y, _LADDER_BITS, seed=17)
        expect = (1 + jac) / 2
        sigma = math.sqrt(max(expect * (1 - expect), 1e-9) / _LADDER_BITS)
        assert abs(rate - expect) <= 3 * sigma + 1e-12, (jac, rate, expect)
        rates.append((rate, expect))
    _assert_monotone(rates)


def test_srp_rate_tracks_angle_ladder():
    angles = [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]
    rates = []
    for i, theta in enumerate(angles):
        fam = lsh.build_family(lsh.HashFamilySpec("srp", m=_LADDER_BITS, l_bits=1, seed=23 + i, dim=4))
        v = np.r_[1.0, 0.0, 0.0, 0.0]
        w = np.r_[np.cos(theta), np.sin(theta), 0.0, 0.0]
        rate = float(np.mean(lsh.hash_dense(fam, v) == lsh.hash_dense(fam, w)))
        expect = 1 - theta / np.pi
        sigma = math.sqrt(max(expect * (1 - expect), 1e-9) / _LADDER_BITS)
        assert abs(rate - expect) <= 3 * sigma + 1e-12, (theta, rate, expect)
        rates.append((rate, expect))
    _assert_monotone(rates[::-1])  # increasing similarity order


def _assert_monotone(rates):
    # one-sided: a more similar pair never measures significantly lower
    for (lo_rate, lo_expect), (hi_rate, hi_expect) in zip(rates, rates[1:]):
        s = math.sqrt(
            max(lo_expect * (1 - lo_expect), 1e-9) / _LADDER_BITS
            + max(hi_expect * (1 - hi_expect), 1e-9) / _LADDER_BITS
        )
        assert hi_rate >= lo_rate - 3 * s
