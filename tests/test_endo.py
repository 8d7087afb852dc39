import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preoperad import endo
from preoperad.endo import (
    MAX_ENTRIES,
    MultilinearMap,
    check_entries,
    componentwise_product,
    ksign,
    linear_combine,
    make_map,
    map_from_payload,
    map_to_payload,
    matrix_algebra_product,
    partial_compose,
    random_map,
    signed_sum,
    substitute,
    unit_map,
    zero_map,
)
from preoperad.errors import (
    BackendMismatch,
    InvalidDegree,
    RingMismatch,
    DegreeMismatch,
    IndexOutOfScope,
    ShapeMismatch,
    TableTooLarge,
    UnsupportedRing,
)
from preoperad.rings import CoefficientRing, _is_prime
from stacking import stack_rows

F97 = CoefficientRing.prime_field(97)
F101 = CoefficientRing.prime_field(101)
ZZ = CoefficientRing.integers()


def scalar(ring, degree, value):
    # dim-1 maps are single scalars
    return make_map(ring, 1, degree, [value])


def test_ksign():
    assert ksign(0) == 1
    assert ksign(1) == -1
    assert ksign(2) == 1
    assert ksign(-1) == -1


def test_make_map_shape_check():
    make_map(F97, 2, 2, range(8))
    with pytest.raises(ShapeMismatch):
        make_map(F97, 2, 2, range(7))


def test_make_map_canonicalizes_entries():
    m = make_map(F97, 1, 1, [-1])
    assert int(m.table[0, 0]) == 96


def test_unit_map_is_identity_table():
    u = unit_map(F97, 3)
    assert np.array_equal(np.asarray(u.table), np.eye(3, dtype=np.int64))
    assert u.degree == 1


def test_zero_map():
    z = zero_map(F97, 2, 3)
    assert z.is_zero()
    assert z.degree == 3


def test_compose_scalar_examples():
    # dim 1: composition multiplies scalars and applies the twist
    f = scalar(F97, 3, 2)
    g = scalar(F97, 2, 3)
    assert int(partial_compose(f, g, 2).table[(0,) * 5]) == 6

    f = scalar(F97, 2, 3)
    g = scalar(F97, 2, 5)
    assert int(partial_compose(f, g, 1).table[(0,) * 4]) == 82


def test_compose_dim1_closed_form_200_triples():
    # oracle: f compose_i g = (-1)^(i * (deg g - 1)) * f * g, all in F_97
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        a = int(rng.integers(0, 97))
        b = int(rng.integers(0, 97))
        i = int(rng.integers(0, m))
        got = partial_compose(scalar(F97, m, a), scalar(F97, n, b), i)
        want = ksign(i * (n - 1)) * a * b % 97
        assert int(got.table[(0,) * (m + n)]) == want
        assert got.degree == m + n - 1


def _slow_insert(f, g, i):
    # independent loop evaluation of the unsigned insertion, dim 2
    d = 2
    m, n = f.degree, g.degree
    out = np.zeros((d,) * (m + n), dtype=np.int64)
    for idx in np.ndindex(*out.shape):
        out_idx, args = idx[0], idx[1:]
        total = 0
        for middle in range(d):
            f_args = args[:i] + (middle,) + args[i + n:]
            g_args = args[i:i + n]
            total += (int(f.table[(out_idx, *f_args)])
                      * int(g.table[(middle, *g_args)]))
        out[idx] = total % 97
    return out * ksign(i * (n - 1)) % 97


def test_compose_matches_loop_oracle_dim2():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        i = int(rng.integers(0, m))
        f = random_map(F97, 2, m, rng)
        g = random_map(F97, 2, n, rng)
        got = np.asarray(partial_compose(f, g, i).table) % 97
        assert np.array_equal(got, _slow_insert(f, g, i) % 97)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unit_absorption(dim):
    rng = np.random.default_rng(dim)
    u = unit_map(F97, dim)
    for degree in (1, 2, 3):
        f = random_map(F97, dim, degree, rng)
        assert partial_compose(u, f, 0) == f
        for i in range(degree):
            assert partial_compose(f, u, i) == f


def test_compose_index_bounds():
    rng = np.random.default_rng(0)
    f = random_map(F97, 2, 2, rng)
    g = random_map(F97, 2, 1, rng)
    with pytest.raises(IndexOutOfScope):
        partial_compose(f, g, 2)
    with pytest.raises(IndexOutOfScope):
        partial_compose(f, g, -1)


def test_compose_ring_and_dim_must_agree():
    rng = np.random.default_rng(0)
    f = random_map(F97, 2, 2, rng)
    with pytest.raises(RingMismatch):
        partial_compose(f, random_map(F101, 2, 1, rng), 0)
    with pytest.raises(BackendMismatch):
        partial_compose(f, random_map(F97, 3, 1, rng), 0)


def test_linear_combine():
    rng = np.random.default_rng(1)
    f = random_map(F97, 2, 2, rng)
    g = random_map(F97, 2, 2, rng)
    assert linear_combine([1], [f]) == f
    assert linear_combine([1, -1], [f, f]).is_zero()
    combo = linear_combine([2, 3], [f, g])
    e = (1, 0, 1)
    assert int(combo.table[e]) == (2 * int(f.table[e]) + 3 * int(g.table[e])) % 97
    with pytest.raises(DegreeMismatch):
        linear_combine([1, 1], [f, random_map(F97, 2, 1, rng)])


def test_random_map_deterministic_and_field_only():
    a = random_map(F97, 2, 2, np.random.default_rng(42))
    b = random_map(F97, 2, 2, np.random.default_rng(42))
    assert a == b
    with pytest.raises(UnsupportedRing):
        random_map(ZZ, 2, 2, np.random.default_rng(0))


def test_random_map_is_the_generators_draw_read_only():
    for degree in (0, 1, 3):
        got = random_map(F97, 3, degree, np.random.default_rng(7))
        want = np.random.default_rng(7).integers(
            0, 97, size=(3,) * (degree + 1), dtype=np.int64)
        assert got.table.dtype == endo._dtype(F97, 3) == np.int32
        assert np.array_equal(got.table, want)
        assert not got.table.flags.writeable
        assert got == make_map(F97, 3, degree, want.reshape(-1))


@pytest.mark.parametrize("p", [2, 97, 1_000_003])
def test_random_map_flat_draw_matches_the_shaped_draw(p):
    # the table is drawn flat and reshaped: the same entries, in the same
    # order, as a draw of the table's shape, and the same stream after it
    ring = CoefficientRing.prime_field(p)
    for dim in range(1, 5):
        for degree in range(5):
            flat, shaped = np.random.default_rng(5), np.random.default_rng(5)
            got = random_map(ring, dim, degree, flat)
            want = shaped.integers(0, p, size=(dim,) * (degree + 1),
                                   dtype=np.int64)
            assert got.table.shape == want.shape
            assert np.array_equal(got.table, want)
            assert flat.integers(0, 2**62) == shaped.integers(0, 2**62)


@pytest.mark.parametrize("p", [2, 97, 1_000_003])
def test_one_draw_of_several_tables_is_consecutive_random_map_calls(p):
    # odd total sizes leave half of a 64-bit draw buffered in the generator;
    # the one draw must leave the stream where the calls leave it, for a
    # small draw after the tables (as L27's word) and a wide one
    ring = CoefficientRing.prime_field(p)
    for seed in range(60):
        pick = np.random.default_rng(1000 + seed)
        dim = int(pick.integers(1, 4))
        degrees = [int(d) for d in pick.integers(0, 5, size=pick.integers(1, 6))]
        one, calls = np.random.default_rng(seed), np.random.default_rng(seed)
        got = endo._random_maps(ring, dim, degrees, one)
        want = [random_map(ring, dim, degree, calls) for degree in degrees]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.degree == w.degree
            assert g.table.shape == w.table.shape
            assert np.array_equal(g.table, w.table)
            assert g.table.flags.c_contiguous and not g.table.flags.writeable
        assert one.integers(0, 4) == calls.integers(0, 4)
        assert one.integers(0, 2**62) == calls.integers(0, 2**62)


@pytest.mark.parametrize("p", [2, 97, 1_000_003])
def test_a_draw_of_rows_is_its_rows_drawn_one_after_another(p):
    # row r holds the tables of the r-th of rows one-row draws, and the
    # stream is left where they leave it, so rows can be drawn in parts
    ring = CoefficientRing.prime_field(p)
    for seed in range(30):
        pick = np.random.default_rng(2000 + seed)
        dim, rows = int(pick.integers(1, 4)), int(pick.integers(2, 5))
        degrees = [int(d) for d in pick.integers(0, 5, size=pick.integers(1, 6))]
        one, calls = np.random.default_rng(seed), np.random.default_rng(seed)
        got = endo._random_maps(ring, dim, degrees, one, rows)
        want = [endo._random_maps(ring, dim, degrees, calls) for _ in range(rows)]
        for k, g in enumerate(got):
            assert g.batch == rows and g.degree == degrees[k]
            assert g.table.flags.c_contiguous and not g.table.flags.writeable
            for r in range(rows):
                assert np.array_equal(g.table[r], want[r][k].table)
        assert one.integers(0, 4) == calls.integers(0, 4)
        assert one.integers(0, 2**62) == calls.integers(0, 2**62)


def test_one_draw_of_several_tables_refuses_what_random_map_refuses():
    rng = np.random.default_rng(0)
    with pytest.raises(UnsupportedRing):
        endo._random_maps(ZZ, 2, [1, 2], rng)
    with pytest.raises(InvalidDegree):
        endo._random_maps(F97, 2, [1, -1], rng)
    with pytest.raises(TableTooLarge):
        endo._random_maps(F97, 2, [1, 26], rng)
    with pytest.raises(TableTooLarge):  # 2^13 rows of 2^14 entries
        endo._random_maps(F97, 2, [1, 13], rng, 2**13)


def test_matrix_algebra_product_matches_matmul():
    mu = matrix_algebra_product(F97)
    rng = np.random.default_rng(8)
    # vectors encode 2x2 matrices row-major
    a = rng.integers(0, 97, size=4)
    b = rng.integers(0, 97, size=4)
    got = np.einsum("kij,i,j->k", mu.table.astype(np.int64), a, b) % 97
    want = (a.reshape(2, 2) @ b.reshape(2, 2)) % 97
    assert np.array_equal(got.reshape(2, 2), want)


def test_integer_ring_tables():
    f = make_map(ZZ, 1, 2, [12])
    g = make_map(ZZ, 1, 1, [-5])
    assert int(partial_compose(f, g, 1).table[0, 0, 0]) == -60


def test_no_overflow_at_large_prime():
    # worst-case products stay within int64 through p = 65537
    big = CoefficientRing.prime_field(65537)
    rng = np.random.default_rng(11)
    f = random_map(big, 4, 2, rng)
    g = random_map(big, 4, 2, rng)
    fast = partial_compose(f, g, 1)
    slow_f = make_map(ZZ, 4, 2, np.asarray(f.table).reshape(-1))
    slow_g = make_map(ZZ, 4, 2, np.asarray(g.table).reshape(-1))
    slow = np.asarray(partial_compose(slow_f, slow_g, 1).table) % 65537
    assert np.array_equal(np.asarray(fast.table), slow)



@pytest.mark.parametrize("p, dim", [(2147483647, 3), (4294967311, 2),
                                    (9223372036854775837, 1)])
def test_tables_that_could_overflow_int64_are_refused(p, dim):
    # dim * p^2 >= 2^63: a contraction could wrap around silently; a p past
    # int64 is refused before numpy is asked to draw below it
    ring = CoefficientRing.prime_field(p)
    with pytest.raises(UnsupportedRing):
        zero_map(ring, dim, 1)
    with pytest.raises(UnsupportedRing):
        unit_map(ring, dim)
    with pytest.raises(UnsupportedRing):
        make_map(ring, dim, 0, [1] * dim)
    with pytest.raises(UnsupportedRing):
        random_map(ring, dim, 1, np.random.default_rng(0))


def test_exact_at_the_int64_bound():
    # p = 2^31 - 1 with dim 2 is the largest Mersenne case the bound admits
    p = 2147483647
    big = CoefficientRing.prime_field(p)
    rng = np.random.default_rng(3)
    f = random_map(big, 2, 2, rng)
    g = random_map(big, 2, 3, rng)
    h = random_map(big, 2, 4, rng)
    as_z = [make_map(ZZ, 2, m.degree, np.asarray(m.table).reshape(-1))
            for m in (f, g, h)]
    fast = partial_compose(f, g, 1)
    slow = np.asarray(partial_compose(as_z[0], as_z[1], 1).table) % p
    assert np.array_equal(np.asarray(fast.table), slow)
    coeffs = [p - 1, p - 2]
    fast = linear_combine(coeffs, [fast, h])
    slow = np.asarray(linear_combine(
        coeffs, [partial_compose(as_z[0], as_z[1], 1), as_z[2]]).table) % p
    assert np.array_equal(np.asarray(fast.table), slow)


def _einsum_compose(f_table, g_table, i, sign):
    # output letter "o", slot letter "s", the other inputs from "a"
    m, n = f_table.ndim - 1, g_table.ndim - 1
    f_in = [chr(ord("a") + t) for t in range(m)]
    g_in = [chr(ord("a") + m + t) for t in range(n)]
    f_idx = "o" + "".join(f_in[:i]) + "s" + "".join(f_in[i + 1:])
    out_idx = "o" + "".join(f_in[:i] + g_in + f_in[i + 1:])
    raw = np.einsum(f"{f_idx},s{''.join(g_in)}->{out_idx}", f_table, g_table)
    return sign * raw


@pytest.mark.parametrize("ring", [F97, ZZ], ids=["F97", "Z"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_partial_compose_matches_einsum_reference(ring, dim):
    rng = np.random.default_rng(dim)
    rows_rng = np.random.default_rng((dim, 3))

    def want_of(f, g, i):
        want = _einsum_compose(np.asarray(f.table), np.asarray(g.table),
                               i, ksign(i * (g.degree - 1)))
        return want % ring.modulus if ring.is_field else want

    for m in range(1, 6):
        for n in range(0, 5):
            f = make_map(ring, dim, m, rng.integers(-50, 50, dim ** (m + 1)))
            g = make_map(ring, dim, n, rng.integers(-50, 50, dim ** (n + 1)))
            for i in range(m):
                got = partial_compose(f, g, i)
                want = want_of(f, g, i)
                assert got.degree == m + n - 1
                assert got.table.dtype == f.table.dtype
                assert np.array_equal(got.table, want), (m, n, i)
                assert substitute(f, g, i) == make_map(
                    ring, dim, m + n - 1,
                    (want * ksign(i * (n - 1))).reshape(-1))
            if dim ** (m + n) > 2**12:
                continue
            # stacked f, stacked g and both, 3 rows, row by row; a single
            # map serves every row
            fs, gs = ([make_map(ring, dim, k, rows_rng.integers(
                -50, 50, dim ** (k + 1))) for _ in range(3)] for k in (m, n))
            for f_rows, g_rows in ((fs, [g] * 3), ([f] * 3, gs), (fs, gs)):
                stacked_f, stacked_g = stack_rows(f_rows), stack_rows(g_rows)
                for i in range(m):
                    got = partial_compose(stacked_f, stacked_g, i)
                    assert got.batch == 3 and got.degree == m + n - 1
                    assert got.table.dtype == f.table.dtype
                    for r in range(3):
                        assert np.array_equal(
                            got.table[r], want_of(f_rows[r], g_rows[r], i)), (
                                m, n, i, r)


def _float_bound_primes(d):
    """The largest prime p with d (p - 1)^2 < 2^53, and the next prime."""
    p = math.isqrt((2**53 - 1) // d) + 1
    while not _is_prime(p):
        p -= 1
    q = p + 1
    while not _is_prime(q):
        q += 1
    assert d * (p - 1) ** 2 < 2**53 <= d * (q - 1) ** 2
    return p, q


def _count_float_products(monkeypatch):
    calls = []
    product = endo._float_product

    def counted(*args):
        calls.append(args[0].shape)
        return product(*args)

    monkeypatch.setattr(endo, "_float_product", counted)
    return calls


def _exact_compose(f, g, i, sign):
    """f comp_i g times sign in Python ints, reduced mod p."""
    want = _einsum_compose(np.asarray(f.table).astype(object),
                           np.asarray(g.table).astype(object), i, sign)
    return want % f.ring.modulus


# results above _REDUCE_GATE entries, g of even degree so that the sign
# (-1)^(i * |g|) alternates over the slots; at d = 53 the largest prime p
# has d p^2 >= 2^53, so a bound on p in place of p - 1 would refuse it.
# At each dim the early slots have inputs after them, so they take the
# row-by-row float64 layout, and the last slot the other one
_BOUND_SHAPES = {2: (7, 4), 3: (5, 2), 4: (4, 2), 53: (2, 1)}


@pytest.mark.parametrize("d", [2, 3, 4, 53])
def test_float_products_are_exact_at_the_largest_prime_below_the_bound(
        d, monkeypatch):
    p, _ = _float_bound_primes(d)
    ring = CoefficientRing.prime_field(p)
    calls = _count_float_products(monkeypatch)
    m, n = _BOUND_SHAPES[d]
    rng = np.random.default_rng(d)
    top = [np.full(d ** (k + 1), p - 1, dtype=np.int64) for k in (m, n)]
    near = [rng.integers(p - 8, p, d ** (k + 1)) for k in (m, n)]
    for f_entries, g_entries in (top, near):
        f = make_map(ring, d, m, f_entries)
        g = make_map(ring, d, n, g_entries)
        for i in range(m):
            sign = ksign(i * (n - 1))
            want = _exact_compose(f, g, i, sign)
            assert partial_compose(f, g, i).table.tolist() == want.tolist(), i
            negated = endo.compose_sum(ring, d, m + n - 1, [(-1, f, g, i)])
            assert negated.table.tolist() == (-want % p).tolist(), i
    assert len(calls) == 4 * m  # every one of them on the float64 path


# (dim, p, narrow): at each dim the largest prime whose worst-case scaled
# product (p // 2) d (p - 1)^2 is below 2^24, whose tables are int32 and
# which multiplies in float32, and the next prime, which keeps float64 and
# int64
_NARROW_BOUND = [(3, 223, True), (3, 227, False), (4, 199, True),
                 (4, 211, False)]


@pytest.mark.parametrize("d, p, narrow", _NARROW_BOUND,
                         ids=lambda v: str(v))
def test_compose_sums_are_exact_at_the_float32_bound(d, p, narrow,
                                                     monkeypatch):
    step = (p // 2) * d * (p - 1) ** 2
    assert (step < 2**24) == narrow
    m, n = _BOUND_SHAPES[d]
    assert endo._limits(p, d)[:2] == (True, narrow)
    ring = CoefficientRing.prime_field(p)
    f = make_map(ring, d, m, np.full(d ** (m + 1), p - 1))
    g = make_map(ring, d, n, np.full(d ** (n + 1), p - 1))
    # _float_product multiplies in float32 exactly when its f is int32
    dtype = np.int32 if narrow else np.int64
    assert f.table.dtype == g.table.dtype == dtype
    # every term scales its composite by p // 2 once its Koszul sign is
    # folded in, so the sum's entries grow by step a term: one term more
    # than int32 holds forces an early reduction
    count = 2**31 // step + 1
    terms = [((p // 2) * ksign(i * (n - 1)), f, g, i)
             for i in (t % m for t in range(count))]
    reductions = []
    reduce = endo._reduce

    def recorded(arr, *args):
        reductions.append(arr.dtype)
        return reduce(arr, *args)

    monkeypatch.setattr(endo, "_reduce", recorded)
    calls = _count_float_products(monkeypatch)
    got = endo.compose_sum(ring, d, m + n - 1, terms)
    assert len(calls) == count  # every product on the float path
    # early reductions, then the final one
    assert reductions == ([np.int32] * 2 if narrow else [np.int64])
    want = sum(sum(1 for _, _, _, i in terms if i == slot)
               * _exact_compose(f, g, slot, 1) for slot in range(m))
    assert got.table.dtype == dtype
    assert got.table.tolist() == (want * (p // 2) % p).tolist()


@pytest.mark.parametrize("d, p, narrow", _NARROW_BOUND,
                         ids=lambda v: str(v))
def test_every_table_of_a_ring_has_the_one_dtype_its_limits_pick(d, p,
                                                                 narrow):
    # int32 exactly where the float32 bound holds, int64 past it, whichever
    # function builds the table
    ring = CoefficientRing.prime_field(p)
    dtype = np.int32 if narrow else np.int64
    assert endo._dtype(ring, d) == dtype
    m, n = _BOUND_SHAPES[d]
    rng = np.random.default_rng(p)
    f = make_map(ring, d, m, np.full(d ** (m + 1), p - 1))
    g = make_map(ring, d, n, np.full(d ** (n + 1), p - 1))
    # worst case: top entries, every coefficient p // 2 once signed
    terms = [((p // 2) * ksign(i * (n - 1)), f, g, i) for i in range(m)]
    worst = endo.compose_sum(ring, d, m + n - 1, terms)
    tables = {
        "make_map": f,
        "random_map": random_map(ring, d, n, rng),
        "zero_map": zero_map(ring, d, 2),
        "unit_map": unit_map(ring, d),
        "partial_compose, float path": partial_compose(f, g, 0),
        "partial_compose, integer matmul": partial_compose(g, g, 0),
        "compose_sum": worst,
        "signed_sum": signed_sum(ring, d, m, [(2, f), (p // 2, f)]),
    }
    for name, x in tables.items():
        assert x.table.dtype == dtype, name
    assert worst.table.tolist() == _exact_sum(terms, p).tolist()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_compositions_stay_exact_at_the_smallest_prime_above_the_bound(
        d, monkeypatch):
    # entries within 8 of q - 1 put every sum past 2^53, where float64
    # rounds odd integers away
    _, q = _float_bound_primes(d)
    ring = CoefficientRing.prime_field(q)
    calls = _count_float_products(monkeypatch)
    m, n = _BOUND_SHAPES[d]
    rng = np.random.default_rng(d)
    f = make_map(ring, d, m, rng.integers(q - 8, q, d ** (m + 1)))
    g = make_map(ring, d, n, rng.integers(q - 8, q, d ** (n + 1)))
    assert d * (q - 8) ** 2 > 2**53
    for i in range(m):
        want = _exact_compose(f, g, i, ksign(i * (n - 1)))
        assert partial_compose(f, g, i).table.tolist() == want.tolist(), i
    assert calls == []


def _float_path(f3, g2, out):
    """The path a _float_product call takes: its layout, its blocks, new
    or add, and its float width."""
    A, d, B = f3.shape
    X = g2.shape[1]
    if X * max(B, d) > endo._BLOCK:
        blocks = "column blocks"
    elif A * B * max(X, d) > endo._BLOCK:
        blocks = "row blocks"
    else:
        blocks = "one block"
    return ("B > 1" if B > 1 else "B == 1", blocks,
            "new" if out is None else "add",
            "float32" if f3.dtype == np.int32 else "float64")


# (d, m, n, i): g in slot i of a degree-m f, and the layout and blocks of
# its product, where A = d^(i+1) rows of f, B = d^(m-i-1) result entries
# after the slot and X = d^n columns of g
_BLOCK_SHAPES = {
    (3, 1, 11, 0): ("B == 1", "column blocks"),  # a partial last block
    (4, 2, 8, 1): ("B == 1", "column blocks"),
    (3, 8, 4, 0): ("B > 1", "column blocks"),  # X * B above the block size
    (4, 8, 2, 0): ("B > 1", "column blocks"),
    (3, 9, 2, 8): ("B == 1", "row blocks"),  # a partial last block
    (3, 9, 2, 6): ("B > 1", "row blocks"),
    (4, 3, 3, 0): ("B > 1", "one block"),  # no inputs before the slot
    (3, 7, 0, 2): ("B > 1", "one block"),  # g a vector: one column
    (3, 4, 8, 0): ("B > 1", "column blocks"),  # three, the last partial
    (4, 4, 2, 2): ("B > 1", "one block"),
    (4, 3, 3, 1): ("B > 1", "one block"),
    (3, 8, 3, 4): ("B > 1", "row blocks"),  # three, the last partial
    (4, 3, 3, 2): ("B == 1", "one block"),
}
# per dim, a prime past the int32 table bound, so its tables are int64 and
# its products float64; F_97's are int32 and float32 at dims 3 and 4
_WIDE_PRIMES = {3: 10007, 4: 211}


def test_the_block_shapes_reach_every_layout_and_block_count():
    assert set(_BLOCK_SHAPES.values()) == {
        (layout, blocks) for layout in ("B == 1", "B > 1")
        for blocks in ("one block", "row blocks", "column blocks")}


@pytest.mark.parametrize("d, m, n, i", list(_BLOCK_SHAPES),
                         ids=lambda v: str(v))
def test_float_products_match_the_einsum_reference_across_block_shapes(
        d, m, n, i, monkeypatch):
    # each shape as a new table (one term) and added into one (two terms),
    # at both signs of c and both float widths: with the coverage test
    # above, every one of the 24 paths is reached and checked
    paths = set()
    product = endo._float_product

    def recorded(f3, g2, c, out=None):
        paths.add(_float_path(f3, g2, out))
        return product(f3, g2, c, out)

    monkeypatch.setattr(endo, "_float_product", recorded)
    rng = np.random.default_rng(d * 100 + m * 10 + n)
    for p in (97, _WIDE_PRIMES[d]):
        ring = CoefficientRing.prime_field(p)
        f = random_map(ring, d, m, rng)
        gs = [random_map(ring, d, n, rng) for _ in range(2)]
        wants = [_einsum_compose(np.asarray(f.table, dtype=np.int64),
                                 np.asarray(g.table, dtype=np.int64), i,
                                 ksign(i * (n - 1))) for g in gs]
        for c in (1, -1):
            got = endo.compose_sum(ring, d, m + n - 1, [(c, f, gs[0], i)])
            assert np.array_equal(got.table, c * wants[0] % p), (p, c)
            got = endo.compose_sum(ring, d, m + n - 1,
                                   [(c, f, g, i) for g in gs])
            assert np.array_equal(got.table, c * sum(wants) % p), (p, c)
    assert paths == {(*_BLOCK_SHAPES[d, m, n, i], mode, width)
                     for mode in ("new", "add")
                     for width in ("float32", "float64")}


@pytest.mark.parametrize("dim, m, rows, on_float_path", [
    (2, 5, None, False),  # 2^10 entries: exactly _REDUCE_GATE
    (5, 1, 41, True),     # 41 stacked rows of 5^2 entries: one entry more
], ids=["at-gate", "one-above"])
def test_float_products_start_one_entry_above_the_reduce_gate(
        dim, m, rows, on_float_path, monkeypatch):
    calls = _count_float_products(monkeypatch)
    rng = np.random.default_rng(dim)
    fs = [random_map(F97, dim, m, rng) for _ in range(rows or 1)]
    f = stack_rows(fs) if rows else fs[0]
    g = random_map(F97, dim, m, rng)
    for i in range(m):
        got = partial_compose(f, g, i)
        assert got.table.size == endo._REDUCE_GATE + on_float_path
        for r, single in enumerate(fs):
            want = _einsum_compose(np.asarray(single.table),
                                   np.asarray(g.table), i, 1) % 97
            assert np.array_equal(got.row(r).table, want), (i, r)
    assert len(calls) == (m if on_float_path else 0)


def test_float_products_leave_their_operands_unwritten():
    rng = np.random.default_rng(5)
    f_table = rng.integers(0, 97, (4,) * 5)
    g_table = rng.integers(0, 97, (4,) * 3)
    f = MultilinearMap(F97, 4, 4, f_table.copy())
    g = MultilinearMap(F97, 4, 2, g_table.copy())
    for i in range(4):
        for c in (1, -1):
            got = endo.compose_sum(F97, 4, 5, [(c, f, g, i)])
            assert got.table.size > endo._REDUCE_GATE
            assert not got.table.flags.writeable
            assert np.array_equal(f.table, f_table)
            assert np.array_equal(g.table, g_table)


@pytest.mark.parametrize("m, n, i", [(8, 2, 7), (8, 2, 0), (6, 4, 2),
                                     (2, 8, 1), (9, 1, 4)])
def test_a_large_composition_allocates_little_beyond_its_result(m, n, i):
    # whole-table float64 copies of f or g measured 1.56-1.63 result tables
    rng = np.random.default_rng(m * 10 + n)
    f = random_map(F97, 4, m, rng)
    g = random_map(F97, 4, n, rng)
    table_bytes = 4**10 * f.table.itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = partial_compose(f, g, i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.table.nbytes == table_bytes
    assert peak - base <= 1.35 * table_bytes


def test_a_narrow_compose_sum_is_int32_and_allocates_little_beyond_it():
    # an int32 sum over F_97 at dim 4 is reduced in place and handed out as
    # it is: neither a widened copy nor an int64 buffer fits the bound
    rng = np.random.default_rng(9)
    f = random_map(F97, 4, 8, rng)
    g = random_map(F97, 4, 2, rng)
    assert f.table.dtype == g.table.dtype == np.int32
    terms = [(c, f, g, i) for c, i in ((1, 0), (-3, 4), (48, 7), (1, 2))]
    table_bytes = 4**10 * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = endo.compose_sum(F97, 4, 9, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.table.dtype == np.int32 and got.table.nbytes == table_bytes
    assert peak - base < 1.4 * table_bytes
    assert got.table.tolist() == _exact_sum(terms, 97).tolist()


def test_substitute_checks_its_operands():
    f = make_map(F97, 2, 2, range(8))
    with pytest.raises(IndexOutOfScope):
        substitute(f, f, 2)
    with pytest.raises(InvalidDegree):
        substitute(make_map(F97, 2, 0, [1, 2]), f, 0)
    with pytest.raises(RingMismatch):
        substitute(f, make_map(F101, 2, 2, range(8)), 0)


def test_substitute_refuses_what_it_refused_before_its_checks_were_hoisted():
    rng = np.random.default_rng(17)
    f = random_map(F97, 2, 3, rng)
    g = random_map(F97, 2, 2, rng)
    with pytest.raises(RingMismatch):
        substitute(f, random_map(F101, 2, 2, rng), 0)
    with pytest.raises(BackendMismatch):
        substitute(f, random_map(F97, 3, 2, rng), 0)
    with pytest.raises(InvalidDegree):
        substitute(random_map(F97, 2, 0, rng), g, 0)
    for slot in (-1, f.degree):  # |f| + 1
        with pytest.raises(IndexOutOfScope, match=f"slot {slot} outside 0..2"):
            substitute(f, g, slot)
    with pytest.raises(ShapeMismatch, match="stacked maps of 2 and 3 rows"):
        substitute(_stacked(F97, 2, 3, 2, rng)[1],
                   _stacked(F97, 2, 2, 3, rng)[1], 0)
    # 5 rows of 2^24 entries pass the cap; the small operands do not
    rows = stack_rows([random_map(F97, 2, 12, rng) for _ in range(5)])
    with pytest.raises(TableTooLarge, match="5 stacked degree 23 tables"):
        substitute(rows, random_map(F97, 2, 12, rng), 0)
    # maps built directly bypass make_map's ring checks; substitute refuses
    # them on every call, and a good (ring, dim) does not vouch for another
    # dim of the same ring
    huge = CoefficientRing.prime_field(2**61 - 1)
    bad = MultilinearMap(huge, 2, 1, np.eye(2, dtype=np.int64))
    for _ in range(2):
        with pytest.raises(UnsupportedRing):
            substitute(bad, bad, 0)
    edge = CoefficientRing.prime_field(2147483659)  # p^2 < 2^63 <= 2 p^2
    one = make_map(edge, 1, 2, [3])
    assert substitute(one, one, 1).table.reshape(-1).tolist() == [9]
    bad = MultilinearMap(edge, 2, 1, np.eye(2, dtype=np.int64))
    with pytest.raises(UnsupportedRing):
        substitute(bad, bad, 0)
    # results are read-only, unhashable and equal to the reference
    for ring in (F97, ZZ):
        f = make_map(ring, 2, 3, rng.integers(-50, 50, 16))
        g = make_map(ring, 2, 2, rng.integers(-50, 50, 8))
        for i in range(3):
            sign = ksign(i * (g.degree - 1))
            want = _einsum_compose(np.asarray(f.table), np.asarray(g.table),
                                   i, sign)
            want = make_map(ring, 2, 4, want.reshape(-1))
            got = partial_compose(f, g, i)
            total = signed_sum(ring, 2, 4,
                               [(2, got), (-sign, substitute(f, g, i))])
            for x in (got, total):
                assert not x.table.flags.writeable
                with pytest.raises(TypeError):
                    hash(x)
            assert got == want and total == want


def test_tables_above_the_entry_cap_are_refused_before_allocation():
    assert MAX_ENTRIES == 2**26
    check_entries(2, 25)  # exactly 2^26 entries: allowed
    check_entries(8, 7)
    for dim, degree in [(2, 26), (3, 16), (9000, 2), (2, 62)]:
        with pytest.raises(TableTooLarge):
            check_entries(dim, degree)
    # a stacked table counts its rows
    check_entries(2, 24, 2)
    check_entries(6, 9, 1)
    for dim, degree, rows in [(2, 24, 4), (6, 9, 2)]:
        with pytest.raises(TableTooLarge, match=f"{rows} stacked degree {degree}"):
            check_entries(dim, degree, rows)
    rng = np.random.default_rng(0)
    with pytest.raises(TableTooLarge):
        zero_map(F97, 2, 26)
    with pytest.raises(TableTooLarge):
        random_map(F97, 2, 62, rng)
    with pytest.raises(TableTooLarge):
        make_map(F97, 2, 26, [])
    with pytest.raises(TableTooLarge):
        unit_map(F97, 9000)
    with pytest.raises(TableTooLarge):
        componentwise_product(F97, 9000)
    f = random_map(F97, 2, 13, rng)
    g = random_map(F97, 2, 14, rng)  # f comp_0 g would have 2^27 entries
    with pytest.raises(TableTooLarge):
        substitute(f, g, 0)
    with pytest.raises(TableTooLarge):
        partial_compose(f, g, 0)


def test_tables_past_numpy_axes_are_refused_at_dim_1():
    # at dim 1 every table has one entry, so only the axis cap binds: a
    # map has degree + 1 axes, a stacked one degree + 2
    assert endo.MAX_AXES == 64
    check_entries(1, 63)
    check_entries(1, 62, 2)
    with pytest.raises(TableTooLarge, match="degree 64 table has 65 axes"):
        check_entries(1, 64)
    with pytest.raises(TableTooLarge, match="stacked degree 63 table has 65"):
        check_entries(1, 63, 2)
    with pytest.raises(TableTooLarge):
        make_map(F97, 1, 64, [1])
    with pytest.raises(TableTooLarge):
        zero_map(F97, 1, 64)
    with pytest.raises(TableTooLarge):
        random_map(F97, 1, 64, np.random.default_rng(0))
    f, g = make_map(F97, 1, 40, [3]), make_map(F97, 1, 30, [5])
    with pytest.raises(TableTooLarge, match="degree 69 table has 70 axes"):
        partial_compose(f, g, 0)
    with pytest.raises(TableTooLarge):
        endo.compose_sum(F97, 1, 69, [(1, f, g, 0)])
    # the largest results: a degree-63 map, with the sign (-1)^(1 * 1),
    # and a stacked degree-62 one
    top = partial_compose(make_map(F97, 1, 62, [3]), make_map(F97, 1, 2, [5]), 1)
    assert top.degree == 63 and top.table.reshape(-1).tolist() == [-15 % 97]
    rows = stack_rows([make_map(F97, 1, 61, [c]) for c in (1, 2)])
    top = partial_compose(rows, make_map(F97, 1, 2, [5]), 0)
    assert top.table.ndim == 64 and top.table.reshape(-1).tolist() == [5, 10]
    with pytest.raises(TableTooLarge, match="stacked degree 63"):
        partial_compose(rows, make_map(F97, 1, 3, [5]), 0)


def test_signed_sum_streams_and_reduces_exactly_at_the_int64_bound():
    # the largest prime with 2 p^2 < 2^63, so a reduced table plus one
    # product still fits but a third product may not
    p = 2147483647
    assert 2 * p * p < 2**63 <= 2 * 2147483659**2
    big = CoefficientRing.prime_field(p)
    rng = np.random.default_rng(5)
    maps = [random_map(big, 2, 3, rng) for _ in range(60)]
    as_z = [make_map(ZZ, 2, 3, np.asarray(m.table).reshape(-1)) for m in maps]
    # p - 1 alone, then coefficients near p / 2 whose products force early
    # reductions, then a mix
    for coeffs in ([p - 1] * 60, [(p + 1) // 2] * 60,
                   [int(c) for c in rng.integers(0, p, 60)]):
        fast = signed_sum(big, 2, 3, zip(coeffs, iter(maps)))
        slow = signed_sum(ZZ, 2, 3, zip(coeffs, iter(as_z)))
        assert np.array_equal(fast.table,
                              (np.asarray(slow.table) % p).astype(np.int64))
        assert fast == linear_combine(coeffs, maps)
        assert not fast.table.flags.writeable


def test_signed_sum_reduces_early_at_the_int32_bound(monkeypatch):
    # at p = 223, dim 3 tables are int32; each term adds 111 * 222 = 24,642
    # to every entry, so 87,148 terms pass 2^31 and force one early
    # reduction before the final one
    p = 223
    ring = CoefficientRing.prime_field(p)
    f = make_map(ring, 3, 0, [p - 1] * 3)
    assert f.table.dtype == np.int32
    count = 90_000
    assert 87_147 * 111 * (p - 1) < 2**31 < 87_148 * 111 * (p - 1)
    reductions = []
    reduce = endo._reduce

    def recorded(arr, *args):
        reductions.append(arr.dtype)
        return reduce(arr, *args)

    monkeypatch.setattr(endo, "_reduce", recorded)
    got = signed_sum(ring, 3, 0, ((111, f) for _ in range(count)))
    assert reductions == [np.int32] * 2
    assert got.table.dtype == np.int32
    assert got.table.tolist() == [count * 111 * (p - 1) % p] * 3


def test_signed_sum_of_no_terms_is_zero_and_inputs_stay_unwritten():
    assert signed_sum(F97, 2, 3, iter(())) == zero_map(F97, 2, 3)
    f = make_map(F97, 2, 1, [1, 2, 3, 4])
    before = f.table.copy()
    total = signed_sum(F97, 2, 1, ((c, f) for c in (1, -1, 5, 0)))
    assert total == make_map(F97, 2, 1, [5, 10, 15, 20])
    assert np.array_equal(f.table, before) and not f.table.flags.writeable


def test_signed_sum_rejects_mismatched_terms():
    f = make_map(F97, 2, 1, [1, 2, 3, 4])
    with pytest.raises(DegreeMismatch):
        signed_sum(F97, 2, 2, [(1, f)])
    with pytest.raises(BackendMismatch):
        signed_sum(F97, 3, 1, [(1, f)])
    with pytest.raises(RingMismatch):
        signed_sum(F101, 2, 1, [(1, f)])


def test_payload_round_trip():
    rng = np.random.default_rng(2)
    for ring in (F97, ZZ):
        f = (random_map(ring, 2, 2, rng) if ring.is_field
             else make_map(ring, 2, 2, [2**63 + 5, *range(-4, 3)]))
        payload = map_to_payload(f)
        # exact ints, not numpy scalars: the report writer joins such lists
        assert {type(v) for v in payload["entries"]} == {int}
        assert map_from_payload(payload) == f
    assert payload["entries"][0] == 2**63 + 5


@pytest.mark.parametrize("entry", [10**29, -2**63 - 1, 2**63, 2**64])
def test_entries_outside_int64_reduce_exactly(entry):
    # numpy would store these as object, uint64 or float64; each must be
    # reduced as the exact integer, in a table and through a payload
    want = [entry % 97, 96, 2, 3]
    f = make_map(F97, 2, 1, [entry, -1, 2, 3])
    assert f.table.reshape(-1).tolist() == want
    payload = map_to_payload(make_map(F97, 2, 1, [1, 1, 2, 3]))
    payload["entries"] = [entry, -1, 2, 3]
    assert map_from_payload(payload) == f
    exact = make_map(ZZ, 2, 1, [entry, -1, 2, 3])
    assert exact.table.reshape(-1).tolist() == [entry, -1, 2, 3]


@pytest.mark.parametrize("entry", [1.5, 7.0, "7", True, np.float64(3),
                                   np.bool_(True), None])
def test_non_integer_entries_are_refused(entry):
    # a float, a string or a bool used to be rounded, parsed or read as 0/1
    with pytest.raises(ShapeMismatch):
        make_map(F97, 2, 1, [entry, 2, 3, 4])
    with pytest.raises(ShapeMismatch):
        make_map(F97, 2, 1, np.array([entry, 2, 3, 4], dtype=object))
    payload = map_to_payload(make_map(F97, 2, 1, [1, 2, 3, 4]))
    payload["entries"][0] = entry
    with pytest.raises(ShapeMismatch):
        map_from_payload(payload)
    with pytest.raises(ShapeMismatch):
        make_map(F97, 2, 1, np.array([1.5, 2, 3, 4]))


def test_integer_entries_of_any_kind_are_accepted():
    want = make_map(F97, 2, 1, [1, 2, 3, 4])
    assert make_map(F97, 2, 1, [np.int64(1), np.uint8(2), 3, 4]) == want
    assert make_map(F97, 2, 1, np.array([1, 2, 3, 4], dtype=np.uint16)) == want
    assert map_from_payload(map_to_payload(want)) == want


def test_uint64_entries_past_int64_reduce_exactly():
    # a cast to int64 would wrap 2^64 - 1 to -1
    entries = np.array([2**64 - 1, 2**63, 2**63 - 1, 5], dtype=np.uint64)
    f = make_map(F97, 2, 1, entries)
    assert [int(v) for v in f.table.flat] == [int(v) % 97 for v in entries]


@pytest.mark.parametrize("entries", [
    np.array([2**62 - 1, -2**62, 2**62 + 12_345, -2**62 - 7], dtype=np.int64),
    np.array([2**64 - 1, 2**63, 2**63 + 2**40, 5], dtype=np.uint64),
    [2**64 + 3, -2**70 - 1, 2**100, -2**64],
], ids=["int64", "uint64", "python-int"])
def test_entries_are_reduced_before_an_int32_table_holds_them(entries):
    # a cast to int32 first would wrap every one of these
    want = [int(v) % 97 for v in entries]
    assert endo._dtype(F97, 2) == np.int32
    f = make_map(F97, 2, 1, entries)
    assert f.table.dtype == np.int32
    assert f.table.reshape(-1).tolist() == want
    if isinstance(entries, np.ndarray):  # the caller's dtype, unconverted
        table = endo._canonical_table(F97, entries.reshape(2, 2))
        assert table.dtype == np.int32
        assert table.reshape(-1).tolist() == want


@pytest.mark.parametrize("size", [1, endo._REDUCE_GATE, endo._REDUCE_GATE + 1,
                                  2**16, 2**16 + 1, 3 * 2**16 + 5])
@pytest.mark.parametrize("p", [3, 97, 2**31 - 1])
def test_reduce_matches_python_mod_on_every_int64(size, p):
    rng = np.random.default_rng(size + p)
    arr = rng.integers(-2**63, 2**63 - 1, size=size, dtype=np.int64,
                       endpoint=True)
    special = [0, p - 1, -(p - 1), p, -p, 5 * p, -7 * p, (2**62 // p) * p,
               2**63 - 1, -(2**63 - 1), -2**63]
    if size < len(special):  # each special value in a table of its own
        arrays = [np.full(size, v, dtype=np.int64) for v in special]
    else:  # at both ends and at chunk boundaries
        for k, v in enumerate(special):
            for at in (k, size - 1 - k, 2**16 - 1 - k, 2**16 + k):
                if 0 <= at < size:
                    arr[at] = v
        arrays = [arr]
    for arr in arrays:
        want = [int(v) % p for v in arr.tolist()]
        got = endo._reduce(arr.copy(), p)
        assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("size", [endo._REDUCE_GATE // 4, 4 * endo._REDUCE_GATE])
def test_canonical_tables_leave_the_callers_array_unwritten(size):
    entries = np.arange(-size, 3 * size, 4, dtype=np.int64) * 1_000_003
    before = entries.copy()
    dim = 2
    degree = size.bit_length() - 2  # dim^(degree + 1) == size
    f = make_map(F97, dim, degree, entries)
    assert np.array_equal(entries, before) and entries.flags.writeable
    assert f.table.tolist() == (before % 97).reshape(f.table.shape).tolist()
    shaped = entries.reshape((dim,) * (degree + 1))
    table = endo._canonical_table(F97, shaped)
    assert np.array_equal(entries, before) and shaped.flags.writeable
    assert table is not shaped and not table.flags.writeable


def _stacked(ring, dim, degree, rows, rng):
    singles = [random_map(ring, dim, degree, rng) for _ in range(rows)]
    return singles, stack_rows(singles)


def test_stacked_maps_compose_and_sum_row_by_row():
    rng = np.random.default_rng(11)
    for m, n in [(1, 1), (2, 3), (4, 0), (3, 2)]:
        fs, f = _stacked(F97, 2, m, 3, rng)
        gs, g = _stacked(F97, 2, n, 3, rng)
        one = random_map(F97, 2, n, rng)
        assert f.batch == 3 and f.table.shape == (3,) + (2,) * (m + 1)
        assert fs[0].batch is None and f.row(1) == fs[1]
        for i in range(m):
            got = partial_compose(f, g, i)
            assert got.batch == 3 and not got.table.flags.writeable
            for r in range(3):
                assert got.row(r) == partial_compose(fs[r], gs[r], i)
            # a single map serves every row, on either side
            assert partial_compose(f, one, i).row(2) == partial_compose(fs[2], one, i)
        for j in range(n):
            assert partial_compose(one, f, j).row(0) == partial_compose(one, fs[0], j)
        h = random_map(F97, 2, m, rng)
        total = signed_sum(F97, 2, m, [(2, h), (-1, f), (5, fs[0])])
        for r in range(3):
            assert total.row(r) == linear_combine([2, -1, 5], [h, fs[r], fs[0]])
        assert map_to_payload(total.row(1)) == map_to_payload(
            linear_combine([2, -1, 5], [h, fs[1], fs[0]]))


def test_stacked_maps_compare_row_by_row():
    rng = np.random.default_rng(12)
    fs, f = _stacked(F97, 2, 2, 3, rng)
    g = stack_rows([fs[0], fs[1], zero_map(F97, 2, 2)])
    assert f.differs(g).tolist() == [False, False, True]
    assert g.differs().tolist() == [True, True, False]
    assert f.differs(fs[1]).tolist() == [True, False, True]
    assert fs[0].differs(fs[0]) is False and fs[0].differs() is True
    assert f.differs(random_map(F97, 2, 3, rng)) is True
    exact = stack_rows([make_map(ZZ, 1, 1, [c]) for c in (0, -5, 2**70)])
    assert exact.differs().tolist() == [False, True, True]
    # one map given for every row stays single
    assert stack_rows([fs[0]] * 4) is fs[0]
    with pytest.raises(ShapeMismatch):
        map_to_payload(f)


def test_equality_of_stacked_maps_agrees_with_differs():
    rng = np.random.default_rng(14)
    fs, st = _stacked(F97, 2, 2, 3, rng)
    a = random_map(F97, 2, 2, rng)
    # three rows, each equal to a
    same = signed_sum(F97, 2, 2, [(1, st), (-1, st), (1, a)])
    assert same.table.shape == (3, 2, 2, 2)
    assert same.differs(a).tolist() == [False, False, False]
    assert same == a and a == same and not same != a
    assert st != a and st == st and st != same
    # stacks of other lengths are never equal
    assert stack_rows(fs[:2]) != st
    assert stack_rows([a, fs[0]]) != same


def test_stacked_maps_must_agree_on_their_rows():
    rng = np.random.default_rng(13)
    _, f = _stacked(F97, 2, 2, 3, rng)
    _, g = _stacked(F97, 2, 2, 2, rng)
    with pytest.raises(ShapeMismatch):
        partial_compose(f, g, 0)
    with pytest.raises(ShapeMismatch):
        signed_sum(F97, 2, 2, [(1, f), (1, g)])
    with pytest.raises(ShapeMismatch):
        stack_rows([f.row(0), f])
    with pytest.raises(DegreeMismatch):
        stack_rows([f.row(0), random_map(F97, 2, 3, rng)])
    with pytest.raises(RingMismatch):
        stack_rows([f.row(0), random_map(F101, 2, 2, rng)])


def test_a_stacked_composition_above_the_cap_is_refused_before_allocation():
    # 16 rows of 2^26 entries each would be 8 GB; the child's address space
    # is capped at 4 GB, so an allocation would fail as MemoryError there
    script = textwrap.dedent("""
        import resource
        import numpy as np
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
        from preoperad.endo import partial_compose, random_map
        from stacking import stack_rows
        from preoperad.errors import TableTooLarge
        from preoperad.rings import CoefficientRing
        ring = CoefficientRing.prime_field(97)
        rng = np.random.default_rng(0)
        f = stack_rows([random_map(ring, 2, 13, rng) for _ in range(16)])
        partial_compose(f.row(0), f.row(1), 0)  # one row alone fits
        try:
            partial_compose(f, f, 0)
        except TableTooLarge as exc:
            print("refused:", exc)
    """)
    here = Path(__file__).resolve().parent
    path = filter(None, [str(here.parent / "src"), str(here),
                         os.environ.get("PYTHONPATH")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: 16 stacked degree 25 tables")


def test_tables_are_read_only():
    f = random_map(F97, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        np.asarray(f.table)[0, 0, 0] = 5


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_degree_arithmetic_property(m, n, i, seed):
    if i >= m:
        i = i % m
    rng = np.random.default_rng(seed)
    f = random_map(F97, 2, m, rng)
    g = random_map(F97, 2, n, rng)
    out = partial_compose(f, g, i)
    assert out.degree == m + n - 1
    assert out.degree - 1 == (f.degree - 1) + (g.degree - 1)


def _composed_then_summed(ring, dim, degree, terms):
    """The sum of c * (f comp_i g) as it was built before compose_sum: each
    composite a map of its own, then one signed_sum."""
    return signed_sum(ring, dim, degree,
                      [(c, partial_compose(f, g, i)) for c, f, g, i in terms])


def _exact_sum(terms, p):
    """The sum of c * (f comp_i g) in Python ints, reduced mod p."""
    return sum(c * _exact_compose(f, g, i, ksign(i * (g.degree - 1)))
               for c, f, g, i in terms) % p


def _slot_terms(f, g, coeffs):
    """One term c * (f comp_i g) per coefficient, cycling over f's slots."""
    return [(c, f, g, t % f.degree) for t, c in enumerate(coeffs)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_compose_sums_are_exact_at_the_largest_prime_below_the_float_bound(
        d, monkeypatch):
    # coefficients other than +-1 take a product past 2^53 (and those near
    # +-p/2 past 2^63), so c scales the reduced product; +-1 fold into g's
    # float64 copy and add into the buffer block by block
    p, _ = _float_bound_primes(d)
    ring = CoefficientRing.prime_field(p)
    m, n = _BOUND_SHAPES[d]
    rng = np.random.default_rng(d + 40)
    f = make_map(ring, d, m, rng.integers(p - 8, p, d ** (m + 1)))
    g = make_map(ring, d, n, rng.integers(p - 8, p, d ** (n + 1)))
    terms = _slot_terms(f, g, [1, p // 2, -1, -(p // 2), 3, 1, -1001,
                               p // 2 - 1, -1])
    calls = _count_float_products(monkeypatch)
    got = endo.compose_sum(ring, d, m + n - 1, terms)
    assert len(calls) == len(terms)  # every product on the float64 path
    assert got.table.tolist() == _exact_sum(terms, p).tolist()
    assert got == _composed_then_summed(ring, d, m + n - 1, terms)
    assert not got.table.flags.writeable


@pytest.mark.parametrize("d", [2, 3, 4])
def test_compose_sums_are_exact_at_the_smallest_prime_above_the_float_bound(
        d, monkeypatch):
    _, q = _float_bound_primes(d)
    ring = CoefficientRing.prime_field(q)
    m, n = _BOUND_SHAPES[d]
    rng = np.random.default_rng(d + 50)
    f = make_map(ring, d, m, rng.integers(q - 8, q, d ** (m + 1)))
    g = make_map(ring, d, n, rng.integers(q - 8, q, d ** (n + 1)))
    terms = _slot_terms(f, g, [q // 2, -1, -(q // 2), 1, 1, q // 2 - 1])
    calls = _count_float_products(monkeypatch)
    got = endo.compose_sum(ring, d, m + n - 1, terms)
    assert calls == []
    assert got.table.tolist() == _exact_sum(terms, q).tolist()
    assert got == _composed_then_summed(ring, d, m + n - 1, terms)


@pytest.mark.parametrize("p", [97, _float_bound_primes(3)[0]],
                         ids=["p97", "largest-below-the-float-bound"])
def test_compose_sums_add_row_by_row_float_products_into_their_buffer(
        p, monkeypatch):
    # every term but the last two has inputs after its slot (B > 1), so
    # each of their products is one GEMM per row of f, and the last two, at
    # the last slot, one GEMM over f's rows; all but the first product
    # (and, at the largest prime, those whose coefficient scales the
    # reduced product) add into the sum
    ring = CoefficientRing.prime_field(p)
    rng = np.random.default_rng(p % 1000)
    f, f2 = (make_map(ring, 3, m, rng.integers(p - 8, p, 3 ** (m + 1)))
             for m in (4, 3))
    g, g2 = (make_map(ring, 3, n, rng.integers(0, p, 3 ** (n + 1)))
             for n in (3, 4))
    terms = [(1, f, g, 0), (-1, f2, g2, 1), (1, f, g, 1), (2, f, g, 2),
             (-1, f2, g2, 0), (1, f, g, 2), (-(p // 2), f, g, 0),
             (-1, f, g, 1), (1, f, g, 3), (-1, f2, g2, 2)]
    blocks = []
    product = endo._float_product

    def recorded(f3, g2, c, out=None):
        blocks.append((f3.shape[2], g2.shape[1], out is not None))
        return product(f3, g2, c, out)

    monkeypatch.setattr(endo, "_float_product", recorded)
    got = endo.compose_sum(ring, 3, 6, terms)
    assert len(blocks) == len(terms)
    assert [C > 1 for C, _, _ in blocks] == [True] * 8 + [False] * 2
    adds = sum(add for _, _, add in blocks)
    assert adds == (len(terms) - 1 if p == 97 else 7)
    assert got.table.tolist() == _exact_sum(terms, p).tolist()


def test_compose_sums_reduce_early_near_the_int64_limit(monkeypatch):
    # 2 (p - 1)^2 is within 2^34 of 2^63: two unreduced products of
    # coefficient +-1 would overflow, so the buffer is reduced between them
    p = 2**31 - 1
    ring = CoefficientRing.prime_field(p)
    assert 2 * p**2 < 2**63 <= 4 * (p - 1) ** 2
    rng = np.random.default_rng(60)
    f = make_map(ring, 2, 3, rng.integers(p - 8, p, 16))
    g = make_map(ring, 2, 2, rng.integers(p - 8, p, 8))
    reductions = []
    reduce = endo._reduce

    def counted(arr, *args):
        reductions.append(arr.size)
        return reduce(arr, *args)

    monkeypatch.setattr(endo, "_reduce", counted)
    terms = _slot_terms(f, g, [1, 1, -1, 1, -1, -1, 1, p // 2, -(p // 2), 3])
    got = endo.compose_sum(ring, 2, 4, terms)
    # 32-entry results end with np.remainder, so each _reduce is early
    assert len(reductions) >= 6
    assert got.table.tolist() == _exact_sum(terms, p).tolist()
    assert got == _composed_then_summed(ring, 2, 4, terms)


def test_compose_sums_mix_stacked_and_single_terms():
    # dim 4, results of 4^6 entries: float64 products that add into the
    # buffer, and ones of another shape that broadcast it
    rng = np.random.default_rng(61)
    fs, f_rows = _stacked(F97, 4, 4, 3, rng)
    gs, g_rows = _stacked(F97, 4, 2, 3, rng)
    f = random_map(F97, 4, 4, rng)
    g = random_map(F97, 4, 2, rng)
    terms = [(1, f, g, 0), (-2, f, g, 3), (1, f_rows, g, 1), (5, f, g, 2),
             (1, f_rows, g, 2), (-1, f, g_rows, 0), (1, f_rows, g_rows, 3)]
    got = endo.compose_sum(F97, 4, 5, terms)
    assert got.batch == 3
    assert got == _composed_then_summed(F97, 4, 5, terms)
    for r in range(3):
        def row(x):
            return x.row(r)
        want = endo.compose_sum(F97, 4, 5, [(c, row(a), row(b), i)
                                            for c, a, b, i in terms])
        assert got.row(r) == want
    # a stacked term first, then single ones
    assert (endo.compose_sum(F97, 4, 5, terms[2:3] + terms[:2])
            == _composed_then_summed(F97, 4, 5, terms[2:3] + terms[:2]))


@pytest.mark.parametrize("ring", [F97, ZZ], ids=["F97", "ZZ"])
def test_small_compose_sums_equal_compose_then_signed_sum(ring):
    rng = np.random.default_rng(62)
    f = make_map(ring, 2, 3, rng.integers(-50, 50, 16))
    g = make_map(ring, 2, 2, rng.integers(-50, 50, 8))
    h = make_map(ring, 2, 1, rng.integers(-50, 50, 4))
    terms = [(3, f, h, 0), (-1, f, h, 2), (0, f, h, 1), (7, g, g, 1),
             (2**70, g, g, 0), (1, h, f, 0)]
    got = endo.compose_sum(ring, 2, 3, terms)
    assert got == _composed_then_summed(ring, 2, 3, terms)
    assert endo.compose_sum(ring, 2, 3, []) == zero_map(ring, 2, 3)
    assert endo.compose_sum(ring, 2, 3, [(0, f, h, 0)]) == zero_map(ring, 2, 3)


def _raised(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


def test_compose_sums_raise_what_compose_then_signed_sum_raised():
    rng = np.random.default_rng(63)
    f = random_map(F97, 2, 3, rng)
    g = random_map(F97, 2, 2, rng)
    huge = CoefficientRing.prime_field(2**61 - 1)
    unheld = MultilinearMap(huge, 2, 1, np.eye(2, dtype=np.int64))
    big = random_map(F97, 2, 14, rng)
    bad_terms = {
        "slot past the end": (f, g, 3),
        "negative slot": (f, g, -1),
        "vector on the left": (random_map(F97, 2, 0, rng), g, 0),
        "rings differ": (f, random_map(F101, 2, 2, rng), 0),
        "dims differ": (f, random_map(F97, 3, 2, rng), 0),
        "rows differ": (_stacked(F97, 2, 3, 2, rng)[1],
                        _stacked(F97, 2, 2, 3, rng)[1], 0),
        "past the entry cap": (big, random_map(F97, 2, 13, rng), 0),
        "past int64": (unheld, unheld, 0),
        "another ring than the sum": (random_map(F101, 2, 3, rng),
                                      random_map(F101, 2, 2, rng), 0),
        "another dim than the sum": (random_map(F97, 3, 3, rng),
                                     random_map(F97, 3, 2, rng), 0),
        "another degree than the sum": (f, f, 0),
    }
    for what, (a, b, i) in bad_terms.items():
        for c in (1, 0, 97):
            for before in ([], [(1, f, g, 1)]):
                terms = before + [(c, a, b, i)]
                want = _raised(lambda: _composed_then_summed(F97, 2, 4, terms))
                got = _raised(lambda: endo.compose_sum(F97, 2, 4, terms))
                assert got == want, (what, c)
        if what.startswith("another"):
            continue  # a term of another sum composes on its own
        # a single composition refuses what its one-term sum refuses
        alone = _raised(lambda: endo.compose_sum(F97, 2, 4, [(1, a, b, i)]))
        assert _raised(lambda: partial_compose(a, b, i)) == alone, what
        assert _raised(lambda: substitute(a, b, i)) == alone, what


def test_one_term_sums_return_their_term_only_when_it_is_small_and_read_only():
    rng = np.random.default_rng(64)
    f = random_map(F97, 2, 3, rng)
    zero_terms = [(0, random_map(F97, 2, 3, rng)), (97, f)]
    assert signed_sum(F97, 2, 3, [(1, f)]) is f
    assert signed_sum(F97, 2, 3, [(98, f)]) is f
    assert signed_sum(F97, 2, 3, zero_terms + [(1, f)] + zero_terms) is f
    two = signed_sum(F97, 2, 3, [(1, f), (1, f)])
    assert two is not f and two == linear_combine([2], [f])
    assert signed_sum(F97, 2, 3, [(2, f)]) is not f
    # a map built directly keeps its table as given, unreduced and
    # writable; a sum of it is a new canonical read-only table
    raw = MultilinearMap(F97, 2, 1, np.array([[100, 0], [0, 1]]))
    one = random_map(F97, 2, 1, rng)
    for terms in ([(1, raw)], [(98, raw)], [(0, one), (1, raw), (97, one)]):
        got = signed_sum(F97, 2, 1, terms)
        assert got.table.tolist() == [[3, 0], [0, 1]]
        assert not got.table.flags.writeable
    # a table past _ONLY_TERM entries is copied: a streamed sum of large
    # terms holds its buffer and one term, never two terms
    big = random_map(F97, 2, 16, rng)
    assert big.table.size == 2 * endo._ONLY_TERM
    got = signed_sum(F97, 2, 16, [(1, big)])
    assert got is not big and got == big and not got.table.flags.writeable
    # validation is unchanged: a zero term of another degree is refused
    with pytest.raises(DegreeMismatch):
        signed_sum(F97, 2, 3, [(1, f), (0, random_map(F97, 2, 2, rng))])
