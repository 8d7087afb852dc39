"""Dense multilinear maps on R^d, the concrete backend for the calculus.

A degree-n element is a map (R^d)^n -> R^d stored as a coefficient table of
shape (d,) * (n + 1), axis 0 the output index, axis 1 + t the t-th input
(row-major flat layout, output index slowest). Degree 0 elements are plain
vectors. A stacked map carries one more, leading, axis: row r of a table of
shape (B, d, ..., d) is the r-th of B maps of the same degree, so that the
trials of a law that share their degrees run through the calculus as one
batch. Composition and signed sums work row by row, and a single map serves
every row of a stacked one. Throughout, |f| denotes the shifted degree
deg(f) - 1; it drives every sign below.

Over F_p a table is int32 when (p // 2) d (p - 1)^2 < 2^24 (_limits: p = 97
up to dim 37, p <= 223 at dim 3, p <= 199 at dim 4) and int64 otherwise, with
entries in [0, p); over Z it holds exact Python ints (object). Each (p, d)
has that one table dtype (_dtype), and every composition and signed sum
reduces its raw result in place, in the dtype of its operands. A sum of
compositions, compose_sum, reduces once: each composite is added unreduced
into one buffer (delayed modular reduction, Dumas, Giorgi and Pernet 2008),
which is reduced at the end and whenever the bound on its entries would
reach 2^31 or 2^63, as its itemsize says, so every table handed out is
canonical. A single composition takes
the steps of a compose_sum of one term. A signed sum whose only nonzero
term has coefficient 1 and a small read-only table is that term. Tables of
more than _REDUCE_GATE entries go through _reduce, as x - p * floor(x / p) in
fixed-size chunks through one small scratch quotient, since numpy's scalar
integer floor division runs at memory speed and np.remainder does not;
smaller ones take one np.remainder call, whose per-call cost is lower
there. The gate is a property of the table's size, not a setting.

Most compositions and sums of a law suite are of small tables, where numpy's
kernel is a small part of a call, so the per-call work is kept short. What a
composition needs besides its operands, the ring's limits and the shapes of
its product, is worked out once per (p, d, deg f, deg g, slot) and cached
under those ints (_plan), never under the frozen ring, whose hash is slow.
partial_compose runs the checks, the product and the finish of a one-term
compose_sum without its loop; one _product serves both. A product added
into a sum with coefficient +-1 is added or subtracted as it is, with no
negated copy. _composable checks the caps on entries and on numpy's axes
only for a result that could pass one, and results are built by _new_map
without the frozen dataclass __init__.

numpy has no BLAS for integers, so a composition over F_p whose result has
more than _REDUCE_GATE entries multiplies in float64 (as FFLAS-FFPACK does,
Dumas, Giorgi and Pernet 2008). That is exact while d (p - 1)^2 < 2^53:
every product and partial sum of the contraction is then an integer below
2^53 in magnitude. Where even (p // 2) d (p - 1)^2 < 2^24, the tables
are int32 and it multiplies in float32, exact for every coefficient in
(-p/2, p/2], and sums in int32, reduced early against 2^31 (at least 128
worst-case terms apart). The product runs one output block of at most
_BLOCK entries at a time (cast the block's operands, multiply, and add or
cast the product into the sum's buffer), so every float temporary stays
within _BLOCK entries and it allocates little beyond the result. It is
one loop nest, whose layout B > 1 alone picks, B the result's entries
after the slot (_float_product). Z, primes past the float64 bound,
smaller results and a stacked g keep the integer matmul.

Composition convention: plugging g into input slot i of f costs the sign
(-1)^(i * |g|), so

    f comp_i g  =  (-1)^(i|g|) * f(x_1 .. x_i, g(..), x_(i+2) ..),

with 0 <= i <= |f|. The unit is the identity matrix in degree 1 and is
absorbed with sign +1 from either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BackendMismatch,
    DegreeMismatch,
    IndexOutOfScope,
    InvalidDegree,
    RingMismatch,
    ShapeMismatch,
    TableTooLarge,
    UnsupportedRing,
)
from .rings import CoefficientRing, require_field, require_integer

_INT64 = 2**63
_INT32 = 2**31
# the largest table ever allocated: 512 MB of int64, 256 MB of int32
MAX_ENTRIES = 2**26
# numpy's most axes: a table has degree + 1, a stacked one degree + 2
MAX_AXES = 64
# tables above this many entries are reduced by chunked floor division;
# at or below it one np.remainder call costs less
_REDUCE_GATE = 2**10
_REDUCE_CHUNK = 2**16
# float64 holds every integer below 2^53 exactly, float32 below 2^24
_FLOAT_EXACT = 2**53
_FLOAT32_EXACT = 2**24
# outputs of one float block of a composition
_BLOCK = 2**16
# a signed sum holds a first term of at most this many entries uncopied
# until a second one comes; a larger one is copied at once, so a streamed
# sum of large fresh terms never holds two of them beside its buffer
_ONLY_TERM = 2**16


def ksign(exponent: int) -> int:
    """(-1)^exponent for possibly negative exponents."""
    return -1 if exponent % 2 else 1


# eq=False keeps the __eq__ below and leaves elements unhashable
@dataclass(frozen=True, eq=False)
class MultilinearMap:
    """A degree-n multilinear map on R^d as a canonical coefficient table."""

    ring: CoefficientRing
    dim: int
    degree: int
    table: np.ndarray

    @property
    def batch(self) -> int | None:
        """The number of rows of a stacked map, None for a single map."""
        return self.table.shape[0] if self.table.ndim > self.degree + 1 else None

    def row(self, r: int) -> MultilinearMap:
        """Row r of a stacked map as a single map; a single map is every row."""
        if self.batch is None:
            return self
        return MultilinearMap(self.ring, self.dim, self.degree, self.table[r])

    def __eq__(self, other) -> bool:
        """Equal in every row, as differs sees it: a single map equals a
        stacked one whose rows all equal it."""
        if not isinstance(other, MultilinearMap):
            return NotImplemented
        if None not in (self.batch, other.batch) and self.batch != other.batch:
            return False
        return not np.any(self.differs(other))

    def is_zero(self) -> bool:
        return not np.any(self.table)

    def differs(self, other: MultilinearMap | None = None):
        """Whether each row differs from other (from zero when other is None):
        a bool array over the rows when either map is stacked, one bool
        otherwise. Maps of another ring, dimension or degree differ."""
        if other is None:
            diff = self.table != 0
        elif (self.degree != other.degree or self.dim != other.dim
              or (self.ring is not other.ring and self.ring != other.ring)):
            return True
        else:
            diff = self.table != other.table
        if diff.ndim > self.degree + 1:  # stacked
            return diff.reshape(len(diff), -1).any(axis=1)
        return bool(diff.any())


def _new_map(ring: CoefficientRing, dim: int, degree: int,
             table: np.ndarray) -> MultilinearMap:
    """A map from parts the package built and checked itself, without the
    frozen dataclass __init__, which sets every field through
    object.__setattr__; the result is the same read-only map."""
    m = object.__new__(MultilinearMap)
    fields = m.__dict__
    fields["ring"] = ring
    fields["dim"] = dim
    fields["degree"] = degree
    fields["table"] = table
    return m


def check_int64(ring: CoefficientRing, dim: int):
    """Refuse F_p tables of dimension dim that int64 cannot hold exactly.

    A contraction sums dim products below p^2, so dim * p^2 < 2^63 keeps it
    exact. Tables the narrow bound of _limits admits are int32, whose
    contractions stay below 2^24; signed_sum and compose_sum reduce early
    against the width of their buffer, 2^31 or 2^63.
    """
    _limits(ring.modulus, dim)


@lru_cache(maxsize=256)
def _limits(p: int | None, dim: int) -> tuple:
    """(exact, narrow, step, cap) for F_p tables over R^dim, worked out
    once per (p, dim), two ints. step = d (p - 1)^2 bounds the entries of
    one unscaled composite. exact says whether step < 2^53, so that the
    float64 product is exact, and cap is the bound a scaled composite must
    stay below (2^53 when exact, 2^63 - p otherwise). narrow says whether
    (p // 2) step < 2^24: a product scaled by any coefficient in (-p/2,
    p/2] is then exact in float32, at least 128 of them fit in int32, and
    the tables are int32 (_dtype).
    Over Z (p None) nothing is bounded. Refuses what int64 cannot hold; a
    refusal is not cached, so it is raised on every call."""
    if p is None:
        return False, False, 0, None
    if dim * p ** 2 >= _INT64:
        raise UnsupportedRing(
            f"F_{p} tables of dimension {dim} overflow int64 "
            f"(need dim * p^2 < 2^63)")
    step = dim * (p - 1) ** 2
    exact = step < _FLOAT_EXACT
    return (exact, (p // 2) * step < _FLOAT32_EXACT, step,
            _FLOAT_EXACT if exact else _INT64 - p)


def _dtype(ring: CoefficientRing, dim: int):
    """The dtype of every table over ring and R^dim: int32 when _limits
    says narrow, int64 for the other primes it admits, object (exact
    Python ints) over Z."""
    if not ring.is_field:
        return object
    return np.int32 if _limits(ring.modulus, dim)[1] else np.int64


class _Plan(NamedTuple):
    """A composition's _limits, but narrow, which its tables' dtype
    states, and the shapes of its product."""

    exact: bool
    step: int
    cap: int | None
    g_shape: tuple  # g's table as (d, d^n)
    f_shape: tuple  # f's as (d^(i+1), d, d^(|f|-i))
    shape: tuple  # the result's, (d,) * (m + n)
    size: int  # the result's entries
    large: bool  # whether the result, single or stacked, may pass a cap


@lru_cache(maxsize=1024)
def _plan(p: int | None, d: int, m: int, n: int, i: int) -> _Plan:
    """The _Plan of a degree-n table in slot i of a degree-m one over F_p
    (Z when p is None) and R^d, worked out once per five ints."""
    exact, _, step, cap = _limits(p, d)
    return _Plan(exact, step, cap, (d, d ** n),
                 (d ** (i + 1), d, d ** (m - 1 - i)), (d,) * (m + n),
                 d ** (m + n), d ** (m + n) > MAX_ENTRIES
                 or m + n >= MAX_AXES)


def check_entries(dim: int, degree: int, rows: int | None = None):
    """Refuse a degree-n table over R^dim (rows stacked ones, with one more
    axis, unless rows is None) before allocating it, when its axes pass
    MAX_AXES or its rows * dim^(n + 1) entries pass MAX_ENTRIES."""
    axes = degree + (1 if rows is None else 2)
    if axes > MAX_AXES:
        raise TableTooLarge(f"a {'' if rows is None else 'stacked '}degree "
                            f"{degree} table has {axes} axes, past {MAX_AXES}")
    if (rows or 1) * dim ** (degree + 1) > MAX_ENTRIES:
        what = (f"{rows} stacked degree {degree} tables over dimension {dim} "
                f"have {rows} * " if rows else
                f"a degree {degree} table over dimension {dim} has ")
        raise TableTooLarge(
            f"{what}{dim}^{degree + 1} entries, more than the cap of 2^26")


def _reduce(arr: np.ndarray, p: int) -> np.ndarray:
    """arr, a writable int64 (or int32) array, reduced into [0, p) in
    place.

    Above _REDUCE_GATE entries the flat table is reduced in chunks of
    _REDUCE_CHUNK through one scratch quotient, as x - p * floor(x / p):
    numpy's scalar integer floor division rounds toward -inf and runs at
    memory speed, two to three times faster than np.remainder, and the
    wrap-around of p * floor(x / p) cancels in the subtraction because the
    true result fits. Exact for every entry.
    """
    if arr.size <= _REDUCE_GATE or not arr.flags.c_contiguous:
        np.remainder(arr, p, out=arr)
        return arr
    flat = arr.reshape(-1)
    scratch = np.empty(min(flat.size, _REDUCE_CHUNK), dtype=arr.dtype)
    for lo in range(0, flat.size, _REDUCE_CHUNK):
        part = flat[lo:lo + _REDUCE_CHUNK]
        q = scratch[:part.size]
        np.floor_divide(part, p, out=q)
        q *= p
        part -= q
    return arr


def _canonical_table(ring: CoefficientRing, arr: np.ndarray) -> np.ndarray:
    """A read-only canonical copy of arr in the ring's table dtype (_dtype);
    the caller's array is never written. Entries a cast to that dtype could
    wrap (object, int64 into int32, uint64) are reduced before the cast."""
    dtype = _dtype(ring, arr.shape[0])
    if dtype is object:
        arr = np.asarray(arr, dtype=object)
    elif arr.dtype == object or not np.can_cast(arr.dtype, dtype):
        # exact on Python ints of any size
        arr = np.array(arr % ring.modulus, dtype=dtype, order="C")
    else:
        arr = _reduce(np.array(arr, dtype=dtype, order="C"), ring.modulus)
    arr.setflags(write=False)
    return arr


def _integer_entries(entries) -> np.ndarray:
    """entries as a flat integer array; object dtype (exact Python ints)
    when some lie outside int64. An entry that is not an integer, such as a
    float, a string or a bool, is refused rather than rounded or parsed."""
    if isinstance(entries, np.ndarray) and entries.dtype.kind in "iu":
        # uint64 holds values past int64, which the int64 cast would wrap
        return entries.astype(object) if entries.dtype == np.uint64 else entries
    values = list(np.ravel(entries) if isinstance(entries, np.ndarray) else entries)
    for v in values:
        require_integer(v, "a table entry", ShapeMismatch)
    flat = np.asarray(values)
    if flat.dtype.kind != "i":
        # numpy holds ints past int64 as uint64, float64 or object, which
        # the int64 cast would wrap or round; Python ints stay exact
        flat = np.array([int(v) for v in values], dtype=object)
    return flat


def make_map(ring: CoefficientRing, dim: int, degree: int, entries) -> MultilinearMap:
    """Build a map from flat integer entries, length dim^(degree + 1),
    row-major."""
    if require_integer(dim, "dim", ShapeMismatch) < 1:
        raise ShapeMismatch(f"dimension must be >= 1, got {dim}")
    if require_integer(degree, "degree", InvalidDegree) < 0:
        raise InvalidDegree(f"degree must be >= 0, got {degree}")
    check_entries(dim, degree)
    flat = _integer_entries(entries)
    want = dim ** (degree + 1)
    if flat.size != want:
        raise ShapeMismatch(
            f"degree {degree} over dim {dim} needs {want} entries, got {flat.size}"
        )
    table = _canonical_table(ring, flat.reshape((dim,) * (degree + 1)))
    return MultilinearMap(ring, dim, degree, table)


def zero_map(ring: CoefficientRing, dim: int, degree: int) -> MultilinearMap:
    if degree < 0:
        raise InvalidDegree(f"degree must be >= 0, got {degree}")
    check_entries(dim, degree)
    table = np.zeros((dim,) * (degree + 1), dtype=_dtype(ring, dim))
    table.setflags(write=False)
    return MultilinearMap(ring, dim, degree, table)


def unit_map(ring: CoefficientRing, dim: int) -> MultilinearMap:
    """The degree-1 identity, neutral for composition from both sides."""
    check_entries(dim, 1)
    table = _canonical_table(ring, np.eye(dim, dtype=np.int64))
    return MultilinearMap(ring, dim, 1, table)


def _check_pair(f: MultilinearMap, g: MultilinearMap):
    if f.ring is not g.ring and f.ring != g.ring:
        raise RingMismatch(f"{f.ring.label()} vs {g.ring.label()}")
    if f.dim != g.dim:
        raise BackendMismatch(f"dim {f.dim} vs {g.dim}")


def _composable(f: MultilinearMap, g: MultilinearMap, i: int) -> _Plan:
    """Refuse g in slot i of f unless they share ring and dimension, deg f
    >= 1, 0 <= i < deg f, int64 holds the ring's tables, the result stays
    within the caps on entries and axes (tested only when it may pass
    one) and stacked operands have matching rows; return their _plan."""
    ring, d = f.ring, f.dim
    if g.ring is not ring or g.dim != d:
        _check_pair(f, g)
    m, n = f.degree, g.degree
    if m < 1:
        raise InvalidDegree("left operand of a composition needs degree >= 1")
    if not 0 <= i < m:
        raise IndexOutOfScope(f"slot {i} outside 0..{m - 1} for degree {m}")
    plan = _plan(ring.modulus, d, m, n, i)
    ft, gt = f.table, g.table
    if ft.ndim == m + 1 and gt.ndim == n + 1:  # two single maps
        if plan.large:
            check_entries(d, m + n - 1)
        return plan
    # a single map, or a stack of one, serves every row of the other
    f_rows = ft.shape[0] if ft.ndim > m + 1 else 1
    g_rows = gt.shape[0] if gt.ndim > n + 1 else 1
    rows = max(f_rows, g_rows)
    if plan.large or rows * plan.size > MAX_ENTRIES:
        check_entries(d, m + n - 1, rows)
    if f_rows != g_rows and f_rows > 1 and g_rows > 1:
        raise ShapeMismatch(f"stacked maps of {f_rows} and {g_rows} rows")
    return plan


def _product(acc, c: int, f: MultilinearMap, g: MultilinearMap,
             plan: _Plan) -> np.ndarray:
    """acc + c * (g plugged into slot i of f), unreduced, as a table of the
    result's shape; a new table when acc is None. f and g, with slot i,
    have passed _composable, which gave their plan.

    With f's table viewed as (d^(i+1), d, d^(|f|-i)) and g's as (d, d^n),
    the broadcast product G^T @ F has shape (d^(i+1), d^n, d^(|f|-i)):
    output, inputs before slot i, g's inputs, inputs after slot i, which is
    already the result's axis order. Stacked operands keep their row axis
    in front and pair row with row. With exact_in_float, a single g and a
    result above _REDUCE_GATE entries, _float_product computes it block by
    block in float64, or in float32 on int32 tables, c folded into g, adding
    into acc when acc has the result's shape; B = d^(|f|-i) > 1 alone
    picks its layout. Otherwise it is one integer
    matmul in the operands' dtype: a new table is
    scaled by c in place, and a product added into acc is added or
    subtracted when c is +-1, through _add_into, which also takes a
    product of another shape than acc. The caller keeps |c| d (p - 1)^2
    within int64, within 2^53 when exact_in_float and within 2^24 on
    int32 tables.
    """
    exact_in_float, _, _, g_shape, f_shape, shape, size, _ = plan
    ft, gt = f.table, g.table
    single_f = ft.ndim == f.degree + 1
    if gt.ndim == g.degree + 1:
        g2 = gt.reshape(g_shape)
        rows = 1 if single_f else len(ft)
        if exact_in_float and rows * size > _REDUCE_GATE:
            if not single_f:
                shape = (rows, *shape)
            f3 = ft.reshape(-1, *f_shape[1:])
            if (acc is not None and acc.shape == shape
                    and acc.flags.c_contiguous):
                _float_product(f3, g2, c,
                               acc.reshape(len(f3), g_shape[1], -1))
                return acc
            raw = _float_product(f3, g2, c).reshape(shape)
            return raw if acc is None else _add_into(acc, 1, raw)
        g_t = g2.T
    else:  # one G^T per row, broadcast over f's outputs
        g_t = gt.reshape(len(gt), 1, *g_shape).swapaxes(-1, -2)
    raw = g_t @ ft.reshape(f_shape if single_f else (len(ft), *f_shape))
    # a stacked product has the rows of f, of g, or of both in front
    raw = raw.reshape(shape if raw.ndim == 3 else (len(raw), *shape))
    if acc is not None:
        if c != 1 and c != -1:
            np.multiply(raw, c, out=raw)
            c = 1
        return _add_into(acc, c, raw)
    if c == -1:
        np.negative(raw, out=raw)
    elif c != 1:
        np.multiply(raw, c, out=raw)
    return raw


def _float_product(f3: np.ndarray, g2: np.ndarray, c: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The product out[a, x, b] = sum_k c * g2[k, x] * f3[a, k, b], computed
    in floating point one output block at a time: a new table of shape
    (A, X, B), or, when out is given, added into out.

    It multiplies in float64, exact when d * |c| (p - 1)^2 < 2^53, or, when
    f3 is int32, as the tables of a narrow ring (_limits) are, in float32,
    exact when that bound is below 2^24: every product and partial sum is
    then an integer below the bound in magnitude. A new table has f3's
    dtype, as g2 and out do.

    B alone picks the layout. When B is 1, a block is one (rows, d) @ (d, w)
    GEMM over its rows of f, already in the result's (a, x) order; when
    B > 1, it is one (w, d) @ (d, B) GEMM per row a of f, already in the
    result's (a, x, b) order. There is one block order: the outer loop runs
    over w of g's X columns at a time, each cast once with c folded in, and
    the inner loop over f's rows, rows at a time (one row when w < X), each
    cast, multiplied and its product cast or added into the integer result
    in one ufunc pass. So every float temporary, the copies of f's rows and
    of g's columns and the product, stays within _BLOCK entries, unless one
    of f's rows (B * d entries) alone is larger.
    """
    A, d, B = f3.shape
    X = g2.shape[1]
    real = np.float32 if f3.dtype == np.int32 else np.float64
    add = out is not None
    if not add:
        out = np.empty((A, X, B), dtype=f3.dtype)
    w = min(X, max(1, _BLOCK // max(B, d)))
    rows = min(A, max(1, _BLOCK // (B * max(X, d)))) if w == X else 1
    buf = np.empty(rows * B * w, dtype=real)  # the product of one block
    for x0 in range(0, X, w):
        cols = g2[:, x0:x0 + w]  # (d, w) when B is 1, (w, d) otherwise
        gf = (cols if B == 1 else cols.T).astype(real, order="C")
        if c != 1:
            gf *= c
        for a0 in range(0, A, rows):
            block = out[a0:a0 + rows, x0:x0 + w]  # C-contiguous
            r, n = block.shape[:2]
            fb = f3[a0:a0 + rows].astype(real)
            prod = buf[:r * n * B].reshape(r, n, B)
            if B == 1:
                np.matmul(fb.reshape(r, d), gf, out=prod.reshape(r, n))
            else:
                np.matmul(gf, fb, out=prod)
            if add:  # cast on the fly: exact below the float bound
                np.add(block, prod, out=block, dtype=block.dtype,
                       casting="unsafe")
            else:
                block[...] = prod
    return out


def substitute(f: MultilinearMap, g: MultilinearMap, i: int) -> MultilinearMap:
    """g plugged into input slot i of f, unsigned: a one-term compose_sum
    whose coefficient cancels the Koszul sign."""
    c = -1 if i * (g.degree - 1) % 2 else 1
    return compose_sum(f.ring, f.dim, f.degree + g.degree - 1, ((c, f, g, i),))


def partial_compose(f: MultilinearMap, g: MultilinearMap, i: int) -> MultilinearMap:
    """f comp_i g with the Koszul twist (-1)^(i * |g|): a one-term
    compose_sum, checked, multiplied and finished by the same steps
    without its loop. A coefficient of +-1 never takes the product past
    its bound, so no bookkeeping of one is needed."""
    plan = _composable(f, g, i)
    n = g.degree
    raw = _product(None, -1 if i * (n - 1) % 2 else 1, f, g, plan)
    return _finish(f.ring, f.dim, f.degree + n - 1, raw)


def compose_sum(ring: CoefficientRing, dim: int, degree: int,
                terms) -> MultilinearMap:
    """Sum of c * (f comp_i g) over (c, f, g, i) taken one at a time from
    terms, reduced once; a single composition is a sum of one term.

    Each term is checked by _composable, which gives its _plan, then
    against the sum's ring, dimension and degree, as signed_sum checks its
    terms, also when its coefficient is 0. Its product, with the Koszul
    sign and c folded in, is added unreduced into one buffer (delayed
    modular reduction, as FFLAS-FFPACK does, Dumas, Giorgi and Pernet
    2008): the first product is the buffer, and a float product adds
    into it block by block. Over F_p coefficients are taken in (-p/2,
    p/2]; the buffer is reduced at the end, and earlier whenever the bound
    on its entries would reach 2^63, or 2^31 when it is int32, as the
    tables of a narrow ring (_limits) are. A coefficient that would take a
    product past the bound, or past 2^53 when the float64 product is
    exact, scales the reduced product instead.
    No term's product is kept, and no input table is written.
    """
    p = ring.modulus
    acc = None
    bound = 0  # bound on the magnitude of acc's entries (F_p only)
    for c, f, g, i in terms:
        plan = _composable(f, g, i)
        n = g.degree
        if f.ring is not ring or f.dim != dim or f.degree + n - 1 != degree:
            _check_term(ring, dim, degree, f.ring, f.dim, f.degree + n - 1)
        if type(c) is not int:
            c = int(require_integer(c, "a coefficient", ShapeMismatch))
        if i * (n - 1) % 2:
            c = -c
        reduced = False  # the product reduced before c scales it
        if p is not None:
            c %= p
            if c > p // 2:
                c -= p
            step = abs(c) * plan.step
            if step >= plan.cap:
                reduced = True
                step = abs(c) * (p - 1)
            if acc is not None and bound + step >= (
                    _INT32 if acc.itemsize == 4 else _INT64):
                _reduce(acc, p)
                bound = p - 1
            bound += step
        if reduced:
            raw = _reduce(_product(None, 1, f, g, plan), p)
            acc = _add_into(acc, c, raw)
        elif c:
            acc = _product(acc, c, f, g, plan)
        del f, g  # not kept while the next term is built
    return _finish(ring, dim, degree, acc)


def _finish(ring: CoefficientRing, dim: int, degree: int,
            acc) -> MultilinearMap:
    """The sum held in acc, reduced in place and read-only; zero when acc
    is None."""
    if acc is None:
        return zero_map(ring, dim, degree)
    if ring.modulus is not None:
        _reduce(acc, ring.modulus)
    acc.setflags(write=False)
    return _new_map(ring, dim, degree, acc)


def signed_sum(ring: CoefficientRing, dim: int, degree: int,
               terms) -> MultilinearMap:
    """Sum of c * m over (c, m) pairs taken one at a time from terms.

    The first nonzero term is copied into one writable buffer and later
    terms are added into it in place; no term is kept and no input table is
    written. A sum whose only nonzero term has coefficient 1, a read-only
    table (as every table the package builds has) and at most _ONLY_TERM
    entries is that term, returned as it is. The buffer takes rows when a
    stacked term arrives, and a single term adds to every row. Over F_p
    coefficients are taken in (-p/2, p/2], the buffer is reduced once at
    the end, and earlier whenever the bound on its entries would reach 2^63,
    or 2^31 when it is int32.
    """
    p = ring.modulus
    acc = None
    only = None  # the first nonzero term, uncopied while it may be alone
    bound = 0  # bound on the magnitude of acc's entries (F_p only)
    for c, m in terms:
        if m.ring is not ring or m.dim != dim or m.degree != degree:
            _check_term(ring, dim, degree, m.ring, m.dim, m.degree)
        if type(c) is not int:
            c = int(require_integer(c, "a coefficient", ShapeMismatch))
        if p is not None:
            c %= p
            if c > p // 2:
                c -= p
            step = abs(c) * (p - 1)
            if acc is not None and bound + step >= (
                    _INT32 if acc.itemsize == 4 else _INT64):
                _reduce(acc, p)
                bound = p - 1
            bound += step
        if (c == 1 and acc is None and only is None
                and m.table.size <= _ONLY_TERM and not m.table.flags.writeable):
            only = m
        elif c:
            if only is not None:
                acc, only = only.table.copy(), None
            acc = _add_into(acc, c, m.table)
        del m  # not kept while the next term is built
    return only if only is not None else _finish(ring, dim, degree, acc)


def _check_term(ring: CoefficientRing, dim: int, degree: int,
                term_ring: CoefficientRing, term_dim: int, term_degree: int):
    """Refuse a term of another ring, dimension or degree than its sum; an
    equal ring that is another object passes."""
    if term_ring != ring:
        raise RingMismatch(f"{term_ring.label()} vs {ring.label()}")
    if term_dim != dim:
        raise BackendMismatch(f"dim {term_dim} vs {dim}")
    if term_degree != degree:
        raise DegreeMismatch(f"degree {term_degree} vs {degree}")


def _add_into(acc, c: int, table: np.ndarray) -> np.ndarray:
    """acc + c * table, added in place into acc; a new buffer for the first
    term (acc None) and when a stacked table brings rows."""
    if acc is None:
        if c == 1:
            return table.copy()
        return np.negative(table) if c == -1 else table * c
    if table.shape != acc.shape:
        try:
            shape = np.broadcast_shapes(acc.shape, table.shape)
        except ValueError:
            raise ShapeMismatch(f"stacked maps of shapes {acc.shape} "
                                f"and {table.shape}") from None
        if shape != acc.shape:
            acc = np.broadcast_to(acc, shape).copy()
    if c == 1:
        acc += table
    elif c == -1:
        acc -= table
    else:
        acc += table * c
    return acc


def linear_combine(coeffs, maps) -> MultilinearMap:
    """Sum of c_k * m_k; all maps must share ring, dim and degree."""
    maps = list(maps)
    coeffs = list(coeffs)
    if not maps:
        raise DegreeMismatch("linear_combine needs at least one map")
    if len(coeffs) != len(maps):
        raise ShapeMismatch(f"{len(coeffs)} coefficients for {len(maps)} maps")
    first = maps[0]
    return signed_sum(first.ring, first.dim, first.degree, zip(coeffs, maps))


def random_map(ring: CoefficientRing, dim: int, degree: int, rng) -> MultilinearMap:
    """Uniform table over F_p from a numpy Generator."""
    return _random_maps(ring, dim, (degree,), rng)[0]


def _random_maps(ring: CoefficientRing, dim: int, degrees, rng,
                 rows: int = 1) -> list:
    """Uniform tables over F_p of each of degrees, in order, with rows rows
    each (a single table when rows is 1), from a single draw of rng: row r
    of the tables is what the r-th of rows calls with rows = 1 gives, and
    the stream is left where those calls leave it. One row is the tables
    of one random_map call per degree in turn. The draw is int64, so the
    values and the stream do not depend on the ring's table dtype, to
    which each table is cast. Each table is read-only and C-contiguous."""
    if not ring.is_field:
        raise UnsupportedRing("random tables need a finite field")
    for degree in degrees:
        if degree < 0:
            raise InvalidDegree(f"degree must be >= 0, got {degree}")
        check_entries(dim, degree, rows if rows > 1 else None)
    p = ring.modulus
    dtype = _dtype(ring, dim)
    # drawn in [0, p) already: canonical as it comes. A draw fills its
    # rows in C order, one after another, and a row its tables
    sizes = [dim ** (degree + 1) for degree in degrees]
    flat = rng.integers(0, p, size=(rows, sum(sizes)), dtype=np.int64)
    lead = (rows,) if rows > 1 else ()
    maps = []
    end = 0
    for degree, size in zip(degrees, sizes):
        table = np.ascontiguousarray(flat[:, end:end + size], dtype).reshape(
            lead + (dim,) * (degree + 1))
        table.setflags(write=False)
        maps.append(_new_map(ring, dim, degree, table))
        end += size
    return maps


def map_to_payload(f: MultilinearMap) -> dict:
    """A single map as JSON data; serialize a stacked map row by row."""
    if f.batch is not None:
        raise ShapeMismatch("a stacked map has no payload; serialize its rows")
    return {
        "ring": f.ring.to_payload(),
        "dim": f.dim,
        "degree": f.degree,
        "entries": np.asarray(f.table).reshape(-1).tolist(),
    }


def map_from_payload(payload: dict) -> MultilinearMap:
    """The single map of a payload; a missing field is refused with
    BadConfig."""
    ring, dim, degree, entries = (
        require_field(payload, key, "malformed table payload")
        for key in ("ring", "dim", "degree", "entries"))
    return make_map(CoefficientRing.from_payload(ring), dim, degree, entries)


def componentwise_product(ring: CoefficientRing, dim: int) -> MultilinearMap:
    """The associative product (x * y)_a = x_a y_a on R^d."""
    check_entries(dim, 2)
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for a in range(dim):
        table[a, a, a] = 1
    return MultilinearMap(ring, dim, 2, _canonical_table(ring, table))


def matrix_algebra_product(ring: CoefficientRing) -> MultilinearMap:
    """2x2 matrix multiplication on basis e_rc, flattened to dim 4.

    Basis index 2r + c stands for the matrix unit e_rc; the product is
    associative but not commutative, so it exercises order-sensitive signs.
    """
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for r1 in range(2):
        for c1 in range(2):
            for r2 in range(2):
                for c2 in range(2):
                    if c1 == r2:
                        table[2 * r1 + c2, 2 * r1 + c1, 2 * r2 + c2] = 1
    return MultilinearMap(ring, 4, 2, _canonical_table(ring, table))
