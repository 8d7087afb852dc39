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

Over F_p a table is int64 with entries in [0, p), and every composition and
signed sum reduces its raw int64 result in place through one helper,
_reduce. Large tables are reduced as x - p * floor(x / p) in fixed-size
chunks through one small scratch quotient, since numpy's scalar integer
floor division runs at memory speed and np.remainder does not; tables of
at most _REDUCE_GATE entries use np.remainder, whose per-call cost is lower
there. The gate is a property of the table's size, not a setting.

numpy has no BLAS for integers, so a composition over F_p whose result has
more than _REDUCE_GATE entries multiplies in float64 (as FFLAS-FFPACK does,
Dumas, Giorgi and Pernet 2008). That is exact while d (p - 1)^2 < 2^53:
every product and partial sum of the contraction is then an integer below
2^53 in magnitude. It runs one output block of at most _BLOCK entries at a
time (cast the block's operands, multiply, cast the product into the int64
result, reduce it while it is in cache), so it allocates little beyond the
result. Z, primes past that bound, smaller results and a stacked g keep
the int64 matmul.

Composition convention: plugging g into input slot i of f costs the sign
(-1)^(i * |g|), so

    f comp_i g  =  (-1)^(i|g|) * f(x_1 .. x_i, g(..), x_(i+2) ..),

with 0 <= i <= |f|. The unit is the identity matrix in degree 1 and is
absorbed with sign +1 from either side.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatch,
    BackendMismatch,
    DegreeMismatch,
    IndexOutOfScope,
    InvalidDegree,
    RingMismatch,
    ShapeMismatch,
    TableTooLarge,
    UnsupportedRing,
)
from .rings import CoefficientRing

_INT64 = 2**63
MAX_ENTRIES = 2**26  # 512 MB of int64: the largest table ever allocated
# tables above this many entries are reduced by chunked floor division;
# at or below it one np.remainder call costs less
_REDUCE_GATE = 2**10
_REDUCE_CHUNK = 2**16
# float64 holds every integer below 2^53 exactly
_FLOAT_EXACT = 2**53
# outputs of one float64 block of a composition
_BLOCK = 2**16


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
    def shifted_degree(self) -> int:
        return self.degree - 1

    @property
    def batch(self) -> int | None:
        """The number of rows of a stacked map, None for a single map."""
        return self.table.shape[0] if self.table.ndim > self.degree + 1 else None

    def row(self, r: int) -> MultilinearMap:
        """Row r of a stacked map as a single map; a single map is every row."""
        if self.batch is None:
            return self
        return MultilinearMap(self.ring, self.dim, self.degree, self.table[r])

    def entry(self, out_index: int, *in_indices: int) -> int:
        return int(self.table[(out_index, *in_indices)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultilinearMap):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.dim == other.dim
            and self.degree == other.degree
            and np.array_equal(self.table, other.table)
        )

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


def check_int64(ring: CoefficientRing, dim: int):
    """Refuse F_p tables of dimension dim that int64 cannot hold exactly.

    A contraction sums dim products below p^2, so dim * p^2 < 2^63 keeps it
    exact; signed_sum reduces early to stay inside the same range.
    """
    if ring.is_field and dim * ring.modulus ** 2 >= _INT64:
        raise UnsupportedRing(
            f"{ring.label()} tables of dimension {dim} overflow int64 "
            f"(need dim * p^2 < 2^63)")


def check_entries(dim: int, degree: int, rows: int = 1):
    """Refuse rows stacked degree-n tables over R^dim, before allocating
    them, when their rows * dim^(n + 1) entries exceed MAX_ENTRIES."""
    if rows * dim ** (degree + 1) > MAX_ENTRIES:
        what = (f"{rows} stacked degree {degree} tables over dimension {dim} "
                f"have {rows} * " if rows > 1 else
                f"a degree {degree} table over dimension {dim} has ")
        raise TableTooLarge(
            f"{what}{dim}^{degree + 1} entries, more than the cap of 2^26")


def _reduce(arr: np.ndarray, p: int, scratch: np.ndarray | None = None
            ) -> np.ndarray:
    """arr, a writable int64 array, reduced into [0, p) in place.

    Above _REDUCE_GATE entries the flat table is reduced in chunks of
    _REDUCE_CHUNK through one scratch quotient, as x - p * floor(x / p):
    numpy's scalar integer floor division rounds toward -inf and runs at
    memory speed, two to three times faster than np.remainder, and the
    wrap-around of p * floor(x / p) cancels in the subtraction because the
    true result fits. Exact for every int64 entry. scratch, when given, is
    a flat int64 array of at least min(arr.size, _REDUCE_CHUNK) entries
    that holds the quotient.
    """
    if arr.size <= _REDUCE_GATE or not arr.flags.c_contiguous:
        np.remainder(arr, p, out=arr)
        return arr
    flat = arr.reshape(-1)
    if scratch is None:
        scratch = np.empty(min(flat.size, _REDUCE_CHUNK), dtype=np.int64)
    for lo in range(0, flat.size, _REDUCE_CHUNK):
        part = flat[lo:lo + _REDUCE_CHUNK]
        q = scratch[:part.size]
        np.floor_divide(part, p, out=q)
        q *= p
        part -= q
    return arr


def _canonical_table(ring: CoefficientRing, arr: np.ndarray) -> np.ndarray:
    """A read-only canonical copy of arr; the caller's array is never
    written."""
    if ring.is_field:
        check_int64(ring, arr.shape[0])
        if arr.dtype == object:
            arr = arr % ring.modulus  # exact on Python ints of any size
        arr = _reduce(np.array(arr, dtype=np.int64, order="C"), ring.modulus)
    else:
        arr = np.asarray(arr, dtype=object)
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
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ShapeMismatch(f"table entries must be integers, got {v!r}")
    flat = np.asarray(values)
    if flat.dtype.kind != "i":
        # numpy holds ints past int64 as uint64, float64 or object, which
        # the int64 cast would wrap or round; Python ints stay exact
        flat = np.array([int(v) for v in values], dtype=object)
    return flat


def make_map(ring: CoefficientRing, dim: int, degree: int, entries) -> MultilinearMap:
    """Build a map from flat integer entries, length dim^(degree + 1),
    row-major."""
    if dim < 1:
        raise ShapeMismatch(f"dimension must be >= 1, got {dim}")
    if degree < 0:
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
    table = _canonical_table(ring, np.zeros((dim,) * (degree + 1), dtype=np.int64))
    return MultilinearMap(ring, dim, degree, table)


def unit_map(ring: CoefficientRing, dim: int) -> MultilinearMap:
    """The degree-1 identity, neutral for composition from both sides."""
    check_entries(dim, 1)
    table = _canonical_table(ring, np.eye(dim, dtype=np.int64))
    return MultilinearMap(ring, dim, 1, table)


def stack_rows(maps) -> MultilinearMap:
    """Single maps of one ring, dimension and degree as the rows of one
    stacked map, in order. One map given for every row stays single: it
    serves every row."""
    first, *rest = maps
    if all(m is first for m in rest):
        return first
    for m in maps:
        _check_pair(first, m)
        if m.degree != first.degree:
            raise DegreeMismatch(f"degree {m.degree} vs {first.degree}")
        if m.batch is not None:
            raise ShapeMismatch("only single maps can be stacked")
    check_entries(first.dim, first.degree, len(maps))
    table = np.stack([m.table for m in maps])
    table.setflags(write=False)
    return MultilinearMap(first.ring, first.dim, first.degree, table)


def _check_pair(f: MultilinearMap, g: MultilinearMap):
    if f.ring is not g.ring and f.ring != g.ring:
        raise RingMismatch(f"{f.ring.label()} vs {g.ring.label()}")
    if f.dim != g.dim:
        raise BackendMismatch(f"dim {f.dim} vs {g.dim}")


def substitute(f: MultilinearMap, g: MultilinearMap, i: int,
               sign: int = 1) -> MultilinearMap:
    """g plugged into input slot i of f, times sign; unsigned by default.

    With f's table viewed as (d^(i+1), d, d^(|f|-i)) and g's as (d, d^n),
    the broadcast product G^T @ F has shape (d^(i+1), d^n, d^(|f|-i)):
    output, inputs before slot i, g's inputs, inputs after slot i, which is
    already the result's axis order. Stacked operands keep their row axis
    in front and pair row with row. The sign goes into g's table, and the
    product is reduced once. Over F_p with d (p - 1)^2 < 2^53, a single g
    and a result above _REDUCE_GATE entries, _float_product computes the
    same product block by block in float64; otherwise it is one int64
    matmul.
    """
    _check_pair(f, g)
    if f.degree < 1:
        raise InvalidDegree("left operand of a composition needs degree >= 1")
    if not 0 <= i <= f.shifted_degree:
        raise IndexOutOfScope(
            f"slot {i} outside 0..{f.shifted_degree} for degree {f.degree}"
        )
    ring, d, m, n = f.ring, f.dim, f.degree, g.degree
    ft, gt = f.table, g.table
    check_int64(ring, d)
    # a single map, or a stack of one, serves every row of the other
    check_entries(d, m + n - 1, max(f.batch or 1, g.batch or 1))
    # ft.size // d * d ** n: the result's entries, over all of f's rows
    if (ring.is_field and g.batch is None
            and d * (ring.modulus - 1) ** 2 < _FLOAT_EXACT
            and ft.size // d * d ** n > _REDUCE_GATE):
        raw = _float_product(ft.reshape(-1, d, d ** (m - 1 - i)),
                             gt.reshape(d, d ** n), sign, ring.modulus)
        raw.setflags(write=False)
        return MultilinearMap(ring, d, m + n - 1,
                              raw.reshape(ft.shape[:-m - 1] + (d,) * (m + n)))
    g_t = gt.reshape(gt.shape[:-n - 1] + (d, d ** n)).swapaxes(-1, -2)
    if g_t.ndim == 3:
        g_t = g_t[:, None]  # one G^T per row, broadcast over f's outputs
    if sign < 0:
        g_t = -g_t
    try:
        raw = g_t @ ft.reshape(ft.shape[:-m - 1] + (d ** (i + 1), d, d ** (m - 1 - i)))
    except ValueError:
        raise ShapeMismatch(f"stacked maps of {ft.shape[0]} and {gt.shape[0]} "
                            f"rows") from None
    if ring.is_field:
        _reduce(raw, ring.modulus)
    raw.setflags(write=False)
    return MultilinearMap(ring, d, m + n - 1,
                          raw.reshape(raw.shape[:-3] + (d,) * (m + n)))


def _float_product(f3: np.ndarray, g2: np.ndarray, sign: int,
                   p: int) -> np.ndarray:
    """The reduced product out[a, x, c] = sum_k sign * g2[k, x] * f3[a, k, c]
    as a new int64 array of shape (A, X, C), computed in float64 one output
    block at a time.

    Exact when d * (p - 1)^2 < 2^53: every product and partial sum is then
    an integer below 2^53 in magnitude. Each block casts its operands, with
    the sign in g's, multiplies them as one (rows * C, d) @ (d, w) GEMM,
    writes the product transposed into the int64 result and reduces it
    there while it is in cache. A block holds whole rows a of the result,
    or, when one row or g's float64 copy would pass _BLOCK entries, w of
    g's X columns of one row. So the float64 copies of f's rows and g's
    columns stay within _BLOCK entries, unless one of f's rows (C * d
    entries) alone is larger; one GEMM per row instead of per block is
    several times slower when C is 1.
    """
    A, d, C = f3.shape
    X = g2.shape[1]
    out = np.empty((A, X, C), dtype=np.int64)
    w = min(X, max(1, _BLOCK // max(C, d)))
    rows = min(A, max(1, _BLOCK // (C * max(X, d)))) if w == X else 1
    # the product of one block, then, viewed as int64, its quotient
    buf = np.empty(rows * C * w)
    for x0 in range(0, X, w):
        gf = g2[:, x0:x0 + w].astype(np.float64)
        if sign < 0:
            np.negative(gf, out=gf)
        for a0 in range(0, A, rows):
            fb = f3[a0:a0 + rows].swapaxes(1, 2).astype(np.float64, order="C")
            r, cols = len(fb), gf.shape[1]
            prod = np.matmul(fb.reshape(-1, d), gf,
                             out=buf[:r * C * cols].reshape(-1, cols))
            block = out[a0:a0 + rows, x0:x0 + w]  # C-contiguous
            block[...] = prod.reshape(r, C, cols).swapaxes(1, 2)
            _reduce(block, p, buf.view(np.int64))
    return out


def partial_compose(f: MultilinearMap, g: MultilinearMap, i: int) -> MultilinearMap:
    """f comp_i g with the Koszul twist (-1)^(i * |g|)."""
    return substitute(f, g, i, ksign(i * g.shifted_degree))


def signed_sum(ring: CoefficientRing, dim: int, degree: int,
               terms) -> MultilinearMap:
    """Sum of c * m over (c, m) pairs taken one at a time from terms.

    The first nonzero term is copied into one writable buffer and later
    terms are added into it in place; no term is kept and no input table is
    written. The buffer takes rows when a stacked term arrives, and a single
    term adds to every row. Over F_p coefficients are taken in (-p/2, p/2],
    the buffer is reduced once at the end, and earlier whenever the bound on
    its entries would reach 2^63.
    """
    p = ring.modulus
    acc = None
    bound = 0  # bound on the magnitude of acc's entries (F_p only)
    for c, m in terms:
        if m.ring is not ring and m.ring != ring:
            raise RingMismatch(f"{m.ring.label()} vs {ring.label()}")
        if m.dim != dim:
            raise BackendMismatch(f"dim {m.dim} vs {dim}")
        if m.degree != degree:
            raise DegreeMismatch(f"degree {m.degree} vs {degree}")
        c = int(c)
        if p is not None:
            c %= p
            if c > p // 2:
                c -= p
            step = abs(c) * (p - 1)
            if acc is not None and bound + step >= _INT64:
                _reduce(acc, p)
                bound = p - 1
            bound += step
        if c:
            acc = _add_into(acc, c, m.table)
        del m  # not kept while the next term is built
    if acc is None:
        return zero_map(ring, dim, degree)
    if p is not None:
        _reduce(acc, p)
    acc.setflags(write=False)
    return MultilinearMap(ring, dim, degree, acc)


def _add_into(acc, c: int, table: np.ndarray) -> np.ndarray:
    """acc + c * table, added in place into acc; a new buffer for the first
    term (acc None) and when a stacked table brings rows."""
    if acc is None:
        return table.copy() if c == 1 else table * c
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
    if not ring.is_field:
        raise UnsupportedRing("random tables need a finite field")
    if degree < 0:
        raise InvalidDegree(f"degree must be >= 0, got {degree}")
    check_entries(dim, degree)
    table = rng.integers(0, ring.modulus, size=(dim,) * (degree + 1), dtype=np.int64)
    return MultilinearMap(ring, dim, degree, _canonical_table(ring, table))


def evaluate(f: MultilinearMap, inputs) -> MultilinearMap:
    """Apply f to degree-0 vectors; the result is a degree-0 vector."""
    inputs = list(inputs)
    if f.batch is not None or any(v.batch is not None for v in inputs):
        raise ShapeMismatch("evaluate a stacked map row by row")
    if len(inputs) != f.degree:
        raise ArityMismatch(f"degree {f.degree} map applied to {len(inputs)} inputs")
    acc = np.asarray(f.table)
    for t in reversed(range(f.degree)):
        v = inputs[t]
        if v.degree != 0:
            raise DegreeMismatch("evaluation inputs must have degree 0")
        _check_pair(f, v)
        acc = np.tensordot(acc, v.table, axes=(t + 1, 0))
        if f.ring.is_field:
            acc = _reduce(acc, f.ring.modulus)
    return MultilinearMap(f.ring, f.dim, 0, _canonical_table(f.ring, acc))


def map_to_payload(f: MultilinearMap) -> dict:
    """A single map as JSON data; serialize a stacked map row by row."""
    if f.batch is not None:
        raise ShapeMismatch("a stacked map has no payload; serialize its rows")
    return {
        "ring": f.ring.to_payload(),
        "dim": f.dim,
        "degree": f.degree,
        "entries": [int(v) for v in np.asarray(f.table).reshape(-1)],
    }


def map_from_payload(payload: dict) -> MultilinearMap:
    ring = CoefficientRing.from_payload(payload["ring"])
    return make_map(ring, int(payload["dim"]), int(payload["degree"]),
                    payload["entries"])


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
