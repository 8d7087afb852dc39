"""Integer lattice domains that index composition sums.

Everything here is a finite set of tuples cut out of Z^n by explicit
inequalities in the degrees of the participating elements, most of them
one staircase (_staircase). Shifted degrees |x| = deg(x) - 1 appear so
often that the formulas below abbreviate sh = deg_h - 1, sf = deg_f - 1,
sg = deg_g - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import InvalidDegree, TableTooLarge
from .rings import require_integer

# the most points of one staircase level: about 100 MB of pairs
MAX_POINTS = 2**20


@dataclass(frozen=True)
class LatticeDomain:
    """A finite kind-tagged point set satisfying its defining inequalities."""

    kind: str
    params: tuple[int, ...]
    points: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.points)


@lru_cache(maxsize=4096)  # a law suite asks for some 400 staircases, each many times
def _staircase(first: int, gaps: tuple, tops: tuple) -> tuple:
    """The points (p_1, ..., p_n), in lexicographic order, with first <= p_1,
    p_t + gaps[t-1] <= p_(t+1) and p_t <= tops[t-1]; n = len(tops). A
    level past MAX_POINTS points is refused before it is built."""
    points = [()]
    for t, top in enumerate(tops):
        starts = [p[-1] + gaps[t - 1] for p in points] if t else [first]
        if (size := sum(top + 1 - s for s in starts if s <= top)) > MAX_POINTS:
            raise TableTooLarge(f"a region of {size} points, past {MAX_POINTS}")
        points = [p + (q,) for p, s in zip(points, starts)
                  for q in range(s, top + 1)]
    return tuple(points)


def _require_degrees(*degrees) -> None:
    """Refuse a degree that is not an integer (2.5, "3", True) with
    InvalidDegree, as make_map does."""
    for d in degrees:
        require_integer(d, "a degree", InvalidDegree)


def ground_simplex(deg_h: int, degrees) -> tuple:
    """The slots (p_1, ..., p_n) of the brace h{f_1, ..., f_n}, where
    deg f_t = degrees[t-1]: 0 <= p_1, p_t + deg f_t <= p_(t+1) and
    p_t <= deg_h + deg f_1 + ... + deg f_(t-1) - n.

    Empty when any degree is < 1; an empty domain is not an error, it just
    indexes an empty sum.
    """
    degrees = tuple(degrees)
    if min((deg_h, *degrees)) < 1:
        return ()
    return _staircase(0, degrees[:-1],
                      tuple(accumulate(degrees[:-1], initial=deg_h - len(degrees))))


def full_scope(deg_h: int, deg_f: int) -> tuple:
    """All pairs (i, j) with 0 <= i <= |h| and 0 <= j <= |f| + |h|."""
    _require_degrees(deg_h, deg_f)
    if deg_h < 1:
        raise InvalidDegree("outer degree must be >= 1")
    sh, sf = deg_h - 1, deg_f - 1
    return tuple((i, j) for i in range(sh + 1) for j in range(sf + sh + 1))


def scope_regions(deg_h: int, deg_f: int):
    """Partition of the scope of (h comp_i f) comp_j g into three regions.

    left:   1 <= i <= |h|, 0 <= j <= i - 1      (g lands left of f)
    nested: 0 <= i <= |h|, i <= j <= i + |f|    (g lands inside f)
    right:  0 <= i <= |h| - 1, i + deg_f <= j <= |f| + |h|   (g lands right)
    """
    _require_degrees(deg_h, deg_f)
    if deg_h < 1:
        raise InvalidDegree("outer degree must be >= 1")
    sh, sf = deg_h - 1, deg_f - 1
    left = tuple((i, j) for i in range(1, sh + 1) for j in range(i))
    nested = tuple((i, j) for i in range(sh + 1)
                   for j in range(i, i + sf + 1))
    right = _staircase(0, (deg_f,), (sh - 1, sf + sh))
    params = (deg_h, deg_f)
    return (
        LatticeDomain("scope-left", params, left),
        LatticeDomain("scope-nested", params, nested),
        LatticeDomain("scope-right", params, right),
    )


def ground_tetrahedron(deg_h: int, deg_f: int, deg_g: int) -> LatticeDomain:
    """Points 0 <= i <= j - deg_f <= k - deg_f - deg_g <= deg_h - 3: the ground
    simplex of h{f, g, b}, whose deg b bounds nothing; empty when a degree is < 1."""
    _require_degrees(deg_h, deg_f, deg_g)
    return LatticeDomain("ground-tetra", (deg_h, deg_f, deg_g),
                         ground_simplex(deg_h, (deg_f, deg_g, 1)))


def shifted_tetrahedron(deg_h: int, deg_f: int, deg_g: int) -> LatticeDomain:
    """The ground tetrahedron moved by (+1, +1, +1):
    1 <= i <= j - deg_f <= k - deg_f - deg_g <= deg_h - 2."""
    _require_degrees(deg_h, deg_f, deg_g)
    params = (deg_h, deg_f, deg_g)
    if min(params) < 1:
        return LatticeDomain("shifted-tetra", params, ())
    return LatticeDomain("shifted-tetra", params, _staircase(
        1, (deg_f, deg_g), (deg_h - 2, deg_h + deg_f - 2, deg_h + deg_f + deg_g - 2)))


def _envelope_points(deg_h: int, deg_f: int, deg_g: int) -> tuple:
    # 0 <= i <= j - |f| <= k - |f| - |g| <= deg_h + 1
    sf, sg = deg_f - 1, deg_g - 1
    return _staircase(0, (sf, sg), (deg_h + 1, deg_h + 1 + sf, deg_h + 1 + sf + sg))


def _hyperplane_count(point, deg_h, deg_f, deg_g) -> int:
    """How many of the four envelope walls the point lies on."""
    i, j, k = point
    sh, sf, sg = deg_h - 1, deg_f - 1, deg_g - 1
    walls = (
        i == 0,
        j == i + sf,
        k == j + sg,
        k == sh + deg_f + deg_g,
    )
    return sum(walls)


def removed_edges(deg_h: int, deg_f: int, deg_g: int) -> tuple:
    """The six edge families cut off the envelope, as one merged point set.

    Each family is the pairwise intersection of two of the four envelope
    walls, listed here explicitly so tests can compare this reading with the
    wall-counting one.
    """
    _require_degrees(deg_h, deg_f, deg_g)
    sh, sf, sg = deg_h - 1, deg_f - 1, deg_g - 1
    env = set(_envelope_points(deg_h, deg_f, deg_g))
    kmax = sh + deg_f + deg_g
    edges = set()
    for i in range(0, deg_h + 2):
        edges.add((i, i + sf, kmax))            # wall 2 and wall 4
        edges.add((i, i + sf, i + sf + sg))     # wall 2 and wall 3
        edges.add((i, deg_h + deg_f, kmax))     # wall 3 and wall 4
    for j in range(sf, deg_h + deg_f + 1):
        edges.add((0, j, kmax))                 # wall 1 and wall 4
        edges.add((0, j, j + sg))               # wall 1 and wall 3
    for k in range(sf + sg, kmax + 1):
        edges.add((0, sf, k))                   # wall 1 and wall 2
    return tuple(sorted(edges & env))


def boundary_faces(deg_h: int, deg_f: int, deg_g: int) -> dict:
    """The four open face families of the truncated envelope, keyed by the
    auxiliary family that lives on them.

    gamma:  i = 0,            deg_f <= j <= k - deg_g <= |h| + |f|
    gamma1: j = i + |f|,      1 <= i <= k - |f| - deg_g <= |h|
    gamma2: k = j + |g|,      1 <= i <= j - deg_f <= |h|
    gamma3: k = |h| + deg_f + deg_g, 1 <= i <= j - deg_f <= |h|
    """
    _require_degrees(deg_h, deg_f, deg_g)
    sh, sf, sg = deg_h - 1, deg_f - 1, deg_g - 1
    kmax = sh + deg_f + deg_g
    gamma = _staircase(0, (deg_f, deg_g), (0, sh + sf, sh + sf + deg_g))
    gamma1 = tuple((i, i + sf, k) for i, k in
                   _staircase(1, (sf + deg_g,), (sh, sh + sf + deg_g)))
    rows = _staircase(1, (deg_f,), (sh, sh + deg_f))
    gamma2 = tuple((i, j, j + sg) for i, j in rows)
    gamma3 = tuple((i, j, kmax) for i, j in rows)
    return {"gamma": gamma, "gamma1": gamma1, "gamma2": gamma2, "gamma3": gamma3}


def envelope_domains(deg_h: int, deg_f: int, deg_g: int, deg_b: int):
    """(interior, envelope, truncated, boundary) for the triple-sum lattice.

    The point sets depend only on the first three degrees; deg_b tags along
    because the values indexed by these points involve a fourth element.
    Postcondition (enforced by the law suite): truncated is the disjoint
    union of the interior and the boundary, and the boundary is the disjoint
    union of the four faces.
    """
    for d in (deg_h, deg_f, deg_g, deg_b):
        if require_integer(d, "a degree", InvalidDegree) < 1:
            raise InvalidDegree("all four degrees must be >= 1")
    params = (deg_h, deg_f, deg_g, deg_b)
    interior = shifted_tetrahedron(deg_h, deg_f, deg_g)
    env_pts = _envelope_points(deg_h, deg_f, deg_g)
    envelope = LatticeDomain("envelope", params, env_pts)
    trunc_pts = tuple(p for p in env_pts
                      if _hyperplane_count(p, deg_h, deg_f, deg_g) <= 1)
    truncated = LatticeDomain("truncated-envelope", params, trunc_pts)
    interior_set = set(interior.points)
    boundary_pts = tuple(p for p in trunc_pts if p not in interior_set)
    boundary = LatticeDomain("envelope-boundary", params, boundary_pts)
    return interior, envelope, truncated, boundary
