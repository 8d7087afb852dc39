import itertools
import tracemalloc

import numpy as np
import pytest

from preoperad import domains
from preoperad.domains import (
    LatticeDomain,
    _envelope_points,
    boundary_faces,
    envelope_domains,
    full_scope,
    ground_simplex,
    ground_tetrahedron,
    removed_edges,
    scope_regions,
    shifted_tetrahedron,
)
from preoperad.errors import InvalidDegree, TableTooLarge
from preoperad.gamma import gamma_domain


# each public domain builder with the degrees it takes, all 2
BUILDERS = {
    "scope_regions": (scope_regions, 2),
    "full_scope": (full_scope, 2),
    "ground_tetrahedron": (ground_tetrahedron, 3),
    "shifted_tetrahedron": (shifted_tetrahedron, 3),
    "envelope_domains": (envelope_domains, 4),
    "boundary_faces": (boundary_faces, 3),
    "removed_edges": (removed_edges, 3),
    "gamma_domain": (lambda *d: gamma_domain("gamma", *d), 4),
}


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize("bad", [2.5, 2.0, "3", None, True])
def test_a_degree_that_is_not_an_integer_is_refused(name, bad):
    # a bare TypeError from range or -, or a silent 2.0 or True, before
    builder, arity = BUILDERS[name]
    builder(*[2] * arity)
    for t in range(arity):
        degrees = [2] * arity
        degrees[t] = bad
        with pytest.raises(InvalidDegree, match="must be an integer"):
            builder(*degrees)


def test_full_scope_size():
    # deg h = m, deg f = n: i ranges over m slots, j over m + n - 1 slots
    assert len(full_scope(2, 2)) == 2 * 3
    assert len(full_scope(3, 1)) == 3 * 3
    assert set(full_scope(1, 1)) == {(0, 0)}


def test_scope_regions_small_case():
    left, nested, right = scope_regions(2, 2)
    assert set(left.points) == {(1, 0)}
    assert set(nested.points) == {(0, 0), (0, 1), (1, 1), (1, 2)}
    assert set(right.points) == {(0, 2)}


@pytest.mark.parametrize("deg_h", range(1, 7))
@pytest.mark.parametrize("deg_f", range(1, 7))
def test_scope_partition_all_pairs_up_to_six(deg_h, deg_f):
    left, nested, right = scope_regions(deg_h, deg_f)
    ls, ns, rs = set(left.points), set(nested.points), set(right.points)
    assert not (ls & ns) and not (ls & rs) and not (ns & rs)
    assert ls | ns | rs == set(full_scope(deg_h, deg_f))


def test_left_region_size_is_independent_of_inner_degree():
    for deg_h in range(1, 6):
        sizes = {len(scope_regions(deg_h, deg_f)[0]) for deg_f in range(1, 6)}
        assert sizes == {deg_h * (deg_h - 1) // 2}


def test_ground_tetrahedron_examples():
    assert set(ground_tetrahedron(3, 1, 1).points) == {(0, 1, 2)}
    assert len(ground_tetrahedron(2, 3, 4)) == 0
    assert set(ground_tetrahedron(4, 1, 1).points) == {
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}


def test_shifted_tetrahedron_is_a_translation():
    assert set(shifted_tetrahedron(3, 1, 1).points) == {(1, 2, 3)}
    for degs in ((3, 1, 1), (4, 2, 1), (5, 1, 2)):
        ground = set(ground_tetrahedron(*degs).points)
        shifted = set(shifted_tetrahedron(*degs).points)
        assert shifted == {(i + 1, j + 1, k + 1) for (i, j, k) in ground}


def test_envelope_partition_explicit_case():
    interior, env, trunc, bound = envelope_domains(4, 1, 1, 1)
    assert set(trunc.points) == set(interior.points) | set(bound.points)
    assert not set(interior.points) & set(bound.points)
    assert set(interior.points) <= set(trunc.points) <= set(env.points)


@pytest.mark.parametrize("degs", [(2, 1, 1, 1), (3, 1, 1, 1), (3, 2, 1, 2),
                                  (4, 1, 2, 1), (5, 2, 2, 1), (1, 1, 1, 1)])
def test_envelope_edges_match_wall_pairs(degs):
    deg_h, deg_f, deg_g, deg_b = degs
    interior, env, trunc, bound = envelope_domains(*degs)
    assert set(env.points) - set(trunc.points) == set(
        removed_edges(deg_h, deg_f, deg_g))


@pytest.mark.parametrize("degs", [(2, 1, 1), (3, 1, 1), (3, 2, 2), (4, 1, 2)])
def test_boundary_faces_partition_the_boundary(degs):
    interior, env, trunc, bound = envelope_domains(*degs, 1)
    faces = boundary_faces(*degs)
    union = set()
    for kind in ("gamma", "gamma1", "gamma2", "gamma3"):
        pts = set(faces[kind])
        assert not union & pts
        union |= pts
    assert union == set(bound.points)


def test_lattice_domain_protocol():
    dom = ground_tetrahedron(3, 1, 1)
    assert dom.points == ((0, 1, 2),)
    assert len(dom) == 1
    assert isinstance(dom, LatticeDomain)


# each region against a brute-force filter: the points of a bounding box, in
# lexicographic order, that satisfy the region's stated inequalities


def _filtered(tops, keep) -> tuple:
    """The points of [0, tops[0]] x [0, tops[1]] x ..., in lexicographic
    order, at which keep, given one coordinate array per axis, holds."""
    grid = np.indices([max(t + 1, 0) for t in tops]).reshape(len(tops), -1)
    return tuple(map(tuple, grid[:, keep(*grid)].T.tolist()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ground_simplex_is_its_inequalities(n):
    for deg_h, *degrees in itertools.product(range(1, 6), repeat=n + 1):
        # p_t <= deg_h + deg f_1 + ... + deg f_(t-1) - n bounds the box
        tops = [deg_h + sum(degrees[:t]) - n for t in range(n)]

        def keep(*p):
            ok = p[0] >= 0
            for t in range(n - 1):
                ok = ok & (p[t] + degrees[t] <= p[t + 1])
            return ok
        assert ground_simplex(deg_h, degrees) == _filtered(tops, keep), \
            (deg_h, degrees)
    assert ground_simplex(3, (1, 0)) == ground_simplex(0, (1, 1)) == ()


def _cube_regions(dh, df, dg):
    """(region points, inequalities) of each staircase region of (dh, df, dg),
    the inequalities as their docstrings state them."""
    sh, sf, sg = dh - 1, df - 1, dg - 1
    faces = boundary_faces(dh, df, dg)
    return {
        "ground-tetra": (ground_tetrahedron(dh, df, dg).points,
                         lambda i, j, k: (0 <= i) & (i <= j - df)
                         & (j - df <= k - df - dg) & (k - df - dg <= dh - 3)),
        "shifted-tetra": (shifted_tetrahedron(dh, df, dg).points,
                          lambda i, j, k: (1 <= i) & (i <= j - df)
                          & (j - df <= k - df - dg) & (k - df - dg <= dh - 2)),
        "envelope": (_envelope_points(dh, df, dg),
                     lambda i, j, k: (0 <= i) & (i <= j - sf)
                     & (j - sf <= k - sf - sg) & (k - sf - sg <= dh + 1)),
        "aux-gamma": (gamma_domain("gamma", dh, df, dg, 1).points,
                      lambda i, j, k: (0 <= i) & (i + df <= j) & (j + dg <= k)
                      & (i <= sh - 1) & (j <= sh + sf) & (k <= dh + sf + sg)),
        "aux-gamma1": (gamma_domain("gamma1", dh, df, dg, 1).points,
                       lambda i, j, k: (1 <= i) & (i + sf <= j) & (j + dg <= k)
                       & (i <= sh) & (j <= sh + sf) & (k <= dh + sf + sg)),
        "aux-gamma2": (gamma_domain("gamma2", dh, df, dg, 1).points,
                       lambda i, j, k: (1 <= i) & (i + df <= j) & (j + sg <= k)
                       & (i <= sh) & (j <= dh + sf) & (k <= dh + sf + sg)),
        "aux-gamma3": (gamma_domain("gamma3", dh, df, dg, 1).points,
                       lambda i, j, k: (1 <= i) & (i + df <= j) & (j + dg <= k)
                       & (i <= sh) & (j <= dh + sf) & (k <= dh + df + sg)),
        "face-gamma": (faces["gamma"],
                       lambda i, j, k: (i == 0) & (df <= j) & (j <= k - dg)
                       & (k - dg <= sh + sf)),
        "face-gamma1": (faces["gamma1"],
                        lambda i, j, k: (j == i + sf) & (1 <= i)
                        & (i <= k - sf - dg) & (k - sf - dg <= sh)),
        "face-gamma2": (faces["gamma2"],
                        lambda i, j, k: (k == j + sg) & (1 <= i)
                        & (i <= j - df) & (j - df <= sh)),
        "face-gamma3": (faces["gamma3"],
                        lambda i, j, k: (k == sh + df + dg) & (1 <= i)
                        & (i <= j - df) & (j - df <= sh)),
    }


def test_staircase_regions_are_their_inequalities():
    for degs in itertools.product(range(1, 7), repeat=3):
        side = sum(degs) + 2  # every region lies in [0, side]^3
        for name, (points, keep) in _cube_regions(*degs).items():
            assert tuple(points) == _filtered((side,) * 3, keep), (name, degs)


def test_scope_right_is_its_inequalities():
    for deg_h, deg_f in itertools.product(range(1, 7), repeat=2):
        sh, sf = deg_h - 1, deg_f - 1
        right = scope_regions(deg_h, deg_f)[2].points
        assert right == _filtered((sh, sf + sh), lambda i, j: (
            (i <= sh - 1) & (i + deg_f <= j))), (deg_h, deg_f)


def test_a_region_past_the_point_cap_is_refused(monkeypatch):
    monkeypatch.setattr(domains, "MAX_POINTS", 10)
    domains._staircase.cache_clear()  # a cached region skips the count
    # 0 <= p_1 < p_2 <= deg_h - 1: C(deg_h, 2) points, 10 at deg h 5
    assert len(ground_simplex(5, (1, 1))) == 10
    with pytest.raises(TableTooLarge, match="15 points, past 10"):
        ground_simplex(6, (1, 1))
    with pytest.raises(TableTooLarge, match="11 points"):
        domains._staircase(0, (), (10,))


def test_a_region_past_the_point_cap_is_refused_before_it_is_built():
    # h{f, g} at deg h 30000 has 449,985,000 points; only its first level,
    # 29,999 of them, is built before the count refuses the second
    assert domains.MAX_POINTS == 2**20
    tracemalloc.start()
    try:
        with pytest.raises(TableTooLarge, match="449985000 points"):
            ground_simplex(30000, (1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
