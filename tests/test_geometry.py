import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from coulomblab import geometry as G


def tetra_volume(verts):
    return abs(np.linalg.det(verts[1:] - verts[0])) / 6.0


def barycentric_inside(verts, p, tol=0.0):
    # independent membership test: solve for barycentric coordinates
    M = np.vstack([verts.T, np.ones(4)])
    lam = np.linalg.solve(M, np.append(p, 1.0))
    return np.all(lam > tol)


def tile_vertices(tiling, chamber, cell, scale):
    """Vertices (4, 3) of one tile of the scaled tiling."""
    return scale * (tiling.tetrahedra[chamber] + np.asarray(cell, dtype=float) + tiling.shift)


def tile_row(tiling, chamber, cell, points, scale, r_j, n_quad=16):
    """theta^2 of one tile at the points: its row of tile_weight_table, zero
    where no quadrature node of a point lands in the tile."""
    key = G._pack(np.array([chamber]), *np.reshape(cell, (3, 1)))[0]
    keys, theta_sq = G.tile_weight_table(tiling, points, scale, r_j, n_quad)
    row = np.searchsorted(keys, key)
    return theta_sq[row] if row < len(keys) and keys[row] == key else np.zeros(len(points))


def multiplicity(tiling, points, scale, tol=1e-9):
    """Number of open tiles strictly containing each point (cube-interior
    points only count chambers of their own cell): the partition-of-unity
    oracle of the cover tests."""
    _, local = tiling._frame(points, scale)
    p = np.stack(local, axis=1)
    inside_cell = (np.abs(p) < 0.5 - tol).all(axis=1)
    count = (tiling.chamber_margins(p) > tol).sum(axis=1)
    return np.where(inside_cell, count, 0)


def unpack(keys):
    """Chamber and cell columns (int64) of packed tile keys, inverting _pack."""
    cells, chamber = np.divmod(np.asarray(keys, dtype=np.int64), 24)
    mask = (1 << G._CELL_BITS) - 1
    ux = (cells >> 2 * G._CELL_BITS) - G._CELL_OFFSET
    uy = ((cells >> G._CELL_BITS) & mask) - G._CELL_OFFSET
    uz = (cells & mask) - G._CELL_OFFSET
    return chamber, ux, uy, uz


def stacked_motions(rng, n, scale=1.0):
    """_sample_motions as stacks R (n, 3, 3), u (n, 3), one motion per row."""
    R, u = G._sample_motions(rng, n, scale)
    return R.transpose(2, 0, 1), u.T


def motion(seed):
    """One rigid motion x -> R x + u, the first that _sample_motions draws."""
    R, u = stacked_motions(np.random.default_rng(seed), 1)
    return R[0], u[0]


def pull_back(points, R, u):
    """Points (P, 3) pulled back by x -> R x + u, (x - u) R: where the moved
    tiling puts a point is where the fixed one puts its pull-back."""
    return (np.asarray(points, dtype=float) - u) @ R


def margin_keys(tiling, points, scale):
    """Packed tile keys by the documented rule, computed densely: the cell of
    the nearest lattice point, then the chamber of maximal min face margin
    (the lowest index on ties)."""
    w = points / scale - tiling.shift
    u = np.rint(w)
    chamber = tiling.chamber_margins(w - u).argmax(axis=1)
    return strided_pack(np.column_stack([chamber, u.astype(np.int64)]))


def tie_cell_points(rng, n):
    """Dyadic cell points placed exactly on the chamber faces |p_a| = |p_b|,
    on the edges where they meet (the axes and the diagonals), at the cell
    centre, and on the faces, edges and corners of the cube."""
    base = rng.integers(-32, 33, size=(n, 3)) / 64.0
    out = [np.zeros((1, 3))]
    for a, b in itertools.permutations(range(3), 2):
        c = 3 - a - b
        for s, t in itertools.product((1.0, -1.0), repeat=2):
            face = base.copy()
            face[:, b] = s * face[:, a]
            diagonal = face.copy()
            diagonal[:, c] = t * face[:, a]
            axis = base.copy()
            axis[:, [b, c]] = 0.0
            cube_face = base.copy()
            cube_face[:, a] = s * 0.5
            cube_edge = cube_face.copy()
            cube_edge[:, b] = t * 0.5
            out += [face, diagonal, axis, cube_face, cube_edge]
    corners = np.array(list(itertools.product((-0.5, 0.5), repeat=3)))
    return np.vstack(out + [corners])


class TestBuildDomain:
    def test_cube_site_count(self):
        dom = G.build_domain({"shape": "cube", "side": 3.0}, 1.0)
        assert dom.n_sites == 27
        assert dom.volume == pytest.approx(27.0)

    def test_volume_scaling(self):
        a = 0.7
        d1 = G.build_domain({"shape": "cube", "side": 4 * a}, a)
        d2 = G.build_domain({"shape": "cube", "side": 8 * a}, a)
        assert d2.volume / d1.volume == pytest.approx(8.0, abs=1e-12)

    def test_tiny_ball_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            G.build_domain({"shape": "ball", "radius": 0.4}, 1.0)

    def test_ball_contains_cell_corners(self):
        dom = G.build_domain({"shape": "ball", "radius": 1.0}, 1.0)
        assert dom.n_sites == 8

    @pytest.mark.parametrize("center", [[0.5], [0.5, 0.5, 0.5, 0.5], [[0.5, 0.5, 0.5]]])
    def test_ball_center_needs_three_coordinates(self, center):
        with pytest.raises(ValueError, match="ball center must have 3 coordinates"):
            G.build_domain({"shape": "ball", "radius": 1.0, "center": center}, 1.0)

    def test_boundary_subset_of_sites(self):
        dom = G.build_domain({"shape": "cube", "side": 4.0}, 1.0)
        sites = {tuple(s) for s in dom.idx.tolist()}
        for b in dom.boundary_sites.tolist():
            assert tuple(b) in sites
        # 4^3 cube: only the 2^3 interior sites are not boundary
        assert dom.boundary_sites.shape[0] == 64 - 8

    def test_custom_rejects_offgrid(self):
        with pytest.raises(ValueError, match="integer lattice"):
            G.build_domain({"shape": "custom", "sites": [[0.5, 0, 0]]}, 1.0)

    def test_lattice_alignment(self):
        dom = G.build_domain({"shape": "cube", "side": 2.0}, 0.3)
        err = np.abs(dom.points / 0.3 - np.rint(dom.points / 0.3)).max()
        assert err < 1e-12


class SetDomain:
    """The site set, index dict and per-site loops Domain used to keep: the
    oracle of its one searchsorted index."""

    def __init__(self, idx):
        idx = np.asarray(idx, dtype=np.int64).reshape(-1, 3)
        self.idx = idx[np.lexsort((idx[:, 0], idx[:, 1], idx[:, 2]))]
        self.site_set = {tuple(t) for t in self.idx.tolist()}
        self.index_of = {t: i for i, t in enumerate(map(tuple, self.idx.tolist()))}
        steps = G._AXIS_STEPS.tolist()
        self.boundary_mask = np.array(
            [any((x + p, y + q, z + r) not in self.site_set for p, q, r in steps)
             for x, y, z in self.idx.tolist()],
            dtype=bool,
        )

    def contains(self, triple):
        return tuple(int(v) for v in triple) in self.site_set

    def ghost_sites(self):
        ghosts = {
            (x + p, y + q, z + r)
            for x, y, z in self.site_set
            for p, q, r in G._AXIS_STEPS.tolist()
        } - self.site_set
        return np.array(sorted(ghosts), dtype=np.int64).reshape(-1, 3)

    def reflections(self):
        lo, hi = self.idx.min(axis=0), self.idx.max(axis=0)
        images = []
        for axis in range(3):
            mirrored = self.idx.copy()
            mirrored[:, axis] = lo[axis] + hi[axis] - mirrored[:, axis]
            images.append(mirrored)
        for p, q in ((0, 1), (1, 2), (0, 2)):
            swapped = self.idx.copy()
            swapped[:, p] = lo[p] + self.idx[:, q] - lo[q]
            swapped[:, q] = lo[q] + self.idx[:, p] - lo[p]
            images.append(swapped)
        out = []
        for mirrored in images:
            sigma = np.array([self.index_of.get(t, -1) for t in map(tuple, mirrored.tolist())])
            if (sigma >= 0).all() and (sigma != np.arange(len(self.idx))).any():
                out.append(sigma)
        return out


def random_custom_sites(rng, n, lo=-6, hi=6):
    """n distinct lattice points of the box [lo, hi)^3, in random order."""
    cells = rng.choice((hi - lo) ** 3, size=n, replace=False)
    return np.stack(np.unravel_index(cells, (hi - lo,) * 3), axis=1) + lo


def index_domains():
    """Cubes, balls (some off-centre, some at a fine spacing), random custom
    sets (some with negative coordinates), a cube with a cavity and the
    neck."""
    rng = np.random.default_rng(11)
    doms = [G.build_domain({"shape": "cube", "side": float(m)}, 1.0) for m in (1, 2, 3, 5)]
    doms += [
        G.build_domain({"shape": "ball", "radius": r, "center": c}, a)
        for r, c, a in [
            (1.0, [0.5, 0.5, 0.5], 1.0),
            (2.5, [0.0, 0.0, 0.0], 1.0),
            (3.2, [0.3, -0.2, 0.1], 1.0),
            (1.3, [0.25, 0.25, 0.25], 0.5),
        ]
    ]
    doms += [
        G.build_domain({"shape": "custom", "sites": random_custom_sites(rng, n).tolist()}, 0.7)
        for n in (1, 7, 60, 400)
    ]
    # a cube with a one-site cavity, whose ghost site has no outside cone
    cavity = [u for u in itertools.product(range(5), repeat=3) if u != (2, 2, 2)]
    doms.append(G.build_domain({"shape": "custom", "sites": cavity}, 1.0))
    return doms + [neck_domain()]


class TestSiteIndex:
    def test_site_of_matches_dict(self):
        rng = np.random.default_rng(5)
        for n in (1, 9, 120, 900):
            sites = random_custom_sites(rng, n)
            dom = G.Domain(1.0, sites)
            index_of = {t: i for i, t in enumerate(map(tuple, dom.idx.tolist()))}
            far = [2 ** 20, -(2 ** 20) - 1, 2 ** 21, -(2 ** 40), 2 ** 62]
            queries = np.concatenate([
                dom.idx,
                rng.integers(-9, 9, size=(500, 3)),  # around and outside the bounding box
                # points outside +-2^20 whose other coordinates are sites'
                sites[rng.integers(0, n, 40)] * [1, 1, 0] + np.array(far * 8)[:, None] * [0, 0, 1],
                sites[rng.integers(0, n, 40)] * [0, 1, 1] + np.array(far * 8)[:, None] * [1, 0, 0],
            ])
            want = [index_of.get(t, -1) for t in map(tuple, queries.tolist())]
            assert dom.site_of(queries).tolist() == want
            blocks = dom.site_of(queries[:400].reshape(100, 4, 3))
            assert blocks.tolist() == np.reshape(want[:400], (100, 4)).tolist()
            assert dom.site_of(dom.idx[3 % n]) == 3 % n

    def test_site_order_is_colex(self):
        rng = np.random.default_rng(8)
        sites = random_custom_sites(rng, 300)
        dom = G.Domain(1.0, sites)
        assert np.array_equal(dom.idx, SetDomain(sites).idx)
        assert np.array_equal(dom.site_of(dom.idx), np.arange(300))

    @pytest.mark.parametrize("coord", [2 ** 20, -(2 ** 20) - 1, 2 ** 40])
    def test_coordinate_outside_range_raises(self, coord):
        with pytest.raises(ValueError, match=r"site coordinate outside \[-2\^20, 2\^20\)"):
            G.build_domain({"shape": "custom", "sites": [[0, 0, 0], [0, coord, 0]]}, 1.0)

    def test_range_edges_are_sites(self):
        sites = [[-(2 ** 20), 0, 2 ** 20 - 1], [2 ** 20 - 1, -(2 ** 20), 0]]
        dom = G.build_domain({"shape": "custom", "sites": sites}, 1.0)
        assert dom.site_of(sites).tolist() == [1, 0]

    def test_duplicate_sites_raise(self):
        with pytest.raises(ValueError, match="duplicate sites"):
            G.build_domain({"shape": "custom", "sites": [[1, 2, 3], [0, 0, 0], [1, 2, 3]]}, 1.0)

    def test_boundary_and_reflections_match_set_domain(self):
        for dom in index_domains():
            ref = SetDomain(dom.idx)
            assert np.array_equal(dom.boundary_sites, ref.idx[ref.boundary_mask])
            got, want = dom.reflections(), ref.reflections()
            assert len(got) == len(want)
            for sigma, ref_sigma in zip(got, want):
                assert sigma.dtype == np.int64 and np.array_equal(sigma, ref_sigma)


def all_pairs_diameter(points, rows=64):
    """Largest distance over every pair of points, rows points at a time."""
    d2 = 0.0
    for start in range(0, len(points), rows):
        diff = points[start : start + rows, None, :] - points[None, :, :]
        d2 = max(d2, float((diff ** 2).sum(-1).max()))
    return float(np.sqrt(d2))


class TestDiameter:
    def test_large_ball_against_all_pairs(self):
        dom = G.build_domain({"shape": "ball", "radius": 10.0}, 1.0)
        assert dom.n_sites == 4224
        assert dom.diameter() == all_pairs_diameter(dom.points)
        # the bounding-box diagonal is sqrt(3) times too long
        assert dom.diameter() == pytest.approx(19.875, abs=5e-4)

    def test_domains_against_all_pairs(self):
        for dom in index_domains():
            assert dom.diameter() == all_pairs_diameter(dom.points)


def neck_domain():
    cube = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    shifted = [(i + 2, j + 2, k + 2) for i, j, k in cube]
    sites = sorted(set(cube) | set(shifted))
    return G.build_domain({"shape": "custom", "sites": sites}, 1.0)


class TestConeCheck:
    def test_large_cube_small_eps_passes(self):
        dom = G.build_domain({"shape": "cube", "side": 6.0}, 1.0)
        assert G.cone_check(dom, 0.25, n_samples=40, seed=1).passed

    def test_cube_moderate_eps_passes(self):
        dom = G.build_domain({"shape": "cube", "side": 6.0}, 1.0)
        assert G.cone_check(dom, 1.25, n_samples=40, seed=1).passed

    def test_neck_fails_with_witness(self):
        dom = neck_domain()
        res = G.cone_check(dom, 2.0, n_samples=60, seed=0)
        assert not res.passed
        # at eps = 2a the cone is the full punctured ball; at the neck it
        # contains off-domain sites in every direction (direct enumeration)
        witness = np.array(res.witness[0])
        ball = [
            d
            for d in np.ndindex(5, 5, 5)
            if 0 < np.linalg.norm(np.array(d) - 2) < 2.0
        ]
        missing = [
            d for d in ball if dom.site_of(witness + np.array(d) - 2) < 0
        ]
        assert missing, "witness should have off-domain sites inside the ball"

    def test_zero_samples_vacuous(self):
        dom = neck_domain()
        assert G.cone_check(dom, 2.0, n_samples=0, seed=0).passed


def loop_cone_check(domain, eps, n_samples=64, seed=0):
    """cone_check by the per-sample, per-direction, per-offset loop it
    replaced, on the set/dict oracle of the domain: (passed, witness,
    tested)."""
    ref = SetDomain(domain.idx)
    a = domain.a
    dirs = G._cone_directions(seed)
    m = int(np.floor(eps / a))
    rng_off = range(-m, m + 1)
    offs = np.array(
        [d for d in itertools.product(rng_off, rng_off, rng_off) if any(d)], dtype=float
    )
    if offs.size:
        norms = np.linalg.norm(offs, axis=1)
        keep = a * norms < eps
        offs, norms = offs[keep], norms[keep]
    rng = np.random.default_rng(seed)

    def has_cone(x_idx, inside):
        if offs.shape[0] == 0:
            return True
        for d in dirs:
            mask = (-offs @ d) > (1.0 - eps ** 2) * norms
            if all(ref.contains(y) == inside for y in x_idx + offs[mask]):
                return True
        return False

    tested = 0
    for inside, pool in ((True, ref.idx[ref.boundary_mask]), (False, ref.ghost_sites())):
        if pool.shape[0] == 0 or n_samples == 0:
            continue
        take = min(n_samples, pool.shape[0])
        sel = rng.choice(pool.shape[0], size=take, replace=False)
        for x_idx in pool[sel]:
            tested += 1
            if not has_cone(x_idx, inside):
                side = "domain" if inside else "complement"
                return False, (tuple(int(v) for v in x_idx), side), tested
    return True, None, tested


class TestConeCheckOracle:
    def test_matches_loop(self):
        cases = 0
        for dom in index_domains():
            for eps in (0.5, 1.0, 1.1, 1.25, 1.6, 2.0, 2.5):
                for n_samples, seed in ((0, 0), (5, 1), (24, 0), (64, 3), (200, 2)):
                    res = G.cone_check(dom, eps * dom.a, n_samples=n_samples, seed=seed)
                    got = (res.passed, res.witness, res.tested)
                    assert got == loop_cone_check(dom, eps * dom.a, n_samples, seed)
                    cases += 1
        assert cases == 14 * 7 * 5


class TestRegularityProfile:
    def test_cube_layer_fractions(self):
        dom = G.build_domain({"shape": "cube", "side": 10.0}, 1.0)
        v13 = dom.volume ** (1 / 3)
        prof = G.regularity_profile(dom, [0.0, 1.0 / v13, 2.0 / v13, 10.0])
        fracs = dict(prof.eta_samples)
        shell = (10 ** 3 - 8 ** 3) / 10 ** 3
        assert fracs[0.0] == pytest.approx(shell)
        assert fracs[1.0 / v13] == pytest.approx(shell)
        assert fracs[2.0 / v13] == pytest.approx((10 ** 3 - 6 ** 3) / 10 ** 3)
        assert fracs[10.0] == pytest.approx(1.0)

    def test_monotone(self):
        dom = G.build_domain({"shape": "ball", "radius": 3.2}, 1.0)
        prof = G.regularity_profile(dom, list(np.linspace(0, 2, 9)))
        vals = [f for _, f in prof.eta_samples]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_diam_ratio_and_bbox_flag(self):
        dom = G.build_domain({"shape": "cube", "side": 5.0}, 1.0)
        prof = G.regularity_profile(dom, [0.5])
        assert prof.diam_ratio == pytest.approx(np.sqrt(3) * 4 / 5)
        assert prof.bbox_volume_is_crude_bound


class TestTiling:
    def test_24_pieces_volume(self):
        t = G.Tiling()
        assert t.tetrahedra.shape == (24, 4, 3)
        for verts in t.tetrahedra:
            assert tetra_volume(verts) == pytest.approx(1 / 24, abs=1e-12)

    def test_rotations_reproduce_the_pieces(self):
        t = G.Tiling()
        base = t.tetrahedra[0]
        images = {
            tuple(sorted(map(tuple, np.round(R @ base.T, 12).T.tolist())))
            for R in t.rotations
        }
        pieces = {
            tuple(sorted(map(tuple, np.round(v, 12).tolist()))) for v in t.tetrahedra
        }
        assert images == pieces

    def test_cube_cover_multiplicity(self):
        t = G.Tiling()
        rng = np.random.default_rng(0)
        pts = rng.random((100000, 3)) - 0.5
        mult = multiplicity(t, pts, 1.0)
        assert (mult != 1).mean() < 1e-3
        # cross-check membership on a slice with an independent barycentric test
        for p in pts[:200]:
            count = sum(barycentric_inside(v, p, tol=1e-12) for v in t.tetrahedra)
            inside = multiplicity(t, p[None, :], 1.0)[0]
            assert count == inside

    def test_moved_tiling_partition(self):
        # 1e5 random (motion, x) pairs land in exactly one tile, up to a
        # boundary set of frequency below 1e-3
        t = G.Tiling()
        rng = np.random.default_rng(3)
        off = 0
        for R, u in zip(*stacked_motions(np.random.default_rng(5), 5)):
            pts = rng.uniform(-20, 20, size=(20000, 3))
            mult = multiplicity(t, pull_back(pts, R, u), 3.0)
            off += int((mult != 1).sum())
        assert off / 100000 < 1e-3


class TestLocate:
    def setup_method(self):
        self.tiling = G.Tiling()

    def assert_margin_rule(self, points, scale):
        keys = self.tiling.locate(points, scale=scale)
        assert keys.dtype == np.int64 and keys.shape == (len(points),)
        np.testing.assert_array_equal(keys, margin_keys(self.tiling, points, scale))

    def test_random_points(self):
        rng = np.random.default_rng(12)
        R, u = motion(4)
        for scale in (0.5, 1.0, 4.0, 8.0):
            for moved in (False, True):
                pts = rng.uniform(-20, 20, size=(50000, 3))
                self.assert_margin_rule(pull_back(pts, R, u) if moved else pts, scale)

    def test_inner_approximation_lattices(self):
        for shape, a, scales in (
            ({"shape": "cube", "side": 12.0}, 1.0, (1.0, 2.0, 3.0, 10.0)),
            ({"shape": "ball", "radius": 4.0}, 1.0, (2.0,)),
            ({"shape": "cube", "side": 6.0}, 0.25, (1.0, 4.0, 8.0)),
        ):
            dom = G.build_domain(shape, a)
            for scale in scales:
                self.assert_margin_rule(dom.points, scale)

    def test_exact_ties(self):
        rng = np.random.default_rng(7)
        p = tie_cell_points(rng, 200)
        cells = rng.integers(-3, 4, size=p.shape)
        for scale in (1.0, 2.0, 4.0):
            pts = scale * (p + cells + self.tiling.shift)  # exact: dyadic values
            self.assert_margin_rule(pts, scale)
            # one point at a time gives the same keys as the batch
            for x in pts[::97]:
                self.assert_margin_rule(x[None, :], scale)

    def test_near_ties(self):
        rng = np.random.default_rng(8)
        p = tie_cell_points(rng, 100)
        for eps in (1e-12, 1e-9, 1e-7):
            jitter = eps * rng.standard_normal(p.shape)
            self.assert_margin_rule(p + jitter + self.tiling.shift, 1.0)

    def test_nan_rows_raise(self):
        # a NaN coordinate has no cell: cast to int64 it would pack to a real
        # tile's key (chamber 0 of cell (0, 0, 0) for (0.1, nan, 0.1)), so it
        # raises like an infinite cell, on every axis and next to finite rows
        for axis in range(3):
            pts = np.full((3, 3), 0.1)
            pts[1, axis] = np.nan
            for rows in (pts, pts[1:2]):
                with pytest.raises(ValueError, match="NaN"), np.errstate(invalid="ignore"):
                    self.tiling.locate(rows + self.tiling.shift, scale=2.0)

    def test_extreme_cells_keep_lexicographic_order(self):
        # cells +-(2^18 - 1) and -2^18 on every axis, four chambers each:
        # distinct keys, sorted as (ux, uy, uz, chamber) rows, and unpack
        # gives the rows back
        edge = (-(2 ** 18), -(2 ** 18) + 1, -1, 0, 1, 2 ** 18 - 1)
        cells = np.array(list(itertools.product(edge, repeat=3)), dtype=np.int64)
        interior = np.array([[0.4, 0.2, 0.1], [-0.1, 0.4, 0.2], [0.2, -0.1, -0.4], [0.1, 0.2, 0.4]])
        pts = (cells[:, None, :] + interior[None, :, :] + self.tiling.shift).reshape(-1, 3)
        keys = self.tiling.locate(pts, 1.0)
        rows = np.column_stack([*unpack(keys)])
        np.testing.assert_array_equal(rows[:, 1:], np.repeat(cells, 4, axis=0))
        np.testing.assert_array_equal(keys, strided_pack(rows))
        np.testing.assert_array_equal(keys, margin_keys(self.tiling, pts, 1.0))
        assert len(np.unique(keys)) == len(keys)
        lex = np.lexsort((rows[:, 0], rows[:, 3], rows[:, 2], rows[:, 1]))
        np.testing.assert_array_equal(np.argsort(keys), lex)

    def test_out_of_range_cells_raise(self):
        # cells 2^19 apart along x once shared one key
        zero = np.zeros(3)
        with pytest.raises(ValueError, match="outside"):
            G._pack(np.zeros(3, dtype=np.int64), np.array([0.0, 2.0 ** 19, -(2.0 ** 19)]), zero, zero)
        for x in (2.0 ** 19, -(2.0 ** 19), 2.0 ** 18, -(2.0 ** 18) - 1, np.inf):
            for axis in range(3):
                pts = np.full((2, 3), 0.1) + self.tiling.shift
                pts[1, axis] += x
                with pytest.raises(ValueError, match="outside"), np.errstate(invalid="ignore"):
                    self.tiling.locate(pts, 1.0)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(*[st.integers(-64, 64)] * 3) | st.tuples(*[st.floats(-6.0, 6.0)] * 3),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from((0.5, 1.0, 3.0, 4.0)),
        st.none() | st.integers(0, 10 ** 6),
    )
    def test_margin_rule_property(self, rows, scale, seed):
        # integer rows sit on the 1/16 grid, where ties are frequent
        pts = np.array([[v / 16 if isinstance(v, int) else v for v in r] for r in rows])
        if seed is not None:
            pts = pull_back(pts, *motion(seed))
        self.assert_margin_rule(pts, scale)


def strided_keys(tiling, points, scale):
    """The (P, 3) locator the column core replaced, kept as its oracle: chamber
    codes from a (P, 3) array of cell points, the margin argmax within
    _TIE_GAP of a tie, keys as one (P, 4) array."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    w = pts / scale - tiling.shift
    u = np.rint(w)
    p = w - u
    ax, ay, az = np.abs(p).T
    neg = p < 0
    codes = (
        32 * (ax >= ay) + 16 * (ax >= az) + 8 * (ay >= az)
        + 4 * neg[:, 0] + 2 * neg[:, 1] + neg[:, 2]
    )
    gap = np.minimum(np.minimum(np.abs(ax - ay), np.abs(ax - az)), np.abs(ay - az))
    chamber = tiling._chamber_of_code[codes]
    near = np.nonzero(~(gap >= G._TIE_GAP))[0]
    chamber[near] = strided_margins(tiling, p[near]).argmax(axis=1)
    keys = np.empty((pts.shape[0], 4), dtype=np.int64)
    keys[:, 0] = chamber
    keys[:, 1:] = u.astype(np.int64)
    return keys


def strided_margins(tiling, p):
    """Min face margins from one (P, 96) chamber-major margin matrix and a
    strided min over its faces, all points at once: the form the face-major
    blocks replaced, kept as their oracle."""
    normals = tiling._normals.reshape(4, 24, 3).transpose(1, 0, 2).reshape(-1, 3)
    offsets = tiling._offsets.reshape(4, 24).T.reshape(1, -1)
    margins = offsets - p @ normals.T
    return margins.reshape(p.shape[0], 24, 4).min(axis=2)


def strided_pack(keys):
    """(chamber, ux, uy, uz) rows packed by the documented layout: each cell
    coordinate offset by 2^18 in 19 bits, then the chamber."""
    B = np.int64(1) << 18
    out = keys[:, 1] + B
    out = out * (2 * B) + (keys[:, 2] + B)
    out = out * (2 * B) + (keys[:, 3] + B)
    return out * 24 + keys[:, 0]


class TestColumnLocator:
    """Tiling.locate against the strided (P, 3) locator, bit for bit."""

    def points(self, tiling, scale, rng):
        # random points, cell points within 1e-12 of a chamber tie and exact
        # half-integer cell boundaries, in the scaled frame
        ties = tie_cell_points(rng, 60)
        near = ties + 1e-12 * rng.choice([-1.0, 1.0], size=ties.shape)
        cells = rng.integers(-4, 5, size=(len(ties), 3))
        half = rng.integers(-6, 7, size=(200, 3)) + 0.5 * rng.integers(0, 2, size=(200, 3))
        rows = [
            rng.uniform(-40, 40, size=(20000, 3)),
            scale * (ties + cells + tiling.shift),
            scale * (near + cells + tiling.shift),
            scale * (half + tiling.shift),
        ]
        return np.vstack(rows)

    @pytest.mark.parametrize("scale", [1.0, 4.0, 8.0, 16.0])
    def test_keys_match_strided_locator(self, scale):
        tiling = G.Tiling()
        rng = np.random.default_rng(int(scale))
        pts = self.points(tiling, scale, rng)
        for moved in (pts, pull_back(pts, *motion(int(scale)))):
            ref = strided_pack(strided_keys(tiling, moved, scale))
            keys = tiling.locate(moved, scale=scale)
            assert keys.dtype == np.int64 and np.array_equal(keys, ref)
            # a NaN row has no tile: the batch raises
            with pytest.raises(ValueError, match="NaN"), np.errstate(invalid="ignore"):
                tiling.locate(np.vstack([moved, [[0.3, np.nan, 0.1]]]), scale=scale)


class TestTieChunks:
    """Near-tie points are settled _TIE_CHUNK at a time by face-major margin
    blocks; keys and margins stay bitwise those of the one-shot strided
    margins."""

    def test_margins_match_strided(self):
        tiling = G.Tiling()
        rng = np.random.default_rng(5)
        ties = tie_cell_points(rng, 400)
        p = np.vstack([ties, ties + 1e-12 * rng.choice([-1.0, 1.0], size=ties.shape)])
        p = np.vstack([p, rng.uniform(-0.5, 0.5, size=(20000, 3))])
        assert tiling.chamber_margins(p).tobytes() == strided_margins(tiling, p).tobytes()

    def test_more_than_three_chunks_of_ties(self):
        tiling = G.Tiling()
        rng = np.random.default_rng(6)
        ties = tie_cell_points(rng, 300)
        ties = ties + 1e-12 * rng.choice([-1.0, 0.0, 1.0], size=ties.shape)
        cells = rng.integers(-3, 4, size=ties.shape)
        pts = np.vstack([4.0 * (ties + cells + tiling.shift), rng.uniform(-20, 20, size=(5000, 3))])
        pts = pts[rng.permutation(len(pts))]
        w = pts / 4.0 - tiling.shift
        _, gap = G._chamber_codes(*(w - np.rint(w)).T)
        assert (gap < G._TIE_GAP).sum() > 3 * G._TIE_CHUNK
        for moved in (pts, pull_back(pts, *motion(6))):
            ref = strided_keys(tiling, moved, 4.0)
            assert np.array_equal(tiling.locate(moved, scale=4.0), strided_pack(ref))

    @pytest.mark.parametrize("ell", [4.0, 8.0, 16.0])
    def test_ims_grid(self, ell):
        # the mollifier offsets ims_residual locates on the side-6 cube
        dom = G.build_domain({"shape": "cube", "side": 6.0}, 1.0)
        nodes, _ = G._mollifier_nodes(0.5 * np.sqrt(ell), 8)
        pts = (dom.points[:, None, :] - nodes[None, :, :]).reshape(-1, 3)
        tiling = G.Tiling()
        ref = strided_keys(tiling, pts, ell)
        assert np.array_equal(tiling.locate(pts, scale=ell), strided_pack(ref))


def row_major_motions(rng, n, scale=1.0):
    """The (n, 3, 3) / (n, 3) sampler the component-major one replaced: the
    same draws, np.linalg.norm and one stacked quaternion-to-matrix map."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    R = np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
            2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
            2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(-1, 3, 3)
    return R, scale * rng.random((n, 3))


class TestGroupSampling:
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_matches_row_major_sampler_bitwise(self, n):
        R, u = G._sample_motions(np.random.default_rng([n, 2]), n, 8.0)
        assert R.shape == (3, 3, n) and u.shape == (3, n)
        assert R.flags.c_contiguous and u.flags.c_contiguous
        R_ref, u_ref = row_major_motions(np.random.default_rng([n, 2]), n, 8.0)
        assert R.transpose(2, 0, 1).tobytes() == R_ref.tobytes()
        assert u.T.tobytes() == u_ref.tobytes()

    def test_orthogonality_and_determinism(self):
        R, u = stacked_motions(np.random.default_rng(9), 50)
        for Ri in R:
            assert np.abs(Ri.T @ Ri - np.eye(3)).max() < 1e-12
            assert np.linalg.det(Ri) == pytest.approx(1.0)
        R2, u2 = stacked_motions(np.random.default_rng(9), 50)
        assert np.array_equal(R, R2) and np.array_equal(u, u2)

    def test_rotation_mean_vanishes(self):
        n = 4000
        R, _ = stacked_motions(np.random.default_rng(123), n)
        mean = sum(R) / n
        # each entry has variance 1/3 under the rotation-invariant measure
        assert np.abs(mean).max() < 3.0 / np.sqrt(3 * n)

    def test_haar_marginals_chi2(self):
        n = 8000
        R, u = stacked_motions(np.random.default_rng(77), n)
        x0 = np.array([0.37, -1.21, 0.55])
        moved = x0 @ R.transpose(0, 2, 1) + u
        # translation marginal: uniform on the unit cell after folding
        folded = np.mod(moved, 1.0)
        for axis in range(3):
            counts, _ = np.histogram(folded[:, axis], bins=8, range=(0, 1))
            assert chisquare(counts).pvalue > 0.01
        # rotation-angle marginal: density (1 - cos t)/pi on [0, pi]
        angles = np.arccos(np.clip((np.trace(R, axis1=1, axis2=2) - 1) / 2, -1, 1))
        edges = np.linspace(0, np.pi, 9)
        counts, _ = np.histogram(angles, bins=edges)
        cdf = lambda t: (t - np.sin(t)) / np.pi
        expected = n * np.diff([cdf(t) for t in edges])
        assert chisquare(counts, expected).pvalue > 0.01


class TestSmoothedIndicator:
    """The mollified tile indicators theta_mu^2, as rows of tile_weight_table."""

    def setup_method(self):
        self.tiling = G.Tiling()

    def test_deep_interior_and_outside(self):
        ell, r_j = 6.0, 0.2
        verts = tile_vertices(self.tiling, 5, (0, 0, 0), ell)
        bary = verts.mean(axis=0)
        far = verts[1] + 10 * r_j * (verts[1] - bary) / np.linalg.norm(verts[1] - bary)
        theta = np.sqrt(tile_row(self.tiling, 5, (0, 0, 0), np.array([bary, far]), ell, r_j))
        assert theta[0] == pytest.approx(1.0, abs=1e-9)
        assert theta[1] == pytest.approx(0.0, abs=1e-12)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(4)
        pts = pull_back(rng.uniform(-8, 8, size=(1000, 3)), *motion(11))
        keys, theta_sq = G.tile_weight_table(self.tiling, pts, scale=4.0, r_j=0.25)
        assert theta_sq.shape == (len(keys), len(pts))
        assert (np.diff(keys) > 0).all()
        assert np.abs(theta_sq.sum(axis=0) - 1.0).max() < 1e-9

    def test_mass_against_monte_carlo(self):
        # the integral of theta^2 is the tile's volume, ell^3 / 24
        ell, r_j = 3.0, 0.3
        verts = tile_vertices(self.tiling, 2, (0, 0, 0), ell)
        lo = verts.min(axis=0) - 2 * r_j
        hi = verts.max(axis=0) + 2 * r_j
        rng = np.random.default_rng(8)
        pts = rng.uniform(lo, hi, size=(12000, 3))
        box = np.prod(hi - lo)
        est = box * tile_row(self.tiling, 2, (0, 0, 0), pts, ell, r_j, n_quad=8).mean()
        assert est == pytest.approx(ell ** 3 / 24.0, rel=0.05)
