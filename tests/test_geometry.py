import itertools
import json

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


def margin_keys(tiling, points, scale, g=None):
    """Packed tile keys by the documented rule, computed densely: the cell of
    the nearest lattice point, then the chamber of maximal min face margin
    (the lowest index on ties)."""
    y = points if g is None else g.apply_inverse(points)
    w = y / scale - tiling.shift
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
            d for d in ball if not dom.contains_idx(witness + np.array(d) - 2)
        ]
        assert missing, "witness should have off-domain sites inside the ball"

    def test_zero_samples_vacuous(self):
        dom = neck_domain()
        assert G.cone_check(dom, 2.0, n_samples=0, seed=0).passed


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
        t = G.unit_cube_tiling()
        assert t.tetrahedra.shape == (24, 4, 3)
        for verts in t.tetrahedra:
            assert tetra_volume(verts) == pytest.approx(1 / 24, abs=1e-12)

    def test_rotations_reproduce_the_pieces(self):
        t = G.unit_cube_tiling()
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
        t = G.unit_cube_tiling()
        rng = np.random.default_rng(0)
        pts = rng.random((100000, 3)) - 0.5
        mult = t.multiplicity(pts)
        assert (mult != 1).mean() < 1e-3
        # cross-check membership on a slice with an independent barycentric test
        for p in pts[:200]:
            count = sum(barycentric_inside(v, p, tol=1e-12) for v in t.tetrahedra)
            inside = t.multiplicity(p[None, :])[0]
            assert count == inside

    def test_moved_tiling_partition(self):
        # 1e5 random (g, x) pairs land in exactly one tile, up to a boundary
        # set of frequency below 1e-3
        t = G.unit_cube_tiling()
        rng = np.random.default_rng(3)
        off = 0
        for g in G.sample_group(5, 5):
            pts = rng.uniform(-20, 20, size=(20000, 3))
            mult = t.multiplicity(pts, scale=3.0, g=g)
            off += int((mult != 1).sum())
        assert off / 100000 < 1e-3

    def test_group_elements_move_base_tile(self):
        t = G.unit_cube_tiling()
        base = t.tile_vertices(int(np.argmax([np.trace(R) for R in t.rotations])), (0, 0, 0))
        for chamber, cell in [(3, (1, 0, -2)), (17, (0, 0, 0)), (9, (-1, 2, 1))]:
            mu = t.group_element(chamber, cell)
            moved = mu.apply(base)
            target = t.tile_vertices(chamber, cell)
            assert np.abs(np.sort(moved, axis=0) - np.sort(target, axis=0)).max() < 1e-12

    def test_invalid_shift_rejected(self):
        with pytest.raises(ValueError, match="invalid shift"):
            G.unit_cube_tiling(v=np.array([5.0, 5.0, 5.0]))


class TestLocate:
    def setup_method(self):
        self.tiling = G.unit_cube_tiling()

    def assert_margin_rule(self, points, scale, g=None):
        keys = self.tiling.locate(points, scale=scale, g=g)
        assert keys.dtype == np.int64 and keys.shape == (len(points),)
        np.testing.assert_array_equal(keys, margin_keys(self.tiling, points, scale, g))

    def test_random_points(self):
        rng = np.random.default_rng(12)
        moved = G.sample_group(4, 1)[0]
        for scale in (0.5, 1.0, 4.0, 8.0):
            for g in (None, moved):
                self.assert_margin_rule(rng.uniform(-20, 20, size=(50000, 3)), scale, g)

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

    def test_nan_rows_take_the_margin_rule(self):
        # (0.3, nan, 0.1) reads as |p_x| >= |p_z| with both other
        # comparisons false, an order no real point has; NaN cells are not
        # range-checked, and the chamber still enters the key
        pts = np.array([[0.3, np.nan, 0.1], [np.nan, 0.1, 0.2], [0.1, 0.2, 0.3]])
        with np.errstate(invalid="ignore"):
            keys = self.tiling.locate(pts - self.tiling.shift)
            ref = margin_keys(self.tiling, pts - self.tiling.shift, 1.0)
        np.testing.assert_array_equal(keys, ref)

    def test_extreme_cells_keep_lexicographic_order(self):
        # cells +-(2^18 - 1) and -2^18 on every axis, four chambers each:
        # distinct keys, sorted as (ux, uy, uz, chamber) rows, and _unpack
        # gives the rows back
        edge = (-(2 ** 18), -(2 ** 18) + 1, -1, 0, 1, 2 ** 18 - 1)
        cells = np.array(list(itertools.product(edge, repeat=3)), dtype=np.int64)
        interior = np.array([[0.4, 0.2, 0.1], [-0.1, 0.4, 0.2], [0.2, -0.1, -0.4], [0.1, 0.2, 0.4]])
        pts = (cells[:, None, :] + interior[None, :, :] + self.tiling.shift).reshape(-1, 3)
        keys = self.tiling.locate(pts)
        rows = np.column_stack([*G._unpack(keys)])
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
                    self.tiling.locate(pts)

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
        g = None if seed is None else G.sample_group(seed, 1)[0]
        self.assert_margin_rule(pts, scale, g)


def strided_keys(tiling, points, scale, g=None):
    """The (P, 3) locator the column core replaced, kept as its oracle: chamber
    codes from a (P, 3) array of cell points, the margin argmax within
    _TIE_GAP of a tie, keys as one (P, 4) array."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    y = pts if g is None else g.apply_inverse(pts)
    w = y / scale - tiling.shift
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
        # random points, cell points within 1e-12 of a chamber tie, exact
        # half-integer cell boundaries and a NaN row, in the scaled frame
        ties = tie_cell_points(rng, 60)
        near = ties + 1e-12 * rng.choice([-1.0, 1.0], size=ties.shape)
        cells = rng.integers(-4, 5, size=(len(ties), 3))
        half = rng.integers(-6, 7, size=(200, 3)) + 0.5 * rng.integers(0, 2, size=(200, 3))
        rows = [
            rng.uniform(-40, 40, size=(20000, 3)),
            scale * (ties + cells + tiling.shift),
            scale * (near + cells + tiling.shift),
            scale * (half + tiling.shift),
            [[0.3, np.nan, 0.1]],
        ]
        return np.vstack(rows)

    @pytest.mark.parametrize("scale", [1.0, 4.0, 8.0, 16.0])
    def test_keys_match_strided_locator(self, scale):
        tiling = G.unit_cube_tiling()
        rng = np.random.default_rng(int(scale))
        pts = self.points(tiling, scale, rng)
        for g in (None, G.sample_group(int(scale), 1)[0]):
            with np.errstate(invalid="ignore"):
                ref = strided_pack(strided_keys(tiling, pts, scale, g))
                keys = tiling.locate(pts, scale=scale, g=g)
            assert keys.dtype == np.int64 and np.array_equal(keys, ref)


class TestTieChunks:
    """Near-tie points are settled _TIE_CHUNK at a time by face-major margin
    blocks; keys and margins stay bitwise those of the one-shot strided
    margins."""

    def test_margins_match_strided(self):
        tiling = G.unit_cube_tiling()
        rng = np.random.default_rng(5)
        ties = tie_cell_points(rng, 400)
        p = np.vstack([ties, ties + 1e-12 * rng.choice([-1.0, 1.0], size=ties.shape)])
        p = np.vstack([p, rng.uniform(-0.5, 0.5, size=(20000, 3))])
        assert tiling.chamber_margins(p).tobytes() == strided_margins(tiling, p).tobytes()

    def test_more_than_three_chunks_of_ties(self):
        tiling = G.unit_cube_tiling()
        rng = np.random.default_rng(6)
        ties = tie_cell_points(rng, 300)
        ties = ties + 1e-12 * rng.choice([-1.0, 0.0, 1.0], size=ties.shape)
        cells = rng.integers(-3, 4, size=ties.shape)
        pts = np.vstack([4.0 * (ties + cells + tiling.shift), rng.uniform(-20, 20, size=(5000, 3))])
        pts = pts[rng.permutation(len(pts))]
        w = pts / 4.0 - tiling.shift
        _, gap = G._chamber_codes(*(w - np.rint(w)).T)
        assert (gap < G._TIE_GAP).sum() > 3 * G._TIE_CHUNK
        for g in (None, G.sample_group(6, 1)[0]):
            ref = strided_keys(tiling, pts, 4.0, g)
            assert np.array_equal(tiling.locate(pts, scale=4.0, g=g), strided_pack(ref))

    @pytest.mark.parametrize("ell", [4.0, 8.0, 16.0])
    def test_ims_grid(self, ell):
        # the mollifier offsets ims_residual locates on the side-6 cube
        dom = G.build_domain({"shape": "cube", "side": 6.0}, 1.0)
        nodes, _ = G._mollifier_nodes(0.5 * np.sqrt(ell), 8)
        pts = (dom.points[:, None, :] - nodes[None, :, :]).reshape(-1, 3)
        tiling = G.unit_cube_tiling()
        ref = strided_keys(tiling, pts, ell)
        assert np.array_equal(tiling.locate(pts, scale=ell), strided_pack(ref))


class TestGroupSampling:
    def test_orthogonality_and_determinism(self):
        gs = G.sample_group(9, 50)
        for g in gs:
            assert np.abs(g.rotation.T @ g.rotation - np.eye(3)).max() < 1e-12
            assert np.linalg.det(g.rotation) == pytest.approx(1.0)
        gs2 = G.sample_group(9, 50)
        assert all(
            np.array_equal(a.rotation, b.rotation)
            and np.array_equal(a.translation, b.translation)
            for a, b in zip(gs, gs2)
        )

    def test_rotation_mean_vanishes(self):
        n = 4000
        gs = G.sample_group(123, n)
        mean = sum(g.rotation for g in gs) / n
        # each entry has variance 1/3 under the rotation-invariant measure
        assert np.abs(mean).max() < 3.0 / np.sqrt(3 * n)

    def test_haar_marginals_chi2(self):
        n = 8000
        gs = G.sample_group(77, n)
        x0 = np.array([0.37, -1.21, 0.55])
        moved = np.array([g.apply(x0) for g in gs])
        # translation marginal: uniform on the unit cell after folding
        folded = np.mod(moved, 1.0)
        for axis in range(3):
            counts, _ = np.histogram(folded[:, axis], bins=8, range=(0, 1))
            assert chisquare(counts).pvalue > 0.01
        # rotation-angle marginal: density (1 - cos t)/pi on [0, pi]
        angles = np.array(
            [np.arccos(np.clip((np.trace(g.rotation) - 1) / 2, -1, 1)) for g in gs]
        )
        edges = np.linspace(0, np.pi, 9)
        counts, _ = np.histogram(angles, bins=edges)
        cdf = lambda t: (t - np.sin(t)) / np.pi
        expected = n * np.diff([cdf(t) for t in edges])
        assert chisquare(counts, expected).pvalue > 0.01

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            G.sample_group(0, 0)


class TestSmoothedIndicator:
    def setup_method(self):
        self.tiling = G.unit_cube_tiling()

    def test_deep_interior_and_outside(self):
        ell, r_j = 6.0, 0.2
        si = G.SmoothedIndicator(self.tiling, 5, (0, 0, 0), ell, r_j=r_j)
        verts = self.tiling.tile_vertices(5, (0, 0, 0), scale=ell)
        bary = verts.mean(axis=0)
        assert si.theta(bary[None, :])[0] == pytest.approx(1.0, abs=1e-9)
        far = verts[1] + 10 * r_j * (verts[1] - bary) / np.linalg.norm(verts[1] - bary)
        assert si.theta(far[None, :])[0] == pytest.approx(0.0, abs=1e-12)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-8, 8, size=(1000, 3))
        g = G.sample_group(11, 1)[0]
        keys, theta_sq = G.tile_weight_table(self.tiling, pts, scale=4.0, g=g, r_j=0.25)
        assert theta_sq.shape == (len(keys), len(pts))
        assert (np.diff(keys) > 0).all()
        assert np.abs(theta_sq.sum(axis=0) - 1.0).max() < 1e-9

    def test_theta_sq_is_the_tile_row(self):
        # points far from the tile are left out of its table: bitwise the
        # row of the table over every point, zero far away
        rng = np.random.default_rng(9)
        g = G.sample_group(2, 1)[0]
        si = G.SmoothedIndicator(self.tiling, 4, (0, 1, -1), 2.0, g=g, r_j=0.3, n_quad=8)
        verts = self.tiling.tile_vertices(4, (0, 1, -1), scale=2.0, g=g)
        pts = np.vstack([
            rng.uniform(verts.min(axis=0) - 0.7, verts.max(axis=0) + 0.7, size=(2000, 3)),
            rng.uniform(-10, 10, size=(200, 3)),
        ])
        keys, theta_sq = G.tile_weight_table(self.tiling, pts, 2.0, g=g, r_j=0.3, n_quad=8)
        row = theta_sq[np.searchsorted(keys, si._key)]
        assert row.max() > 0.9 and (row == 0).sum() > 200
        assert si.theta_sq(pts).tobytes() == row.tobytes()

    def test_mass_equals_tile_volume(self):
        for ell in (2.0, 5.0):
            si = G.SmoothedIndicator(self.tiling, 7, (1, -1, 0), ell, r_j=0.3)
            verts = self.tiling.tile_vertices(7, (1, -1, 0), scale=ell)
            assert si.mass() == pytest.approx(tetra_volume(verts), rel=1e-6)
            assert si.mass() == pytest.approx(ell ** 3 / 24.0, rel=1e-6)

    def test_mass_against_monte_carlo(self):
        ell, r_j = 3.0, 0.3
        si = G.SmoothedIndicator(self.tiling, 2, (0, 0, 0), ell, r_j=r_j, n_quad=8)
        verts = self.tiling.tile_vertices(2, (0, 0, 0), scale=ell)
        lo = verts.min(axis=0) - 2 * r_j
        hi = verts.max(axis=0) + 2 * r_j
        rng = np.random.default_rng(8)
        pts = rng.uniform(lo, hi, size=(12000, 3))
        box = np.prod(hi - lo)
        est = box * si.theta_sq(pts).mean()
        assert est == pytest.approx(si.mass(), rel=0.05)


class TestInnerApproximation:
    def test_large_cube_high_coverage(self):
        dom = G.build_domain({"shape": "cube", "side": 12.0}, 1.0)
        inner = G.inner_approximation(dom, scale=1.0, delta=0.4)
        assert inner.volume / dom.volume >= 0.9

    def test_subset_always(self):
        dom = G.build_domain({"shape": "ball", "radius": 4.0}, 1.0)
        inner = G.inner_approximation(dom, scale=2.0, delta=0.5)
        sites = {tuple(s) for s in dom.idx.tolist()}
        assert all(tuple(s) in sites for s in inner.idx.tolist())

    def test_oversized_scale_empty_with_warning(self):
        dom = G.build_domain({"shape": "cube", "side": 3.0}, 1.0)
        inner = G.inner_approximation(dom, scale=10.0, delta=0.5)
        assert inner.n_sites == 0
        assert inner.warning

    def test_monotone_in_scale(self):
        dom = G.build_domain({"shape": "cube", "side": 12.0}, 1.0)
        vols = [
            G.inner_approximation(dom, scale=s, delta=0.4).volume for s in (1.0, 2.0, 3.0)
        ]
        assert vols[0] >= vols[1] >= vols[2]


class TestExports:
    def test_domain_json(self):
        dom = G.build_domain({"shape": "cube", "side": 1.0}, 0.5)
        obj = json.loads(G.domain_to_json(dom))
        assert float(obj["spacing"]) == 0.5
        assert len(obj["sites"]) == 8

    def test_tiling_json_and_field_csv(self):
        t = G.unit_cube_tiling()
        obj = json.loads(G.tiling_to_json(t))
        assert len(obj["tetrahedra"]) == 24
        csv = G.field_to_csv([[0, 0, 0], [1, 2, 3]], [0.5, -1.0])
        lines = csv.strip().split("\n")
        assert lines[0] == "x,y,z,value"
        assert len(lines) == 3
