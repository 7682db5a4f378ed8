"""Discretized domains, the 24-tetrahedron cube tiling, Haar sampling on the
motion group, and mollified tile indicators.

Length units are dimensionless (hbar = e = 1, electron mass 1/2); a domain is
a finite set of sites of the lattice a*Z^3.
"""

import itertools
import json

import numpy as np

__all__ = [
    "Domain",
    "GroupElement",
    "Tiling",
    "SmoothedIndicator",
    "RegularityProfile",
    "ConeCheckResult",
    "build_domain",
    "cone_check",
    "regularity_profile",
    "unit_cube_tiling",
    "sample_group",
    "tile_weight_table",
    "inner_approximation",
    "domain_to_json",
    "tiling_to_json",
    "field_to_csv",
]

_AXIS_STEPS = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=int
)


class Domain:
    """Finite set of grid sites of a*Z^3 with volume and boundary metadata.

    Sites are stored as integer lattice coordinates; real-space positions are
    a * idx.  A site is a boundary site when at least one of its six grid
    neighbors is missing.  |Omega| = a^3 * (number of sites).
    """

    def __init__(self, spacing, idx, label="", allow_empty=False, warning=None):
        idx = np.asarray(idx, dtype=np.int64).reshape(-1, 3)
        if spacing <= 0:
            raise ValueError("degenerate domain: spacing must be positive")
        if idx.shape[0] == 0 and not allow_empty:
            raise ValueError("degenerate domain: no sites")
        self.a = float(spacing)
        # deterministic site order: colex on (z, y, x)
        if idx.shape[0]:
            order = np.lexsort((idx[:, 0], idx[:, 1], idx[:, 2]))
            idx = idx[order]
        self.idx = idx
        self.label = label
        self.warning = warning
        self._site_set = {tuple(t) for t in idx.tolist()}
        if len(self._site_set) != idx.shape[0]:
            raise ValueError("duplicate sites in domain")
        self._index_of = {t: i for i, t in enumerate(map(tuple, idx.tolist()))}
        self._boundary_mask = self._compute_boundary()

    def _compute_boundary(self):
        mask = np.zeros(self.n_sites, dtype=bool)
        for i, t in enumerate(map(tuple, self.idx.tolist())):
            for step in _AXIS_STEPS:
                if (t[0] + step[0], t[1] + step[1], t[2] + step[2]) not in self._site_set:
                    mask[i] = True
                    break
        return mask

    @property
    def n_sites(self):
        return self.idx.shape[0]

    @property
    def points(self):
        return self.a * self.idx.astype(float)

    @property
    def volume(self):
        return self.a ** 3 * self.n_sites

    @property
    def boundary_sites(self):
        return self.idx[self._boundary_mask]

    @property
    def boundary_points(self):
        return self.a * self.boundary_sites.astype(float)

    def contains_idx(self, triple):
        return tuple(int(v) for v in triple) in self._site_set

    def ghost_sites(self):
        """Grid sites outside the domain adjacent to a domain site."""
        ghosts = set()
        for t in self._site_set:
            for step in _AXIS_STEPS:
                cand = (t[0] + step[0], t[1] + step[1], t[2] + step[2])
                if cand not in self._site_set:
                    ghosts.add(cand)
        return np.array(sorted(ghosts), dtype=np.int64).reshape(-1, 3)

    def neighbor_pairs(self):
        """(i, j, axis) for grid-neighbor site pairs, each unordered pair once."""
        pairs = []
        for i, t in enumerate(map(tuple, self.idx.tolist())):
            for axis in range(3):
                cand = list(t)
                cand[axis] += 1
                j = self._index_of.get(tuple(cand))
                if j is not None:
                    pairs.append((i, j, axis))
        return pairs

    def reflections(self):
        """Site permutations of the axis reflections through the bounding-box
        centre, then of the coordinate swaps x<->y, y<->z and x<->z about its
        lowest corner, that map the site set onto itself (identity ones
        omitted): sigma[i] is the site number of the mirror image of site i."""
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
            sigma = [self._index_of.get(t, -1) for t in map(tuple, mirrored.tolist())]
            sigma = np.array(sigma, dtype=np.int64)
            if (sigma >= 0).all() and (sigma != np.arange(self.n_sites)).any():
                out.append(sigma)
        return out

    def diameter(self):
        pts = self.points
        if self.n_sites <= 1:
            return 0.0
        if self.n_sites > 4000:
            # corners of the bounding box bound the diameter tightly enough
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            corners = np.array(list(itertools.product(*zip(lo, hi))))
            pts = corners
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        return float(np.sqrt(d2.max()))

    def __repr__(self):
        return f"Domain({self.label or 'custom'}, a={self.a}, sites={self.n_sites})"


def build_domain(spec, a):
    """Build a Domain from a shape descriptor.

    spec is a dict: {"shape": "cube", "side": L}, {"shape": "ball",
    "radius": r, "center": [cx, cy, cz]?} (center defaults to a lattice-cell
    center so a tiny ball contains no site), or {"shape": "custom",
    "sites": [[i, j, k], ...]} with integer lattice coordinates.
    """
    if a <= 0:
        raise ValueError("degenerate domain: spacing must be positive")
    shape = spec.get("shape")
    if shape == "cube":
        side = float(spec["side"])
        m = int(round(side / a))
        if m < 1 or side <= 0:
            raise ValueError("degenerate domain: cube smaller than one site")
        rng = range(m)
        idx = np.array(list(itertools.product(rng, rng, rng)), dtype=np.int64)
        return Domain(a, idx, label=f"cube{m}")
    if shape == "ball":
        r = float(spec["radius"])
        center = np.asarray(spec.get("center", [a / 2.0, a / 2.0, a / 2.0]), dtype=float)
        m = int(np.ceil(r / a)) + 1
        rng = range(-m, m + 1)
        base = np.array(list(itertools.product(rng, rng, rng)), dtype=np.int64)
        keep = np.linalg.norm(a * base - center, axis=1) <= r
        idx = base[keep]
        if idx.shape[0] == 0:
            raise ValueError("degenerate domain: ball contains no site")
        return Domain(a, idx, label=f"ball_r{r:g}")
    if shape == "custom":
        sites = np.asarray(spec["sites"], dtype=float)
        idx = np.rint(sites).astype(np.int64)
        if np.abs(sites - idx).max(initial=0.0) > 1e-12:
            raise ValueError("custom sites must be integer lattice coordinates")
        if idx.shape[0] == 0:
            raise ValueError("degenerate domain: no sites")
        return Domain(a, idx, label=spec.get("label", "custom"))
    raise ValueError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# rigid motions


class GroupElement:
    """Rigid motion x -> R x + u with R in SO(3)."""

    def __init__(self, rotation, translation):
        R = np.asarray(rotation, dtype=float).reshape(3, 3)
        if np.abs(R.T @ R - np.eye(3)).max() > 1e-12:
            raise ValueError("rotation is not orthogonal")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation must have determinant +1")
        self.rotation = R
        self.translation = np.asarray(translation, dtype=float).reshape(3)

    def apply(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def apply_inverse(self, points):
        pts = np.asarray(points, dtype=float)
        return (pts - self.translation) @ self.rotation

    def inverse(self):
        return GroupElement(self.rotation.T, -self.rotation.T @ self.translation)

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    def __repr__(self):
        return f"GroupElement(u={self.translation.round(4).tolist()})"


def cube_rotations():
    """The 24 rotation matrices of the cube (signed permutations, det +1)."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product([1, -1], repeat=3):
            M = np.zeros((3, 3))
            for row, col in enumerate(perm):
                M[row, col] = signs[row]
            if np.linalg.det(M) > 0:
                mats.append(M)
    mats.sort(key=lambda M: tuple(M.ravel()))
    return np.array(mats)


def sample_group(seed, n):
    """n seeded Haar-ish samples of the motion group.

    Rotations are Haar-uniform on SO(3) (normalized Gaussian quaternions);
    translations are uniform over one fundamental cell [0,1)^3 of the tiling
    translation sublattice, which suffices for averages of tiling-summed
    integrands.  Deterministic under the seed.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    R, u = _sample_motions(np.random.default_rng(seed), n)
    return [GroupElement(Ri, ui) for Ri, ui in zip(R, u)]


def _sample_motions(rng, n, scale=1.0):
    """Rotations (n, 3, 3) from normalized Gaussian quaternions, then
    translations (n, 3) uniform in [0, scale)^3, drawn in that order."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return _quat_to_matrix(q), scale * rng.random((n, 3))


def _quat_to_matrix(q):
    """Rotation matrices (n, 3, 3) of unit quaternions (n, 4) = (w, x, y, z)."""
    w, x, y, z = q.T
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
            2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
            2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(-1, 3, 3)


# ---------------------------------------------------------------------------
# the 24-tetrahedron tiling of the unit cube

# Canonical tetrahedron: cone from the cube center over one quarter of the
# face x = 1/2 (the chamber x > y > |z| of the six diagonal planes).  Its 24
# rotated copies under the cube group partition [-1/2, 1/2]^3 with volume
# 1/24 each.
_CANONICAL_TETRA = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0],
        [0.5, 0.5, -0.5],
        [0.5, 0.5, 0.5],
    ]
)


# Cell points whose |p_x|, |p_y|, |p_z| come closer than this to a tie are
# located by the face margins themselves (max margin, lowest chamber index).
_TIE_GAP = 1e-9

# Near-tie points are settled this many at a time: each chunk's projections
# take (chunk, 96) doubles, so a lattice-aligned point cloud, where a fifth
# of the points can sit on a tie, keeps a working set of a few MiB.
_TIE_CHUNK = 4096


def _chamber_codes(px, py, pz):
    """Codes 0..63 (uint8) of cell points given as coordinate columns, and the
    smallest gap between their |p_i|.  The code bits are |p_x| >= |p_y|,
    |p_x| >= |p_z|, |p_y| >= |p_z|, p_x < 0, p_y < 0, p_z < 0; away from ties
    the order of the |p_i| and the signs fix the chamber (the sign of the
    smallest one does not matter).  The comparisons and the gap are read from
    the same three differences, formed in place: on the Graf-Schenker
    suite's point clouds fresh temporaries cost more than the arithmetic."""
    ax, ay, az = np.abs(px), np.abs(py), np.abs(pz)
    dxy = ax - ay
    dxz = np.subtract(ax, az, out=ax)
    dyz = np.subtract(ay, az, out=ay)
    codes = (dxy >= 0).view(np.uint8) << 5
    codes |= (dxz >= 0).view(np.uint8) << 4
    codes |= (dyz >= 0).view(np.uint8) << 3
    codes |= (px < 0).view(np.uint8) << 2
    codes |= (py < 0).view(np.uint8) << 1
    codes |= (pz < 0).view(np.uint8)
    gap = np.abs(dxy, out=dxy)
    np.minimum(gap, np.abs(dxz, out=dxz), out=gap)
    np.minimum(gap, np.abs(dyz, out=dyz), out=gap)
    return codes, gap


def _tetra_halfspaces(verts):
    """Outward normals and offsets: inside <=> n . x <= c for all faces."""
    normals, offsets = [], []
    for f in range(4):
        face = np.delete(verts, f, axis=0)
        nrm = np.cross(face[1] - face[0], face[2] - face[0])
        nrm = nrm / np.linalg.norm(nrm)
        c = nrm @ face[0]
        if nrm @ verts[f] > c:  # orient away from the opposite vertex
            nrm, c = -nrm, -c
        normals.append(nrm)
        offsets.append(c)
    return np.array(normals), np.array(offsets)


class Tiling:
    """24 congruent tetrahedra tiling the unit cube, replicated over Z^3.

    Tile pieces at scale ell are ell*(R_m @ T0 + u + v) for chamber m, integer
    cell u and the fixed shift v chosen so the canonical tile contains the
    origin.  The tiling group is generated by the unit translations and the
    cube rotations conjugated to the shifted frame.
    """

    def __init__(self, shift=None, scale=1.0):
        self.rotations = cube_rotations()
        self.tetrahedra = np.einsum("mij,vj->mvi", self.rotations, _CANONICAL_TETRA)
        bary = _CANONICAL_TETRA.mean(axis=0)
        self.shift = -bary if shift is None else np.asarray(shift, dtype=float)
        self.scale = float(scale)
        normals, offsets = [], []
        for verts in self.tetrahedra:
            nrm, off = _tetra_halfspaces(verts)
            normals.append(nrm)
            offsets.append(off)
        # face-major: entry f * 24 + m holds face f of chamber m
        self._normals = np.array(normals).transpose(1, 0, 2).reshape(-1, 3)  # (96, 3)
        self._offsets = np.array(offsets).T.reshape(1, -1)  # (1, 96)
        # the shifted canonical tile must contain the origin
        nrm0, off0 = _tetra_halfspaces(_CANONICAL_TETRA)
        if (off0 - nrm0 @ (-self.shift)).min() <= 0:
            raise ValueError("invalid shift: origin not inside the base tile")
        # chamber of each code, read off the margins at one interior point per
        # realizable code: |p| = (0.4, 0.2, 0.1) in every order, every sign
        mags = np.array(list(itertools.permutations((0.4, 0.2, 0.1))))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
        interior = (mags[:, None, :] * signs[None, :, :]).reshape(-1, 3)
        codes, _ = _chamber_codes(*interior.T)
        chambers = self.chamber_margins(interior).argmax(axis=1)
        # 48 distinct codes, two per chamber (the sign of the smallest |p_i|)
        assert len(np.unique(codes)) == len(codes)
        assert (np.bincount(chambers, minlength=24) == 2).all()
        self._chamber_of_code = np.full(64, -1, dtype=np.int64)
        self._chamber_of_code[codes] = chambers

    # -- point location -----------------------------------------------------

    def chamber_margins(self, p):
        """Min face margin of each chamber for cube-frame points p (P, 3),
        the minimum of four contiguous (P, 24) face blocks."""
        margins = self._offsets - p @ self._normals.T  # (P, 96)
        out = np.minimum(margins[:, :24], margins[:, 24:48])
        np.minimum(out, margins[:, 48:72], out=out)
        return np.minimum(out, margins[:, 72:], out=out)

    def locate(self, points, scale=None, g=None):
        """Packed tile key (int64, see _pack) of each point, ties resolved to
        the tile of maximal face margin (deterministic)."""
        cells, local = self._frame(points, scale, g)
        codes, gap = _chamber_codes(*local)
        chamber = self._chamber_of_code[codes]
        # points within _TIE_GAP of a tie (or NaN) take the margin argmax,
        # _TIE_CHUNK of them at a time
        near = np.nonzero(~(gap >= _TIE_GAP))[0]
        for start in range(0, len(near), _TIE_CHUNK):
            rows = near[start : start + _TIE_CHUNK]
            p = np.stack([c[rows] for c in local], axis=1)
            chamber[rows] = self.chamber_margins(p).argmax(axis=1)
        return _pack(chamber, *cells)

    def _frame(self, points, scale, g):
        """Rounded cells and cell-frame coordinates of the points (P, 3)
        pulled back by g, each as three columns: w = y / scale - shift,
        u = rint(w), p = w - u."""
        scale = self.scale if scale is None else float(scale)
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        y = pts if g is None else g.apply_inverse(pts)
        cells, local = [], []
        for k, v in enumerate(self.shift):
            p = y[:, k] / scale
            p -= v
            u = np.rint(p)
            p -= u
            cells.append(u)
            local.append(p)
        return cells, local

    def multiplicity(self, points, scale=None, g=None, tol=1e-9):
        """Number of open tiles strictly containing each point (cube-interior
        points only count chambers of their own cell)."""
        _, local = self._frame(points, scale, g)
        p = np.stack(local, axis=1)
        inside_cell = (np.abs(p) < 0.5 - tol).all(axis=1)
        margins = self.chamber_margins(p)
        count = (margins > tol).sum(axis=1)
        return np.where(inside_cell, count, 0)

    # -- tiles and the group -------------------------------------------------

    def tile_vertices(self, chamber, cell, scale=None, g=None):
        scale = self.scale if scale is None else float(scale)
        verts = scale * (
            self.tetrahedra[int(chamber)] + np.asarray(cell, dtype=float) + self.shift
        )
        return verts if g is None else g.apply(verts)

    def tile_volume(self, scale=None):
        scale = self.scale if scale is None else float(scale)
        return scale ** 3 / 24.0

    def group_element(self, chamber, cell):
        """Tiling-group element carrying the base tile to (chamber, cell)."""
        R = self.rotations[int(chamber)]
        v = self.shift
        u = np.asarray(cell, dtype=float)
        return GroupElement(R, u + v - R @ v)


# Cell coordinates in [-2^18, 2^18) fill 19 bits each, so a packed key stays
# below 2^57 * 24 < 2^62 and no step of _pack wraps.
_CELL_BITS = 19
_CELL_OFFSET = 1 << 18


def _pack(chamber, ux, uy, uz):
    """One int64 per tile, ((ux' * 2^19 + uy') * 2^19 + uz') * 24 + chamber
    with u' = u + 2^18, so keys sort as (ux, uy, uz, chamber) rows.  A cell
    coordinate outside [-2^18, 2^18) raises ValueError; a NaN one (a point
    with a NaN coordinate) is not checked and packs to an unspecified key."""
    key = np.zeros(len(chamber), dtype=np.int64)
    for u in (ux, uy, uz):
        if (
            np.fmin.reduce(u, initial=0) < -_CELL_OFFSET
            or np.fmax.reduce(u, initial=0) >= _CELL_OFFSET
        ):
            raise ValueError("tile cell coordinate outside [-2^18, 2^18)")
        key *= 1 << _CELL_BITS
        key += u.astype(np.int64)
        key += _CELL_OFFSET
    key *= 24
    key += chamber
    return key


def _unpack(keys):
    """Chamber and cell columns (int64) of packed tile keys, inverting _pack."""
    cells, chamber = np.divmod(np.asarray(keys, dtype=np.int64), 24)
    mask = (1 << _CELL_BITS) - 1
    ux = (cells >> 2 * _CELL_BITS) - _CELL_OFFSET
    uy = ((cells >> _CELL_BITS) & mask) - _CELL_OFFSET
    uz = (cells & mask) - _CELL_OFFSET
    return chamber, ux, uy, uz


def unit_cube_tiling(v=None):
    """The 24-tetrahedron tiling of [-1/2, 1/2]^3.

    v defaults to the negated barycenter of the canonical tetrahedron so the
    base tile contains the origin; an explicit v must satisfy the same
    condition.
    """
    return Tiling(shift=v)


# ---------------------------------------------------------------------------
# mollified indicators

def _mollifier_nodes(r_j, n_quad=16):
    """Midpoint nodes/weights of the bump c (1-|x/r|^2)^4 on |x| < r_j.

    Weights are normalized to sum exactly to one, so partitions of unity over
    the tiling hold to rounding error.
    """
    h = 2.0 * r_j / n_quad
    grid = -r_j + h * (np.arange(n_quad) + 0.5)
    pts = np.array(list(itertools.product(grid, grid, grid)))
    r2 = (pts ** 2).sum(axis=1) / r_j ** 2
    keep = r2 < 1.0
    pts = pts[keep]
    w = (1.0 - r2[keep]) ** 4
    return pts, w / w.sum()


class SmoothedIndicator:
    """theta = (1_tile * j)^(1/2) for one tile, via fixed midpoint quadrature
    of the convolution with a polynomial bump of support radius r_j."""

    def __init__(self, tiling, chamber, cell, scale, g=None, r_j=0.1, n_quad=16):
        if scale <= 0 or r_j <= 0:
            raise ValueError("scale and r_j must be positive")
        self.tiling = tiling
        self.chamber = int(chamber)
        self.cell = tuple(int(c) for c in np.asarray(cell).reshape(3))
        self.scale = float(scale)
        self.g = g
        self.r_j = float(r_j)
        self.n_quad = n_quad
        self.nodes, self.weights = _mollifier_nodes(r_j, n_quad)
        self._key = _pack(np.array([self.chamber]), *np.array(self.cell).reshape(3, 1))[0]

    def theta_sq(self, points):
        """This tile's row of tile_weight_table at the points.  Points beyond
        2 r_j of the tile's bounding box, whose nodes cannot reach the tile,
        are left out of the table (weight 0), so its dense matrix spans only
        the tiles near this one."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        verts = self.tiling.tile_vertices(self.chamber, self.cell, self.scale, self.g)
        pad = 2.0 * self.r_j
        near = ((pts > verts.min(axis=0) - pad) & (pts < verts.max(axis=0) + pad)).all(axis=1)
        keys, theta_sq = tile_weight_table(
            self.tiling, pts[near], self.scale, self.g, self.r_j, self.n_quad
        )
        out = np.zeros(len(pts))
        row = np.searchsorted(keys, self._key)
        if row < len(keys) and keys[row] == self._key:
            out[near] = theta_sq[row]
        return out

    def theta(self, points):
        return np.sqrt(self.theta_sq(points))

    def mass(self):
        """Exact integral of theta^2 for the quadrature-defined convolution."""
        return self.weights.sum() * self.tiling.tile_volume(self.scale)


def tile_weight_table(tiling, points, scale, g=None, r_j=0.1, n_quad=16):
    """Mollified tile weights theta_mu^2(x) as (keys, theta_sq): the sorted
    distinct packed keys of the tiles the points' quadrature nodes land in,
    and the dense (len(keys), P) matrix of each tile's weight at each point.

    Each column sums to one (quadrature nodes land in exactly one tile
    each), which realizes the partition of unity over the moved tiling.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    nodes, w = _mollifier_nodes(r_j, n_quad)
    P, K = pts.shape[0], nodes.shape[0]
    # one entry per (point, tile): its key, its point and its summed weight
    runs = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    chunk = max(1, 32_768 // K)  # offsets per chunk: a few MiB of keys and sort orders
    for start in range(0, P, chunk):
        block = pts[start : start + chunk]
        offs = (block[:, None, :] - nodes[None, :, :]).reshape(-1, 3)
        keys = tiling.locate(offs, scale=scale, g=g)
        pid = np.repeat(np.arange(start, start + block.shape[0]), K)
        order = np.lexsort((keys, pid))
        keys, pid = keys[order], pid[order]
        new = np.empty(keys.shape[0], dtype=bool)
        new[0] = True
        new[1:] = (keys[1:] != keys[:-1]) | (pid[1:] != pid[:-1])
        starts = np.nonzero(new)[0]
        sums = np.add.reduceat(np.tile(w, block.shape[0])[order], starts)
        runs.append((keys[starts], pid[starts], sums))
    keys, pid, sums = (np.concatenate(col) for col in zip(*runs))
    uniq, rows = np.unique(keys, return_inverse=True)
    theta_sq = np.zeros((len(uniq), P))
    theta_sq[rows, pid] = sums
    return uniq, theta_sq


# ---------------------------------------------------------------------------
# regularity diagnostics


class ConeCheckResult:
    def __init__(self, passed, witness=None, tested=0):
        self.passed = passed
        self.witness = witness
        self.tested = tested

    def __bool__(self):
        return self.passed

    def __repr__(self):
        status = "pass" if self.passed else f"fail at {self.witness}"
        return f"ConeCheckResult({status}, tested={self.tested})"


def _cone_directions(seed, n_random=50):
    stencil = np.array(
        [d for d in itertools.product([-1, 0, 1], repeat=3) if any(d)], dtype=float
    )
    stencil /= np.linalg.norm(stencil, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    extra = rng.standard_normal((n_random, 3))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.vstack([stencil, extra])


def cone_check(domain, eps, n_samples=64, seed=0):
    """Sampled test of the eps-cone property for the domain and its complement.

    For sampled boundary sites (and mirrored: ghost sites just outside) a
    direction a_x must exist whose discrete cone
    {y : (x - y).a_x > (1 - eps^2)|x - y|, |x - y| < eps} lies entirely inside
    (resp. outside) the domain.  Returns the first failing witness if any.
    """
    if not (0 < eps):
        raise ValueError("eps must be positive")
    a = domain.a
    dirs = _cone_directions(seed)
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
            return True  # eps below the grid scale: vacuous
        for d in dirs:
            mask = (-offs @ d) > (1.0 - eps ** 2) * norms
            ys = x_idx + offs[mask]
            ok = True
            for y in ys:
                member = domain.contains_idx(y)
                if member != inside:
                    ok = False
                    break
            if ok:
                return True
        return False

    tested = 0
    for inside, pool in ((True, domain.boundary_sites), (False, domain.ghost_sites())):
        if pool.shape[0] == 0 or n_samples == 0:
            continue
        take = min(n_samples, pool.shape[0])
        sel = rng.choice(pool.shape[0], size=take, replace=False)
        for x_idx in pool[sel]:
            tested += 1
            if not has_cone(x_idx, inside):
                side = "domain" if inside else "complement"
                return ConeCheckResult(False, witness=(tuple(int(v) for v in x_idx), side), tested=tested)
    return ConeCheckResult(True, tested=tested)


class RegularityProfile:
    """Sampled boundary-layer profile, cone scale, and diameter ratio.

    eta_samples maps t to the fraction of sites within a boundary layer of
    thickness t |Omega|^(1/3); the layer always includes the boundary sites
    themselves (each site stands for a grid cell of width a, so a site at
    graph depth k from the boundary enters once t |Omega|^(1/3) >= (k+1) a).
    """

    def __init__(self, eta_samples, cone_epsilon, diam_ratio, bbox_volume):
        self.eta_samples = eta_samples
        self.cone_epsilon = cone_epsilon
        self.diam_ratio = diam_ratio
        # crude stand-in for the smallest regular superset volume; flagged
        self.bbox_volume = bbox_volume
        self.bbox_volume_is_crude_bound = True

    def __repr__(self):
        return (
            f"RegularityProfile(cone_eps={self.cone_epsilon:g}, "
            f"diam_ratio={self.diam_ratio:g}, n_eta={len(self.eta_samples)})"
        )


def regularity_profile(domain, t_grid, cone_samples=24, seed=0):
    from scipy.spatial import cKDTree

    t_grid = list(t_grid)
    if any(t < 0 for t in t_grid) or sorted(t_grid) != t_grid:
        raise ValueError("t_grid must be sorted ascending and nonnegative")
    v13 = domain.volume ** (1.0 / 3.0)
    bpts = domain.boundary_points
    tree = cKDTree(bpts)
    dist, _ = tree.query(domain.points)
    rows = []
    for t in t_grid:
        thresh = max(t * v13 - domain.a, 0.0)
        frac = float((dist <= thresh + 1e-12 * domain.a).mean())
        rows.append((float(t), frac))
    cone_eps = 0.0
    for mult in (2.0, 1.6, 1.25, 1.0, 0.75, 0.5, 0.25):
        if cone_check(domain, mult * domain.a, n_samples=cone_samples, seed=seed).passed:
            cone_eps = mult * domain.a
            break
    lo, hi = domain.points.min(axis=0), domain.points.max(axis=0)
    bbox_volume = float(np.prod(hi - lo + domain.a))
    return RegularityProfile(rows, cone_eps, domain.diameter() / v13, bbox_volume)


# ---------------------------------------------------------------------------
# inner approximation by tiles


def _points_triangle_dist(P, tri):
    """Distances from points P (n, 3) to one triangle (Ericson clamp)."""
    a, b, c = tri
    ab, ac = b - a, c - a
    ap = P - a
    d1, d2 = ap @ ab, ap @ ac
    bp = P - b
    d3, d4 = bp @ ab, bp @ ac
    cp = P - c
    d5, d6 = cp @ ab, cp @ ac
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom = va + vb + vc
    v = np.where(denom != 0, vb / np.where(denom != 0, denom, 1.0), 0.0)
    w = np.where(denom != 0, vc / np.where(denom != 0, denom, 1.0), 0.0)
    closest = a + np.outer(v, ab) + np.outer(w, ac)
    # vertex regions
    closest = np.where(((d1 <= 0) & (d2 <= 0))[:, None], a, closest)
    closest = np.where(((d3 >= 0) & (d4 <= d3))[:, None], b, closest)
    closest = np.where(((d6 >= 0) & (d5 <= d6))[:, None], c, closest)
    # edge regions
    m = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    t = d1 / np.where(d1 - d3 != 0, d1 - d3, 1.0)
    closest = np.where(m[:, None], a + np.outer(t, ab), closest)
    m = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    t = d2 / np.where(d2 - d6 != 0, d2 - d6, 1.0)
    closest = np.where(m[:, None], a + np.outer(t, ac), closest)
    m = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    t = (d4 - d3) / np.where((d4 - d3) + (d5 - d6) != 0, (d4 - d3) + (d5 - d6), 1.0)
    closest = np.where(m[:, None], b + np.outer(t, c - b), closest)
    return np.linalg.norm(P - closest, axis=1)


def points_tetra_distance(P, verts):
    """Distances from points (n, 3) to a solid tetrahedron (0 inside)."""
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    normals, offsets = _tetra_halfspaces(verts)
    inside = (P @ normals.T - offsets).max(axis=1) <= 0
    dist = np.full(P.shape[0], np.inf)
    for f in range(4):
        tri = np.delete(verts, f, axis=0)
        dist = np.minimum(dist, _points_triangle_dist(P, tri))
    return np.where(inside, 0.0, dist)


def inner_approximation(domain, scale, delta, tiling=None):
    """Union of tiles whose delta-neighborhood lies inside the domain.

    A tile is accepted when every lattice site within distance delta of the
    tetrahedron belongs to the domain; the result is the set of domain sites
    covered by accepted tiles (possibly empty, flagged by a warning).
    """
    if scale <= 0 or delta < 0:
        raise ValueError("scale must be positive and delta nonnegative")
    tiling = tiling or unit_cube_tiling()
    keys = tiling.locate(domain.points, scale=scale)
    tiles = np.unique(keys)
    a = domain.a
    # occupancy bitmap over the padded bounding box for O(1) membership slices
    pad = int(np.ceil(delta / a)) + int(np.ceil(1.4 * scale / a)) + 2
    lo_all = domain.idx.min(axis=0) - pad
    hi_all = domain.idx.max(axis=0) + pad
    shape = tuple(hi_all - lo_all + 1)
    occupancy = np.zeros(shape, dtype=bool)
    rel = domain.idx - lo_all
    occupancy[rel[:, 0], rel[:, 1], rel[:, 2]] = True
    chambers, *cells = _unpack(tiles)
    accepted = np.zeros(len(tiles), dtype=bool)
    for t, (chamber, cell) in enumerate(zip(chambers, np.stack(cells, axis=1))):
        verts = tiling.tile_vertices(chamber, cell, scale=scale)
        lo = np.floor((verts.min(axis=0) - delta) / a).astype(int)
        hi = np.ceil((verts.max(axis=0) + delta) / a).astype(int)
        s = tuple(slice(l - o, h - o + 1) for l, h, o in zip(lo, hi, lo_all))
        block = occupancy[s]
        if block.all():
            accepted[t] = True
            continue
        missing = np.argwhere(~block) + lo
        dist = points_tetra_distance(a * missing.astype(float), verts)
        accepted[t] = dist.min(initial=np.inf) > delta
    mask = np.isin(keys, tiles[accepted])
    idx = domain.idx[mask]
    warning = None if idx.shape[0] else "inner approximation is empty"
    return Domain(
        domain.a, idx, label=f"{domain.label}_inner", allow_empty=True, warning=warning
    )


# ---------------------------------------------------------------------------
# exports


def domain_to_json(domain):
    return json.dumps(
        {
            "spacing": repr(domain.a),
            "label": domain.label,
            "sites": domain.idx.tolist(),
            "volume": repr(domain.volume),
            "boundary_sites": domain.boundary_sites.tolist(),
        },
        sort_keys=True,
    )


def tiling_to_json(tiling):
    return json.dumps(
        {
            "shift": [repr(x) for x in tiling.shift],
            "scale": repr(tiling.scale),
            "tetrahedra": [
                [[repr(x) for x in v] for v in verts] for verts in tiling.tetrahedra
            ],
        },
        sort_keys=True,
    )


def field_to_csv(points, values):
    lines = ["x,y,z,value"]
    for p, v in zip(np.asarray(points, dtype=float), np.asarray(values, dtype=float)):
        lines.append(f"{p[0]!r},{p[1]!r},{p[2]!r},{v!r}")
    return "\n".join(lines) + "\n"
