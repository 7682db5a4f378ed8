"""Discretized domains, the 24-tetrahedron cube tiling, seeded rigid-motion
samples, and the mollified tile-weight table.

Length units are dimensionless (hbar = e = 1, electron mass 1/2); a domain is
a finite set of sites of the lattice a*Z^3.
"""

import itertools

import numpy as np

__all__ = [
    "Domain",
    "Tiling",
    "RegularityProfile",
    "ConeCheckResult",
    "build_domain",
    "cone_check",
    "regularity_profile",
    "tile_weight_table",
]

_AXIS_STEPS = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=int
)

# Working-set sizes of the chunked passes, kept in one place.  Each bounds
# what one pass holds at once, and none is an option.  The tie and table
# chunks split along points, so no result depends on them; the two
# Graf-Schenker sizes split the per-sample sums, whose last bits can depend
# on where a block starts (see _GS_BLOCK).
# Near-tie points Tiling.locate settles at once: each chunk's projections
# take (chunk, 96) doubles, and in a lattice-aligned point cloud a fifth of
# the points can sit on a tie.
_TIE_CHUNK = 1024
# Mollifier offsets tile_weight_table locates and sorts at once (whole
# points' worth).
_WEIGHT_TABLE_OFFSETS = 8192
# Site pairs Domain.diameter compares at once (whole rows' worth).
_DIAMETER_PAIRS = 1 << 18
# Samples per block of the sharp Graf-Schenker check.  A power of two: a
# block's (block, pairs) @ prods then keeps the row bits of one whole-matrix
# dgemv, which blocks of 2730 or 5461 rows do not.
_GS_BLOCK = 2048
# Moved mollifier offsets smooth_gs_check locates at once (whole samples'
# worth).
_SMOOTH_GS_OFFSETS = 32_768


class Domain:
    """Finite set of grid sites of a*Z^3 with volume and boundary metadata.

    Sites are stored once: integer lattice coordinates idx in colex (z, y, x)
    order, the order of their sorted keys (_site_keys), which site_of
    searches.  Real-space positions are a * idx.  A site is a boundary site
    when one of its six grid neighbors is missing.  |Omega| = a^3 * n_sites.
    """

    def __init__(self, spacing, idx, label=""):
        idx = np.asarray(idx, dtype=np.int64).reshape(-1, 3)
        if spacing <= 0:
            raise ValueError("degenerate domain: spacing must be positive")
        if idx.shape[0] == 0:
            raise ValueError("degenerate domain: no sites")
        keys, ok = _site_keys(idx)
        if not ok.all():
            raise ValueError("site coordinate outside [-2^20, 2^20)")
        order = np.argsort(keys)
        self._keys = keys[order]
        if (self._keys[1:] == self._keys[:-1]).any():
            raise ValueError("duplicate sites in domain")
        self.a = float(spacing)
        self.idx = idx[order]
        self.label = label
        self._boundary_mask = (self.site_of(self.idx[:, None] + _AXIS_STEPS) < 0).any(axis=1)

    def site_of(self, points):
        """Site number of each lattice point (..., 3), or -1 off the domain
        (also for a coordinate outside [-2^20, 2^20))."""
        keys, ok = _site_keys(np.asarray(points, dtype=np.int64))
        pos = np.minimum(np.searchsorted(self._keys, keys), self.n_sites - 1)
        return np.where(ok & (self._keys[pos] == keys), pos, -1)

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
            sigma = self.site_of(mirrored)
            if (sigma >= 0).all() and (sigma != np.arange(self.n_sites)).any():
                out.append(sigma)
        return out

    def diameter(self):
        """Largest distance between two sites.  Only boundary sites are
        compared, _DIAMETER_PAIRS pairs at a time: an interior site is the
        midpoint of two sites, one of which lies farther from any given
        site."""
        pts = self.boundary_points
        rows = max(1, _DIAMETER_PAIRS // len(pts))
        d2 = 0.0
        for start in range(0, len(pts), rows):
            diff = pts[start : start + rows, None, :] - pts[None, :, :]
            d2 = max(d2, float((diff * diff).sum(-1).max()))
        return float(np.sqrt(d2))

    def __repr__(self):
        return f"Domain({self.label or 'custom'}, a={self.a}, sites={self.n_sites})"


def _site_keys(u):
    """One int64 per lattice point u (..., 3), ((z' * 2^21 + y') * 2^21 + x')
    with u' = u + 2^20, so keys ascend in colex (z, y, x) order; and whether
    the point is in range, every coordinate in [-2^20, 2^20) (21 bits, so
    no in-range key wraps)."""
    v = u + (1 << 20)
    ok = ((v >= 0) & (v < 1 << 21)).all(axis=-1)
    return (v[..., 2] << 42) + (v[..., 1] << 21) + v[..., 0], ok


def _box(values):
    """Every point of values^3 as the rows of one C-ordered (n^3, 3) array,
    x slowest (itertools.product order)."""
    axes = np.meshgrid(values, values, values, indexing="ij", copy=False)
    return np.stack(axes, axis=-1).reshape(-1, 3)


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
        idx = _box(np.arange(m, dtype=np.int64))
        return Domain(a, idx, label=f"cube{m}")
    if shape == "ball":
        r = float(spec["radius"])
        center = np.asarray(spec.get("center", [a / 2.0, a / 2.0, a / 2.0]), dtype=float)
        if center.shape != (3,):
            raise ValueError(f"ball center must have 3 coordinates, got shape {center.shape}")
        m = int(np.ceil(r / a)) + 1
        base = _box(np.arange(-m, m + 1, dtype=np.int64))
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
        return Domain(a, idx, label=spec.get("label", "custom"))
    raise ValueError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# rigid motions


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


def _sample_motions(rng, n, scale=1.0):
    """n rigid motions x -> R x + u, component-major: R (3, 3, n), whose
    entry R[k, i] is one contiguous row over the samples, and u (3, n).  The
    rotations are Haar-uniform on SO(3) from normalized Gaussian quaternions,
    then the translations uniform over one cell [0, scale)^3 of the scaled
    tiling's translation lattice (enough for averages of tiling-summed
    integrands), drawn in that order as (n, 4) and (n, 3) arrays; the norm
    sums w^2 + x^2 + y^2 + z^2 in that order, the bits of np.linalg.norm.  A
    caller moves the tiling by pulling its points back to (x - u) R."""
    q = np.ascontiguousarray(rng.standard_normal((n, 4)).T)
    q /= np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return _quat_to_matrix(*q), scale * np.ascontiguousarray(rng.random((n, 3)).T)


def _quat_to_matrix(w, x, y, z):
    """Rotation entries (3, 3, n) of unit quaternions given as rows w, x, y, z."""
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


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
    """24 congruent tetrahedra tiling the unit cube [-1/2, 1/2]^3, replicated
    over Z^3.

    Tile pieces at scale ell are ell*(R_m @ T0 + u + v) for chamber m, integer
    cell u and the shift v, the negated barycenter of the canonical
    tetrahedron, so the canonical tile contains the origin.
    """

    def __init__(self):
        self.rotations = cube_rotations()
        self.tetrahedra = np.einsum("mij,vj->mvi", self.rotations, _CANONICAL_TETRA)
        self.shift = -_CANONICAL_TETRA.mean(axis=0)
        normals, offsets = [], []
        for verts in self.tetrahedra:
            nrm, off = _tetra_halfspaces(verts)
            normals.append(nrm)
            offsets.append(off)
        # face-major: entry f * 24 + m holds face f of chamber m
        self._normals = np.array(normals).transpose(1, 0, 2).reshape(-1, 3)  # (96, 3)
        self._offsets = np.array(offsets).T.reshape(1, -1)  # (1, 96)
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

    def locate(self, points, scale):
        """Packed tile key (int64, see _pack) of each point, ties resolved to
        the tile of maximal face margin (deterministic)."""
        cells, local = self._frame(points, scale)
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

    def _frame(self, points, scale):
        """Rounded cells and cell-frame coordinates of the points x (P, 3),
        each as three columns: w = x / scale - shift, u = rint(w), p = w - u."""
        scale = float(scale)
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        cells, local = [], []
        for k, v in enumerate(self.shift):
            p = pts[:, k] / scale
            p -= v
            u = np.rint(p)
            p -= u
            cells.append(u)
            local.append(p)
        return cells, local


# Cell coordinates in [-2^18, 2^18) fill 19 bits each, so a packed key stays
# below 2^57 * 24 < 2^62 and no step of _pack wraps.
_CELL_BITS = 19
_CELL_OFFSET = 1 << 18


def _pack(chamber, ux, uy, uz):
    """One int64 per tile, ((ux' * 2^19 + uy') * 2^19 + uz') * 24 + chamber
    with u' = u + 2^18, so keys sort as (ux, uy, uz, chamber) rows.  A cell
    coordinate outside [-2^18, 2^18) raises ValueError, and so does a NaN
    one (a point with a NaN coordinate): the reductions propagate NaN, and
    no comparison with NaN holds."""
    key = np.zeros(len(chamber), dtype=np.int64)
    for u in (ux, uy, uz):
        if not (
            np.minimum.reduce(u, initial=0) >= -_CELL_OFFSET
            and np.maximum.reduce(u, initial=0) < _CELL_OFFSET
        ):
            raise ValueError("tile cell coordinate NaN or outside [-2^18, 2^18)")
        key *= 1 << _CELL_BITS
        key += u.astype(np.int64)
        key += _CELL_OFFSET
    key *= 24
    key += chamber
    return key


# ---------------------------------------------------------------------------
# mollified tile weights

def _mollifier_nodes(r_j, n_quad=16):
    """Midpoint nodes/weights of the bump c (1-|x/r|^2)^4 on |x| < r_j.

    Weights are normalized to sum exactly to one, so partitions of unity over
    the tiling hold to rounding error.
    """
    h = 2.0 * r_j / n_quad
    grid = -r_j + h * (np.arange(n_quad) + 0.5)
    pts = _box(grid)
    r2 = (pts ** 2).sum(axis=1) / r_j ** 2
    keep = r2 < 1.0
    pts = pts[keep]
    w = (1.0 - r2[keep]) ** 4
    return pts, w / w.sum()


def tile_weight_table(tiling, points, scale, r_j=0.1, n_quad=16):
    """Mollified tile weights theta_mu^2(x) as (keys, theta_sq): the sorted
    distinct packed keys of the tiles the points' quadrature nodes land in,
    and the dense (len(keys), P) matrix of each tile's weight at each point.

    Each column sums to one (quadrature nodes land in exactly one tile
    each), which realizes the partition of unity over the tiling.  The
    offsets x - node are located and summed by whole points, about
    _WEIGHT_TABLE_OFFSETS at a time; a point's sums never span two chunks, so
    the table does not depend on the chunk size.  The returned matrix itself
    is dense.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    nodes, w = _mollifier_nodes(r_j, n_quad)
    P, K = pts.shape[0], nodes.shape[0]
    # one entry per (point, tile): its key, its point and its summed weight
    runs = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    chunk = max(1, _WEIGHT_TABLE_OFFSETS // K)  # points per chunk
    for start in range(0, P, chunk):
        block = pts[start : start + chunk]
        offs = (block[:, None, :] - nodes[None, :, :]).reshape(-1, 3)
        keys = tiling.locate(offs, scale=scale)
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


_CONE_RANDOM_AXES = 50  # seeded axes tried after the 26 stencil directions
_PROFILE_CONE_SAMPLES = 24  # boundary and ghost sites per cone scale


def _cone_directions(seed):
    stencil = np.array(
        [d for d in itertools.product([-1, 0, 1], repeat=3) if any(d)], dtype=float
    )
    stencil /= np.linalg.norm(stencil, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    extra = rng.standard_normal((_CONE_RANDOM_AXES, 3))
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
        [d for d in itertools.product(rng_off, rng_off, rng_off) if any(d)], dtype=np.int64
    ).reshape(-1, 3)
    norms = np.linalg.norm(offs, axis=1)
    keep = a * norms < eps
    offs, norms = offs[keep], norms[keep]
    rng = np.random.default_rng(seed)
    # masks[d]: the offsets in the cone of direction d
    masks = np.array([(-offs @ d) > (1.0 - eps ** 2) * norms for d in dirs], dtype=int)

    cand = (domain.boundary_sites[:, None] + _AXIS_STEPS).reshape(-1, 3)
    ghosts = np.unique(cand[domain.site_of(cand) < 0], axis=0)
    tested = 0
    for inside, pool in ((True, domain.boundary_sites), (False, ghosts)):
        if pool.shape[0] == 0 or n_samples == 0:
            continue
        take = min(n_samples, pool.shape[0])
        xs = pool[rng.choice(pool.shape[0], size=take, replace=False)]
        # a sample has a cone when some direction's cone holds no offset
        # whose membership differs from the sample's own (vacuous for eps
        # below the grid scale, where no offset is left)
        wrong = (domain.site_of(xs[:, None] + offs) >= 0) != inside
        has_cone = ((wrong.astype(int) @ masks.T) == 0).any(axis=1)
        if not has_cone.all():
            first = int(np.argmin(has_cone))
            side = "domain" if inside else "complement"
            witness = (tuple(int(v) for v in xs[first]), side)
            return ConeCheckResult(False, witness=witness, tested=tested + first + 1)
        tested += take
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


def regularity_profile(domain, t_grid, seed=0):
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
        if cone_check(domain, mult * domain.a, n_samples=_PROFILE_CONE_SAMPLES, seed=seed).passed:
            cone_eps = mult * domain.a
            break
    lo, hi = domain.points.min(axis=0), domain.points.max(axis=0)
    bbox_volume = float(np.prod(hi - lo + domain.a))
    return RegularityProfile(rows, cone_eps, domain.diameter() / v13, bbox_volume)
