"""Discretized Coulomb Hamiltonians on Fock space: ground-state energies,
Gibbs free energies, Hartree-Fock energies, the two-species model with
bosonic nuclei in a magnetic field, and movable-nuclei optimization.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fock
from .fock import build_space, second_quantize_onebody, second_quantize_twobody

__all__ = [
    "MagneticField",
    "NucleiConfig",
    "ManyBodyOperator",
    "EnergyResult",
    "EigensolverError",
    "FreeEnergyResult",
    "OnePdm",
    "HFResult",
    "onsite_alpha",
    "coulomb_kernel",
    "kinetic_operator",
    "nuclear_potential",
    "nuclear_constant",
    "coulomb_hamiltonian",
    "ground_state_energy",
    "ground_state_vector",
    "free_energy",
    "variational_free_energy",
    "hf_energy",
    "hf_minimize",
    "charge_concavity_scan",
    "two_species_hamiltonian",
    "movable_nuclei_energy",
    "classical_nuclei_free_energy",
]


# ---------------------------------------------------------------------------
# fields and nuclei


_RANDOM_FIELD_MODES = 3  # seeded sine modes of MagneticField.random_bounded


class MagneticField:
    """Vector potential A as a rule point -> R^3; hopping phases are Peierls
    phases A(midpoint).(y - x)."""

    def __init__(self, func, label="custom"):
        self._func = func
        self.label = label

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        out = np.asarray(self._func(pts.reshape(-1, 3)), dtype=float).reshape(-1, 3)
        return out[0] if single else out

    @classmethod
    def constant(cls, B):
        B = np.asarray(B, dtype=float).reshape(3)

        def A(pts):
            return 0.5 * np.cross(np.broadcast_to(B, pts.shape), pts)

        return cls(A, label=f"constant{B.tolist()}")

    @classmethod
    def periodic_sine(cls, amplitude, period):
        """A = (0, amp sin(2 pi x / L), 0): divergence free, curl periodic."""
        if period == 0:
            raise ValueError(f"periodic_sine period must be nonzero, got {period!r}")
        k = 2.0 * np.pi / period

        def A(pts):
            out = np.zeros_like(pts)
            out[:, 1] = amplitude * np.sin(k * pts[:, 0])
            return out

        return cls(A, label="periodic_sine")

    @classmethod
    def random_bounded(cls, seed, scale=1.0):
        rng = np.random.default_rng(seed)
        ks = rng.uniform(0.3, 2.0, size=(_RANDOM_FIELD_MODES, 3))
        amps = rng.normal(scale=scale, size=(_RANDOM_FIELD_MODES, 3))
        phases = rng.uniform(0, 2 * np.pi, size=(_RANDOM_FIELD_MODES, 3))

        def A(pts):
            out = np.zeros_like(pts)
            for m in range(_RANDOM_FIELD_MODES):
                # x k0 + y k1 + z k2 term by term: no row depends on its batch
                kx = pts[:, 0] * ks[m, 0] + pts[:, 1] * ks[m, 1] + pts[:, 2] * ks[m, 2]
                out += amps[m][None, :] * np.sin(kx[:, None] + phases[m][None, :])
            return out

        return cls(A, label=f"random{seed}")


# The crystal: one nucleus per cell of a Z^3, at +a/4 on each axis.  A nucleus
# is kept within _LATTICE_MARGIN * a (max-norm) of a grid site, the discrete
# version of "inside Omega".
_NUCLEUS_OFFSET = 0.25
_LATTICE_MARGIN = 0.49


class NucleiConfig:
    """Point nuclei {(R_k, z_k)}: positions (K, 3) and charges (K,).

    Charges must be nonnegative, and positions pairwise distinct whenever
    both charges are nonzero (hypothesis D3); min_separation is the smallest
    pairwise distance over all entries.
    """

    def __init__(self, entries):
        self._set(*_entry_arrays(entries))

    def _set(self, positions, charges):
        self.positions, self.charges = positions, charges
        if (charges < 0).any():
            raise ValueError(f"nuclear charges must be nonnegative, got {float(charges.min())}")
        self._pairs = _pair_table(positions)
        i, j, d = self._pairs
        if ((d < 1e-12) & (charges[i] * charges[j] != 0.0)).any():
            raise ValueError("hyp_D3 violated: coincident nuclei with nonzero charges")
        self.min_separation = float(d.min()) if d.size else np.inf

    def __len__(self):
        return len(self.charges)

    @classmethod
    def from_lattice(cls, domain, z, defects=()):
        """The crystal on the domain: charge z at a (u + 1/4) for every site
        a u, in lexicographic order of u, and then each defect, a (position,
        charge) pair, that lies within _LATTICE_MARGIN * a of a site.

        These are the lattice nuclei within the margin of a site, as a
        lattice nucleus sits a/4 from its own site and at least 3a/4 (on one
        axis) from every other."""
        a = domain.a
        cells = np.unique(domain.idx, axis=0)
        R, q = _entry_arrays(defects)
        keep = _inside_domain(domain, R)
        R = np.concatenate([a * cells + a * _NUCLEUS_OFFSET, R[keep]])
        q = np.concatenate([np.full(len(cells), float(z)), q[keep]])
        cfg = cls.__new__(cls)
        cfg._set(R, q)
        if cfg.min_separation <= 1e-9:
            raise ValueError("hyp_D3 violated: a defect collides with a nucleus")
        return cfg


def _entry_arrays(entries):
    """(positions (K, 3), charges (K,)) of (position, charge) pairs."""
    entries = list(entries)
    pos = [np.asarray(R, dtype=float).reshape(3) for R, _ in entries]
    return np.array(pos).reshape(-1, 3), np.array([z for _, z in entries], dtype=float)


def _inside_domain(domain, R):
    """Mask over the rows of R: within _LATTICE_MARGIN * a (max-norm) of a
    grid site.  The margin is below a/2, so only the nearest grid point
    rint(R / a) can qualify (clipped, so a huge row stays off when cast)."""
    u = np.clip(np.rint(R / domain.a), -2.0 ** 40, 2.0 ** 40)
    near = np.abs(R - domain.a * u).max(axis=1) <= _LATTICE_MARGIN * domain.a + 1e-12
    near[near] = domain.site_of(u[near].astype(np.int64)) >= 0
    return near


def _pair_table(positions):
    """(i, j, |R_i - R_j|) over the pairs i < j, in itertools.combinations
    order."""
    i, j = np.triu_indices(len(positions), k=1)
    diff = positions[i] - positions[j]
    return i, j, np.sqrt((diff * diff).sum(axis=1))


# ---------------------------------------------------------------------------
# one-body pieces


def kinetic_operator(domain, field=None, mass_scale=1.0):
    """Discrete Dirichlet Laplacian with optional Peierls phases.

    Diagonal 6/a^2 scaled by mass_scale (units with electron mass 1/2, so the
    operator approximates -Delta); missing neighbors contribute Dirichlet
    walls (no wrap-around).
    """
    n = domain.n_sites
    a = domain.a
    dtype = complex if field is not None else float
    T = np.zeros((n, n), dtype=dtype)
    np.fill_diagonal(T, 6.0 / a ** 2)
    pts = domain.points
    for k, step in enumerate(np.eye(3, dtype=np.int64)):
        # the bonds i -> j = i + e_k, the field evaluated on all their midpoints
        j = domain.site_of(domain.idx + step)
        i = np.flatnonzero(j >= 0)
        j = j[i]
        if field is None:
            T[i, j] = T[j, i] = -1.0 / a ** 2
        else:
            phase = field(0.5 * (pts[i] + pts[j]))[:, k] * (pts[j, k] - pts[i, k])
            T[i, j] = -np.exp(1j * phase) / a ** 2
            T[j, i] = np.conj(T[i, j])
    return mass_scale * T


def onsite_alpha():
    """Cell-averaged Coulomb constant: E[1/|u - v|] for u, v uniform in the
    unit cube, the mean of 10^6 seeded Monte Carlo samples (seed 2024; the
    tests recompute it bit for bit).  The on-site kernel value is alpha/a."""
    return 1.8829734063928072


def coulomb_kernel(domain):
    """Site kernel w(x, y) = 1/|x - y|, with the cell-averaged value
    onsite_alpha()/a on the diagonal (only bosonic double occupation ever
    samples it).

    Each distance sums its sorted squared components, as nuclear_potential
    does, so W is bitwise invariant under every Domain.reflections()."""
    pts = domain.points
    sq = pts[:, None, :] - pts[None, :, :]
    sq *= sq
    sq.sort(axis=2)
    dist = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    np.fill_diagonal(dist, 1.0)
    W = 1.0 / dist
    np.fill_diagonal(W, onsite_alpha() / domain.a)
    return W


def nuclear_potential(domain, nuclei):
    """Site samples of -sum_k z_k / |x - R_k|; nuclei closer than a/10 to a
    site are rejected (the sample would be unbounded).

    Each distance sums its sorted squared components and each site its sorted
    per-nucleus terms, so v is bitwise invariant under every lattice symmetry
    that maps the nuclei onto themselves (Domain.reflections)."""
    sq = domain.points[:, None, :] - nuclei.positions[None, :, :]
    sq *= sq
    sq.sort(axis=2)
    dist = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    close = dist.min(axis=0) < domain.a / 10.0 - 1e-15
    if close.any():
        R = nuclei.positions[np.argmax(close)]
        raise ValueError(
            f"regularization violated: nucleus at {R.tolist()} is within a/10 of a site"
        )
    z = nuclei.charges
    live = z != 0.0
    v = np.zeros(domain.n_sites)
    v -= np.sort(z[live] / dist[:, live], axis=1).sum(axis=1)
    return v


def nuclear_constant(nuclei):
    """sum_{k < k'} z_k z_k' / |R_k - R_k'|, accumulated in pair order; pairs
    with a zero charge are left out, so coincident uncharged positions
    contribute nothing."""
    i, j, d = nuclei._pairs
    z = nuclei.charges
    zz = z[i] * z[j]
    live = zz != 0.0
    terms = zz[live] / d[live]
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


# ---------------------------------------------------------------------------
# many-body operators


class ManyBodyOperator:
    """Number-conserving operator as one CSR block per sector: blocks[key]
    acts on the basis states sectors[key], ascending.  A sector's key is its
    particle number, an int or one count per species, and the one record of
    it: mu.N is read from the key (_mu_dot_n).

    reflections lists candidate symmetries: zero-argument callables giving
    a signed basis permutation (perm, sign), the Fock lift (see
    fock.permutation_lift) of one of the domain's axis reflections or
    coordinate swaps that fix the one-body matrix (_lattice_symmetries),
    computed on first call and cached by the builder.  Only a sector
    spectrum that is split lifts them (_sector_spectrum), and it splits by
    the group generated by those that leave its block exactly invariant;
    Gibbs states and ground-state vectors diagonalize whole sectors.
    """

    def __init__(self, blocks, sectors, space=None, reflections=()):
        self.sectors = dict(sorted(sectors.items()))
        self.blocks = {key: blocks[key] for key in self.sectors}
        self.dim = sum(idx.size for idx in self.sectors.values())
        self.space = space
        self.reflections = list(reflections)


def _sector_blocks(matrix, sectors):
    """{key: block} of a number-conserving CSR matrix: each sector's rows,
    their columns relabelled to positions in its ascending index list."""
    where = np.empty(matrix.shape[0], dtype=np.intp)
    blocks = {}
    for key, idx in sectors.items():
        d, rows = idx.size, matrix[idx]
        where[idx] = np.arange(d)
        blocks[key] = sp.csr_matrix((rows.data, where[rows.indices], rows.indptr), shape=(d, d))
    return blocks


def _mu_dot_n(mu, key):
    """mu.N for the particle numbers N of a sector key; ValueError when mu
    does not have one entry per species."""
    mu_vec = np.atleast_1d(np.asarray(mu, dtype=float))
    n = np.atleast_1d(np.asarray(key, dtype=float))
    if mu_vec.shape != n.shape:
        raise ValueError("chemical potential arity does not match the model")
    return float(mu_vec @ n)


def _lattice_symmetries(candidates, *hs):
    """The site permutations among candidates (domain.reflections() or a
    subset) that leave every one-body matrix in hs exactly invariant; the
    Fock lift of any other cannot commute with a Hamiltonian whose
    one-particle parts are hs."""
    return [s for s in candidates if all(np.array_equal(h[np.ix_(s, s)], h) for h in hs)]


class _Electrons:
    """The electronic part of every Coulomb Hamiltonian on one domain.

    The Fock space and the sector blocks of dGamma(T(A)) + dGamma_2(W) are
    built once; nuclei reach the electrons only through -sum_k z_k/|x - R_k|
    and the nuclear repulsion, so operator(nuclei) adds one diagonal.  T, W
    and the lattice symmetries of T are kept for two_species_hamiltonian.
    """

    def __init__(self, domain, field=None, n_max=None, dim_cap=16384):
        self.domain = domain
        self.space = build_space(domain.n_sites, n_max=n_max, dim_cap=dim_cap)
        self.T, self.W = kinetic_operator(domain, field), coulomb_kernel(domain)
        H = second_quantize_onebody(self.space, self.T)
        H = H + second_quantize_twobody(self.space, self.W)
        self.base = _sector_blocks(H, self.space.sectors)
        # H restricted to one particle is T + diag(v): operator offers only
        # the symmetries of T that also fix v
        self.symmetries = _lattice_symmetries(domain.reflections(), self.T)
        self._lifts = [
            functools.cache(functools.partial(fock.permutation_lift, self.space, s))
            for s in self.symmetries
        ]

    def operator(self, nuclei):
        """H = base + sum_i v(x_i) + nuclear constant, v the site samples of
        nuclear_potential; a diagonal, each state's sorted terms v(list) summed
        (a pad adds +0.0), so bitwise invariant under the symmetries of v."""
        v = nuclear_potential(self.domain, nuclei)
        terms = np.sort(np.append(v, 0.0)[self.space.lists], axis=1)
        diag = terms.sum(axis=1) + nuclear_constant(nuclei)
        sectors = self.space.sectors
        blocks = {key: B + sp.diags(diag[sectors[key]]) for key, B in self.base.items()}
        reflections = [
            lift for lift, s in zip(self._lifts, self.symmetries) if np.array_equal(v[s], v)
        ]
        return ManyBodyOperator(blocks, sectors, space=self.space, reflections=reflections)


def coulomb_hamiltonian(domain, nuclei, field=None, n_max=None, dim_cap=16384):
    """H = dGamma(T(A) - sum_k z_k/|x - R_k|) + (1/2) sum_{i != j} 1/|x_i - x_j|
    + nuclear constant on the fermionic Fock space, block diagonal over
    particle-number sectors."""
    return _Electrons(domain, field, n_max, dim_cap).operator(nuclei)


@dataclass
class EnergyResult:
    value: float
    sector_minima: dict
    n_star: object
    method: dict = field(default_factory=dict)

    def __repr__(self):
        return f"EnergyResult(E={self.value:.10g}, N*={self.n_star})"


class EigensolverError(RuntimeError):
    """A sector eigensolve failed: the iterative eigensolver did not converge
    or missed its residual bound, or a symmetry split did not hold (a lift
    that is not a signed permutation of the sector, a group of more than
    _GROUP_MAX elements, group-algebra eigenvalues too close to tell apart,
    linked blocks of unequal size, or blocks that do not add up to the
    sector)."""


# Largest sector densified for its lowest eigenvalue.  Measured on crystal
# N = 2 blocks (2 vCPU, OpenBLAS, best of 15): eigvalsh and the seeded Lanczos
# below cost the same near dim 200 (190: 2.1 / 3.1 ms, 210: 3.6 / 3.2 ms); at
# 351 eigvalsh takes 10.6 ms against 4.1 ms, at 2016 0.69 s against 6 ms, and
# the two agree to 3e-15 relative.
_LANCZOS_FROM = 256
# Relative Ritz-estimate tolerance of a Lanczos solve, eigsh's stopping rule;
# the true residual may be 100 times larger (_sector_lowest).
_LANCZOS_TOL = 1e-9
# Lanczos basis size before a restart, and the matrix-vector products allowed
# in one solve.  On the six Lanczos sectors of the side-2..5 perturbation
# comparison (dims 351-7750, at most 65 products, so no restart) 100 vectors
# give the lowest eigenvalue to 3e-15 relative of eigsh at tol=0, all six in
# 30-40 ms in a fresh process (5 runs, 2 vCPU).  20 vectors (eigsh's default
# for one eigenvalue) restart, take 36-46 ms, and leave the near-degenerate
# side-5 periodic sector (gap 3.5e-4) up to 6e-15 off.
_LANCZOS_BASIS = 100
_LANCZOS_MATVECS = 5000
# Smallest sector whose full spectrum is split by its symmetry group.
# Measured the same way (best of 40, lifts cached; dense eigvalsh whole / split
# ms, group order in brackets): crystal N = 2 sectors of 2x2x5, 3x3x3 and 2x4x4
# boxes, 190 [2] 1.4/2.1, 351 [6] 6.5/3.4, 496 [2] 14/7.4; two-species (1, 1)
# sectors of 2x2x3, 2x2x4, 2x2x5 and 3x3x3 boxes, 144 [16] 0.7/2.2, 256 [16]
# 2.5/2.5, 400 [16] 6.7/3.4, 729 [48] 28/8.8.  Computing the lifts on first use
# adds 1.5-2.5 ms.
_SPLIT_FROM = 300
# Most elements a sector's symmetry group may have: the 48 of the cube.
_GROUP_MAX = 48
# Fixed generic weights c_g of the group-algebra element S of
# _isotypic_split; S eigenvalues closer than _S_SAME (relative to the
# largest) are one, and a gap up to _S_APART cannot be told apart.  A
# coupling below _S_COUPLED between two subspaces is rounding.
_S_WEIGHTS = np.random.default_rng(0).standard_normal(_GROUP_MAX)
_S_SAME = 1e-9
_S_APART = 1e-6
_S_COUPLED = 1e-8
# Shortest orbit whose S eigenvectors are refined by inverse iteration.  On
# the crystal and two-species sectors of sides 2-4, refining the shorter
# orbits too leaves every spectrum's largest error against dense eigvalsh
# unchanged (2e-15 to 7e-15 relative); skipping orbits of length 24 raises
# it to 1.4e-14.
_REFINE_FROM = 13


def _dense_eig(dense, vectors=False):
    """eigh (vectors=True) or eigvalsh of a dense Hermitian block."""
    return np.linalg.eigh(dense) if vectors else np.linalg.eigvalsh(dense)


def _lanczos(mat, v):
    """Lowest Ritz pair (theta, x) of the Hermitian sparse mat from start v.

    The three-term recurrence without reorthogonalization: the basis loses
    orthogonality only as Ritz values converge, and the extreme one stays
    accurate (Paige, Linear Algebra Appl. 34, 235 (1980)); x is normalized
    for that loss.  Stops on the Ritz estimate
    |beta_j s_j| <= _LANCZOS_TOL max(|theta|, 1), as eigsh does; a full basis
    restarts from x.  EigensolverError after
    _LANCZOS_MATVECS products."""
    dim = mat.shape[0]
    m = min(dim, _LANCZOS_BASIS)
    V = np.empty((m, dim), dtype=np.result_type(mat.dtype, v.dtype))
    alpha, beta = np.zeros(m), np.zeros(m)
    V[0] = v / np.linalg.norm(v)
    j = 0
    for _ in range(_LANCZOS_MATVECS):
        w = mat @ V[j]
        if j:
            w -= beta[j - 1] * V[j - 1]
        alpha[j] = np.vdot(V[j], w).real
        w -= alpha[j] * V[j]
        beta[j] = np.linalg.norm(w)
        # the estimate is at most beta_j: test every 4th step, on a full
        # basis, and wherever beta_j alone passes
        if (j + 1) % 4 == 0 or j + 1 == m or beta[j] <= _LANCZOS_TOL:
            theta, S = np.linalg.eigh(
                np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            )
            converged = beta[j] * abs(S[j, 0]) <= _LANCZOS_TOL * max(abs(theta[0]), 1.0)
            if converged or j + 1 == m:
                x = S[:, 0] @ V[: j + 1]
                x /= np.linalg.norm(x)
                if converged:
                    return float(theta[0]), x
                V[0], j = x, 0
                continue
        V[j + 1] = w / beta[j]
        j += 1
    raise EigensolverError(
        f"iterative eigensolver failed on dim {dim}: "
        f"no convergence in {_LANCZOS_MATVECS} matrix-vector products"
    )


def _sector_lowest(mat):
    """Lowest eigenvalue of one sector block: eigvalsh up to _LANCZOS_FROM,
    seeded Lanczos above."""
    dim = mat.shape[0]
    if dim <= _LANCZOS_FROM:
        return float(_dense_eig(mat.toarray())[0]), {"solver": "dense", "dim": dim}
    # fixed start vector, so the result does not depend on earlier solves
    v0 = np.random.default_rng(dim).standard_normal(dim).astype(mat.dtype)
    val, v = _lanczos(mat, v0)
    resid = float(np.linalg.norm(mat @ v - val * v))
    if resid > max(_LANCZOS_TOL * 100 * max(abs(val), 1.0), 1e-6):
        raise EigensolverError(f"iterative eigensolver residual {resid:g} too large")
    return val, {"solver": "lanczos", "dim": dim, "residual": resid}


def _lowest_sector(minima, method):
    """Global minimum over sector minima (vacuum included), ties resolved
    toward the smallest key."""
    best_key = None
    best = np.inf
    for key in sorted(minima):
        if minima[key] < best - 1e-12:
            best, best_key = minima[key], key
    return EnergyResult(best, minima, best_key, method)


def ground_state_energy(op):
    """Per-sector lowest eigenvalue; global minimum over sectors (vacuum
    included), ties resolved toward the smallest particle number.

    A sector is diagonalized densely when its dimension is at most
    _LANCZOS_FROM = 256, and by seeded Lanczos (with a residual check)
    above; method[key]["solver"] records which."""
    minima, method = {}, {}
    for key in op.sectors:
        val, info = _sector_lowest(op.blocks[key])
        minima[key] = val
        method[key] = info
    return _lowest_sector(minima, method)


def _lift_group(lifts, idx, block):
    """(codes, gens) of the group G generated by the lifts that leave one
    sector block exactly invariant, identity first, gens the rows of the kept
    lifts; None when no lift is kept.  U(g) e_b = s e_p in the sector basis
    has the code codes[g, b] = 2 p + [s < 0].

    A lift that is not a signed permutation of the sector is defective and
    raises EigensolverError, as does a group of more than _GROUP_MAX
    elements."""
    d = idx.size
    ident = np.arange(d, dtype=np.int32)  # codes up to 2 d, in half the memory
    per_row = np.diff(block.indptr)
    # (h g) e_b = s_g[b] s_h[p_g[b]] e_(p_h[p_g[b]]) has the code
    # c_h[c_g >> 1] ^ (c_g & 1)
    codes = [2 * ident]
    rows = {codes[0].tobytes(): 0}
    gens, where = [], None
    for lift in lifts:
        perm, sign = lift()
        if where is None:
            where = np.full(perm.size, -1, dtype=np.int32)
            where[idx] = ident
        local, s = where[perm[idx]], sign[idx]
        if (
            (local < 0).any()
            or (np.bincount(local, minlength=d) != 1).any()
            or (np.abs(s) != 1).any()
        ):
            raise EigensolverError(f"reflection lift is not a signed permutation of sector dim {d}")
        code = 2 * local + (s < 0)
        if code.tobytes() in rows:  # the identity, or a product of kept lifts
            continue
        # U B U^T = B: every stored B[i, j] is s_i s_j B[p_i, p_j]; U maps
        # index pairs one to one, so then no other entry moves to a nonzero
        moved = np.asarray(block[np.repeat(local, per_row), local[block.indices]]).ravel()
        if (moved != np.repeat(s, per_row) * s[block.indices] * block.data).any():
            continue
        gens.append(code)
        # Dimino: G grows by right cosets G_old r, first r = this lift, then
        # every product r t of a coset representative and a generator that
        # is not in G yet
        old, reps = np.array(codes), [code]
        for r in reps:
            if r.tobytes() in rows:
                continue
            if len(codes) + len(old) > _GROUP_MAX:
                raise EigensolverError(
                    f"reflection lifts generate more than {_GROUP_MAX} elements on sector dim {d}"
                )
            for c in old[:, r >> 1] ^ (r & 1):
                rows[c.tobytes()] = len(codes)
                codes.append(c)
            reps += [r[t >> 1] ^ (t & 1) for t in gens]
    if not gens:
        return None
    return np.array(codes), [rows[c.tobytes()] for c in gens]


def _isotypic_split(lifts, idx, block):
    """[(M, copies)] splitting one sector by its symmetry group G
    (_lift_group); None when no lift is kept.

    On each G-orbit of the sector basis take the signed basis
    f_b = U(g_b) e_rep, g_b the first element of each coset of the
    stabilizer.  Orbits with the same stabilizer and sign character (one
    type) share the matrices of U(g) there, so those of the generic
    symmetric group-algebra element S = sum_g c_g (U(g) + U(g)^T) and one
    eigh.  The S eigenvectors of one eigenvalue, over all orbits, span a
    subspace that the block B leaves invariant, as B commutes with S.
    Subspaces that a kept lift couples lie in one isotypic component, and
    by Schur's lemma B has one spectrum on all of them.

    M = Q^T B Q for an orthonormal basis Q of one subspace (_subspace_blocks),
    the first of each linked set, which stands for copies of them.
    EigensolverError when two S eigenvalues are too close to tell apart,
    linked subspaces differ in size or the sizes do not add up to the
    sector."""
    group = _lift_group(lifts, idx, block)
    if group is None:
        return None
    codes, gens = group
    perms = codes >> 1
    d, n = idx.size, len(perms)
    reps = np.nonzero(perms.min(axis=0) == np.arange(d))[0]
    # an orbit's type: its representative's stabilizer and sign character
    stab = np.where(perms[:, reps] == reps, codes[:, reps] & 1, -1).T.copy()
    seen = {}
    kind = np.array([seen.setdefault(h.tobytes(), len(seen)) for h in stab])
    n_types = len(seen)
    # basis state x is sign_of[x] f_coset_of[x] on orbit orbit_of[x] of its type
    place = type_of, orbit_of, coset_of, sign_of = np.empty((4, d), dtype=np.intp)
    orbits = np.bincount(kind)
    L_max = n // (stab >= 0).sum(axis=1).min()  # the longest orbit
    S_all = np.zeros((n_types, L_max, L_max))
    coupled = np.zeros((n_types, L_max, L_max), dtype=bool)
    lam_all = np.full((n_types, L_max), np.inf)
    V_all = np.zeros((n_types, L_max, L_max))
    for t in range(n_types):
        members = reps[kind == t]
        cosets = np.sort(np.unique(perms[:, members[0]], return_index=True)[1])
        X, F = perms[cosets[:, None], members], 1 - 2 * (codes[cosets[:, None], members] & 1)
        L = X.shape[0]
        type_of[X], orbit_of[X], coset_of[X] = t, np.arange(orbits[t]), np.arange(L)[:, None]
        sign_of[X] = F
        x, f = X[:, 0], F[:, 0]
        target = coset_of[perms[:, x]]
        # U(g) f_b = s_g[x_b] f[b] f[b'] f_b' with x_b' = p_g[x_b]: entry
        # (b', b) of U(g) on the orbit
        flat = target * L + np.arange(L)
        entry = (1 - 2 * (codes[:, x] & 1)) * f[target] * f
        S = np.bincount(flat.ravel(), (_S_WEIGHTS[:n, None] * entry).ravel(), L * L).reshape(L, L)
        S_all[t, :L, :L] = S + S.T
        lam_all[t, :L], V = np.linalg.eigh(S_all[t, :L, :L])
        V_all[t, :L, :L] = V
        Ug = np.zeros((len(gens), L * L))
        Ug[np.arange(len(gens))[:, None], flat[gens]] = entry[gens]
        coupled[t, :L, :L] = (np.abs(V.T @ Ug.reshape(-1, L, L) @ V) > _S_COUPLED).any(axis=0)
    # one subspace per cluster of S eigenvalues
    lam = lam_all[np.isfinite(lam_all)]
    order = np.argsort(lam, kind="stable")
    gaps = np.diff(lam[order])
    scale = max(np.abs(lam).max(), 1.0)
    if ((gaps > _S_SAME * scale) & (gaps <= _S_APART * scale)).any():
        raise EigensolverError(f"S eigenvalues of sector dim {d} too close to tell apart")
    label = np.full(lam_all.shape, -1)
    label[np.isfinite(lam_all)] = np.cumsum(np.concatenate([[0], gaps > _S_SAME * scale]))[
        np.argsort(order)
    ]
    k = label.max() + 1
    own = np.zeros((n_types, L_max, k))
    own[label >= 0, label[label >= 0]] = 1.0
    dims = (orbits[:, None] * own.sum(axis=1)).sum(axis=0).astype(np.intp)
    if dims.sum() != d:
        raise EigensolverError(f"symmetry blocks do not sum to the sector dimension {d}")
    linked = (own.transpose(0, 2, 1) @ coupled @ own).sum(axis=0) > 0
    linked |= linked.T | np.eye(k, dtype=bool)
    while True:  # transitive closure
        reach = linked @ linked
        if (reach == linked).all():
            break
        linked = reach
    chosen, copies = [], []
    for a in range(k):
        if linked[a, :a].any():
            continue
        members = np.nonzero(linked[a])[0]
        if (dims[members] != dims[a]).any():
            raise EigensolverError(f"linked symmetry blocks of sector dim {d} differ in size")
        chosen.append(a)
        copies.append(len(members))
    blocks = _subspace_blocks(block, place, orbits, S_all, lam_all, V_all, label, np.array(chosen))
    return list(zip(blocks, copies))


def _subspace_blocks(block, place, orbits, S_all, lam_all, V_all, label, chosen):
    """[M] for the chosen subspaces of _isotypic_split: M = Q^T B Q for an
    orthonormal basis Q of the subspace.

    Subspace c has the k_t eigenvectors V_t[:, j] of type t's S with labels
    c, and column start[c, t, j] + o of Q is sum_b V_t[b, j] f_b on orbit o
    of type t.  B Q = Q M, as B leaves the subspace invariant, so the rows
    of B Q at k_t pivot states of each orbit fix M's k_t rows for that
    orbit: of B, only those rows are read.  M is first order in the error
    of the eigenvectors, so on orbits of at least _REFINE_FROM states one
    step of inverse iteration takes them to rounding level first."""
    type_of, orbit_of, coset_of, sign_of = place
    n_c, (n_types, L_max) = chosen.size, label.shape
    mine = label[None] == chosen[:, None, None]
    counts = mine.sum(axis=2)  # k_t for each subspace and type
    K = counts.max()
    cols = np.argsort(~mine, axis=2, kind="stable")[:, :, :K]
    valid = np.arange(K) < counts[:, :, None]
    V = np.take_along_axis(V_all[None], cols[:, :, None, :], axis=3) * valid[:, :, None, :]
    scale = max(np.abs(lam_all[np.isfinite(lam_all)]).max(), 1.0)
    for t in range(n_types):
        c = np.nonzero(counts[:, t])[0]
        L = int(np.isfinite(lam_all[t]).sum())
        if L < _REFINE_FROM or not c.size:
            continue
        shift = lam_all[t, cols[c, t, 0]] + _S_SAME * scale
        W = np.linalg.solve(S_all[t, :L, :L] - shift[:, None, None] * np.eye(L), V[c, t, :L])
        V[c, t, :L] = np.linalg.qr(W)[0] * valid[c, t, None, :]  # the zero columns come last
    # greedy pivots: the row of largest norm once those chosen before are
    # projected out
    left = V.copy()
    piv = np.zeros((n_c, n_types, K), dtype=np.intp)
    for i in range(K):
        piv[:, :, i] = b = (left * left).sum(axis=3).argmax(axis=2)
        u = np.take_along_axis(left, b[:, :, None, None], axis=2)
        u /= np.maximum(np.linalg.norm(u, axis=3, keepdims=True), 1e-300)
        left -= (left @ u.transpose(0, 1, 3, 2)) @ u
    square = np.take_along_axis(V, piv[:, :, :, None], axis=2)
    both = valid[:, :, :, None] & valid[:, :, None, :]
    inv = np.linalg.inv(np.where(both, square, np.eye(K)))
    width = counts * orbits
    m = width.sum(axis=1)
    start = (np.cumsum(width, axis=1) - width)[:, :, None] + np.arange(K) * orbits[:, None]
    start *= valid
    # the pivot states: slot[c, x] = i when x sits at coset piv[c, t, i]
    table = np.full((n_c, n_types, L_max), -1)
    cc, tt, ii = np.nonzero(valid)
    table[cc, tt, piv[cc, tt, ii]] = ii
    slot = table[:, type_of, coset_of]
    cs, xs = np.nonzero(slot >= 0)
    sub = block[xs]
    r = np.repeat(np.arange(xs.size), np.diff(sub.indptr))
    y, val = sub.indices, sub.data
    c, x = cs[r], xs[r]
    live = counts[c, type_of[y]] > 0
    c, x, y, val = c[live], x[live], y[live], val[live]
    tx, ty = type_of[x], type_of[y]
    # M[start[c, t, j] + o, :] = sum_i inv[c, t, j, i] f (B Q)[pivot i of orbit o, :]
    w = (sign_of[x] * val * sign_of[y])[:, None, None]
    w = w * inv[c, tx, :, slot[c, x]][:, :, None] * V[c, ty, coset_of[y]][:, None, :]
    offset = np.cumsum(m * m) - m * m
    flat = (
        (offset[c] + m[c] * orbit_of[x])[:, None, None]
        + m[c, None, None] * start[c, tx][:, :, None]
        + (start[c, ty] + orbit_of[y][:, None])[:, None, :]
    ).ravel()
    M = np.bincount(flat, w.real.ravel(), offset[-1] + m[-1] ** 2).astype(w.dtype, copy=False)
    if np.iscomplexobj(w):
        M.imag = np.bincount(flat, w.imag.ravel(), M.size)
    # M is Hermitian to rounding; eigvalsh reads its lower triangle
    return [M[offset[i] : offset[i] + m[i] ** 2].reshape(m[i], m[i]) for i in range(n_c)]


# Largest block densified unless the caller sets dense_cap: the sector of
# ground_state_vector, and the default of free_energy and its callers.
_DENSE_CAP = 4096


def _fit_dense(what, dim, dense_cap):
    if dim > dense_cap:
        raise ValueError(f"{what} dimension {dim} exceeds dense cap {dense_cap}")


def _sector_spectrum(op, key, dense_cap):
    """Ascending eigenvalues of one sector block.

    A sector of dimension at least _SPLIT_FROM is split by the group its
    operator's exact lifts generate (_isotypic_split): one dense eigvalsh per
    isotypic component, its eigenvalues repeated once per linked subspace.
    A smaller sector, or one with no lift kept, is diagonalized whole.  The
    sector dimension must fit dense_cap."""
    idx = op.sectors[key]
    _fit_dense(f"sector {key}", idx.size, dense_cap)
    block = op.blocks[key]
    split = None
    if idx.size >= _SPLIT_FROM:
        split = _isotypic_split(op.reflections, idx, block)
    if split is None:
        return _dense_eig(block.toarray())
    vals = []
    for M, copies in split:
        vals += [_dense_eig(M)] * copies
    return np.sort(np.concatenate(vals))


def ground_state_vector(op):
    """(energy, sector key, full-space vector) of the minimizing sector, by
    one eigh of its whole block, which must fit _DENSE_CAP."""
    res = ground_state_energy(op)
    idx = op.sectors[res.n_star]
    _fit_dense(f"sector {res.n_star}", idx.size, _DENSE_CAP)
    _vals, vecs = _dense_eig(op.blocks[res.n_star].toarray(), vectors=True)
    full = np.zeros(op.dim, dtype=vecs.dtype)
    full[idx] = vecs[:, 0]
    return res.value, res.n_star, full


def _logsumexp(a):
    """log(sum(exp(a))) of a 1-d float array, bitwise as
    scipy.special.logsumexp: with m entries equal to the maximum, the shifted
    sum s of the others gives log1p(s/m) + log(m) + max; a result that is not
    finite falls back to log(sum(exp(a)))."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max()
        at_top = a == top
        m = np.float64(at_top.sum())
        e = np.exp(a - top)
        e[at_top] = 0.0  # kept in place: the pairwise sum rounds by position
        out = np.log1p(e.sum() / m) + np.log(m) + top
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return out


class FreeEnergyResult:
    """F = -log(Z)/beta with the exact sector eigenvalue table retained;
    dense_cap bounds the sector blocks gibbs_matrix densifies."""

    def __init__(self, op, beta, mu, sector_eigs, dense_cap=_DENSE_CAP):
        self.op = op
        self.beta = float(beta)
        self.mu = mu
        self.sector_eigs = sector_eigs
        self.dense_cap = dense_cap
        terms = [-beta * (eigs - _mu_dot_n(mu, key)) for key, eigs in sector_eigs.items()]
        self.log_z = float(_logsumexp(np.concatenate(terms)))
        self.value = -self.log_z / beta

    def ground_state(self):
        """Ground energy of H (no mu shift) from the retained spectra, with the
        tie rule of ground_state_energy."""
        minima = {key: float(eigs[0]) for key, eigs in self.sector_eigs.items()}
        return _lowest_sector(minima, {})

    def sector_weights(self):
        out = {}
        for key, eigs in self.sector_eigs.items():
            out[key] = np.exp(-self.beta * (eigs - _mu_dot_n(self.mu, key)) - self.log_z)
        return out

    def mean_charge(self):
        w = self.sector_weights()
        m = np.zeros(np.atleast_1d(np.asarray(next(iter(w)), dtype=float)).shape)
        for key, wk in w.items():
            m = m + wk.sum() * np.atleast_1d(np.asarray(key, dtype=float))
        return m if m.size > 1 else float(m[0])

    def gibbs_matrix(self):
        """Dense Gibbs density matrix exp(-beta(H - mu.N))/Z by one eigh per
        sector; every sector and the whole space must fit dense_cap."""
        for key, idx in self.op.sectors.items():
            _fit_dense(f"sector {key}", idx.size, self.dense_cap)
        _fit_dense("Fock space", self.op.dim, self.dense_cap)
        dtype = np.result_type(float, *(B.dtype for B in self.op.blocks.values()))
        M = np.zeros((self.op.dim, self.op.dim), dtype=dtype)
        for key, idx in self.op.sectors.items():
            vals, vecs = _dense_eig(self.op.blocks[key].toarray(), vectors=True)
            w = np.exp(-self.beta * (vals - _mu_dot_n(self.mu, key)) - self.log_z)
            M[np.ix_(idx, idx)] = (vecs * w) @ vecs.conj().T
        return M


def free_energy(op, beta, mu, dense_cap=_DENSE_CAP):
    """Exact grand-canonical free energy by full per-sector diagonalization."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    sector_eigs = {key: _sector_spectrum(op, key, dense_cap) for key in op.sectors}
    return FreeEnergyResult(op, beta, mu, sector_eigs, dense_cap)


def variational_free_energy(op, beta, mu, state):
    """tr[(H - mu.N) G] + (1/beta) tr[G log G] for a trial state G, summed
    sector by sector; this is bounded below by the Gibbs free energy."""
    G, energy = state.matrix, 0.0
    for key, idx in op.sectors.items():
        B = op.blocks[key].tocoo()  # tr(B G) on the sector, less mu.N times its weight
        trace = B.data @ G[idx[B.col], idx[B.row]]
        energy += np.real(trace - _mu_dot_n(mu, key) * G[idx, idx].sum())
    return energy - fock.entropy(state) / beta


# ---------------------------------------------------------------------------
# Hartree-Fock


class OnePdm:
    """One-body density matrix with 0 <= gamma <= 1."""

    def __init__(self, matrix):
        G = np.asarray(matrix)
        if np.abs(G - G.conj().T).max() > 1e-10:
            raise ValueError("one-body density must be Hermitian")
        lam = np.linalg.eigvalsh(G)
        if lam.min() < -1e-10 or lam.max() > 1.0 + 1e-10:
            raise ValueError("one-body density eigenvalues leave [0, 1]")
        self.matrix = G

    @property
    def trace(self):
        return float(np.trace(self.matrix).real)


@dataclass
class HFResult:
    gamma: OnePdm
    energy: float
    grand_value: float
    converged: bool
    iterations: int


def _hf_pieces(domain, nuclei, field):
    T = kinetic_operator(domain, field)
    v = nuclear_potential(domain, nuclei)
    h = T + np.diag(v).astype(T.dtype)
    return h, coulomb_kernel(domain), nuclear_constant(nuclei)


def hf_energy(domain, nuclei, gamma, field=None):
    """Direct-minus-exchange mean-field energy of a one-body density.

    The on-site kernel value cancels between direct and exchange, so fermionic
    self-interaction is absent; a rank-one gamma therefore has pure one-body
    energy plus the nuclear constant.
    """
    G = gamma.matrix if isinstance(gamma, OnePdm) else np.asarray(gamma)
    h, W, const = _hf_pieces(domain, nuclei, field)
    rho = np.real(np.diag(G))
    direct = 0.5 * float(rho @ W @ rho)
    exch = 0.5 * float((W * np.abs(G) ** 2).sum())
    return float(np.real(np.trace(h @ G))) + direct - exch + const


# Damping of the SCF update, the change |target - gamma| that counts as
# converged, and the iterations allowed.
_HF_STEP = 0.3
_HF_TOL = 1e-8
_HF_MAXITER = 500


def hf_minimize(domain, nuclei, mu=0.0, beta=None, field=None):
    """Damped self-consistent field iteration over number-conserving
    quasi-free states (no pairing channel), from gamma = 0.

    At beta=None the update is the aufbau projector onto mean-field modes
    below mu; at a finite beta > 0 it is the Fermi-Dirac map.  Returns the
    best iterate flagged unconverged when _HF_TOL is not met in _HF_MAXITER
    steps.
    """
    if beta is not None and not beta > 0:
        raise ValueError("beta must be positive")
    h, W, const = _hf_pieces(domain, nuclei, field)
    G = np.zeros_like(h)
    converged = False
    iterations = 0
    for iterations in range(1, _HF_MAXITER + 1):
        rho = np.real(np.diag(G))
        fockmat = h + np.diag(W @ rho).astype(h.dtype) - W * G
        vals, vecs = np.linalg.eigh(fockmat)
        if beta is None:
            occ = (vals < mu).astype(float)
        else:
            occ = 1.0 / (1.0 + np.exp(np.clip(beta * (vals - mu), -700, 700)))
        target = (vecs * occ) @ vecs.conj().T
        delta = np.linalg.norm(target - G)
        G = G + _HF_STEP * (target - G)
        if delta < _HF_TOL:
            converged = True
            break
    G = 0.5 * (G + G.conj().T)
    gamma = OnePdm(_clip_pdm(G))
    energy = hf_energy(domain, nuclei, gamma, field=field)
    grand = energy - mu * gamma.trace
    if beta is not None:
        lam = np.clip(np.linalg.eigvalsh(gamma.matrix), 1e-15, 1 - 1e-15)
        s1 = float(-(lam * np.log(lam) + (1 - lam) * np.log(1 - lam)).sum())
        grand -= s1 / beta
    return HFResult(gamma, energy, grand, converged, iterations)


def _clip_pdm(G):
    lam, V = np.linalg.eigh(G)
    lam = np.clip(lam, 0.0, 1.0)
    return (V * lam) @ V.conj().T


# ---------------------------------------------------------------------------
# charge scans and movable nuclei


@dataclass
class ConcavityReport:
    z_grid: np.ndarray
    table: np.ndarray
    concave: bool
    corner_attained: bool
    min_value: float
    corner_min: float
    worst_midpoint_defect: float


# Slack of the concavity and corner checks of charge_concavity_scan.
_CONCAVITY_TOL = 1e-9


def charge_concavity_scan(domain, positions, z_max, grid_steps, n_max=None):
    """Tabulate f(z_1..z_K) = inf spec H (electrons) over a charge grid;
    checks discrete per-axis midpoint concavity and corner attainment of the
    minimum, each to _CONCAVITY_TOL."""
    K = len(positions)
    if K > 3 or grid_steps > 9:
        raise ValueError("scan limited to K <= 3 nuclei and <= 9 grid steps")
    electrons = _Electrons(domain, n_max=n_max)
    zs = np.linspace(0.0, z_max, grid_steps)
    table = np.empty((grid_steps,) * K)
    for idx in itertools.product(range(grid_steps), repeat=K):
        nuclei = NucleiConfig(list(zip(positions, zs[list(idx)])))
        table[idx] = ground_state_energy(electrons.operator(nuclei)).value
    worst = -np.inf
    for axis in range(K):
        t = np.moveaxis(table, axis, 0)
        defect = (t[:-2] + t[2:] - 2 * t[1:-1]).max() if grid_steps >= 3 else -np.inf
        worst = max(worst, float(defect))
    concave = worst <= _CONCAVITY_TOL
    corner_vals = [
        table[tuple(grid_steps - 1 if c else 0 for c in corner)]
        for corner in itertools.product([0, 1], repeat=K)
    ]
    corner_min = float(min(corner_vals))
    min_value = float(table.min())
    corner_attained = min_value >= corner_min - _CONCAVITY_TOL
    return ConcavityReport(zs, table, concave, corner_attained, min_value, corner_min, worst)


def movable_nuclei_energy(domain, z, candidate_sites, K_max=2, n_max=None, dim_cap=16384):
    """Exhaustive grand-canonical minimum over at most K_max nuclei of charge z
    placed on the candidate positions, electrons the only quantum particles:
    (result, chosen sites, relaxed).

    relaxed is the charge-relaxed minimum, over charges in {0, z/2, z} on the
    candidates with at most K_max of them nonzero, returned for the caller to
    compare: concavity in the charges puts it at a corner, i.e. at the
    result.  Ties between subsets go to the first within 1e-12.
    """
    electrons = _Electrons(domain, n_max=n_max, dim_cap=dim_cap)
    best = relaxed = np.inf
    best_cfg = ()
    minima = {}
    n_star = None
    for K in range(0, min(K_max, len(candidate_sites)) + 1):
        for subset in itertools.combinations(range(len(candidate_sites)), K):
            # the all-z assignment comes last, the fixed-charge configuration
            for charges in itertools.product((0.5 * z, z), repeat=K):
                nuclei = NucleiConfig([(candidate_sites[i], q) for i, q in zip(subset, charges)])
                res = ground_state_energy(electrons.operator(nuclei))
                relaxed = min(relaxed, res.value)
            if res.value < best - 1e-12:
                best, best_cfg, minima, n_star = res.value, subset, res.sector_minima, res.n_star
    result = EnergyResult(best, minima, n_star, {"config": best_cfg})
    return result, [candidate_sites[i] for i in best_cfg], float(relaxed)


# Gibbs weight of the K = K_max terms above which classical_nuclei_free_energy
# flags the K sum as truncated.
_TRUNCATION_TOL = 1e-6


def classical_nuclei_free_energy(
    domain, z, beta, mu, K_max, nucleus_grid, cell_volume, n_max=None, dim_cap=16384,
    dense_cap=_DENSE_CAP,
):
    """Free energy with a classical-nucleus sum: -log(Z)/beta with

    Z = sum_{K <= K_max} (h^K / K!) sum_{R in grid^K}
        tr exp(-beta (H_{R, z} - mu_el N - mu_nuc K)),

    h the nucleus-grid cell volume, the position sum over ordered tuples of
    distinct grid points, electrons the only quantum particles.

    "energy" is the lowest ground energy over the same subsets, read from
    their spectra, with the tie rule of movable_nuclei_energy.
    """
    mu_el, mu_nuc = float(mu[0]), float(mu[1])
    electrons = _Electrons(domain, n_max=n_max, dim_cap=dim_cap)
    G = len(nucleus_grid)
    energy = np.inf
    log_terms = []
    top_k_terms = []
    for K in range(0, min(K_max, G) + 1):
        for subset in itertools.combinations(range(G), K):
            nuclei = NucleiConfig([(nucleus_grid[i], z) for i in subset])
            fe = free_energy(electrons.operator(nuclei), beta, mu_el, dense_cap=dense_cap)
            ground = fe.ground_state().value
            if ground < energy - 1e-12:
                energy = ground
            # ordered distinct tuples / K! = unordered subsets
            lt = fe.log_z + K * np.log(cell_volume) + beta * mu_nuc * K
            log_terms.append(lt)
            if K == K_max:
                top_k_terms.append(lt)
    log_z = float(_logsumexp(np.array(log_terms)))
    value = -log_z / beta
    truncated = False
    if top_k_terms and K_max >= 1:
        frac = np.exp(float(_logsumexp(np.array(top_k_terms))) - log_z)
        truncated = frac > _TRUNCATION_TOL
    return {
        "value": value,
        "energy": energy,
        "log_z": log_z,
        "beta": beta,
        "mu": (mu_el, mu_nuc),
        "truncation_flagged": truncated,
        "onsite_alpha": onsite_alpha(),
    }


# ---------------------------------------------------------------------------
# two species


def two_species_hamiltonian(
    domain,
    z,
    M,
    field=None,
    el_max=1,
    nuc_max=1,
    dim_cap=65536,
):
    """Electrons (fermions) and bosonic nuclei of charge z and mass M/2 on the
    same grid: H = dGamma_el(T(A)) + dGamma_nuc(T(-zA))/M - z (cross Coulomb)
    + el-el + z^2 nuc-nuc, commuting with both number operators.

    Each (N_e, K_n) block, on e_i (x) e_j in the order of i, then j, is
    kron(H_el, I) + kron(I, H_nuc) + diag(cross); dim_cap bounds both species
    spaces and every block.  Same-site pairs use the cell average alpha/a.
    """
    if not M > 0:
        raise ValueError(f"nucleus mass M must be positive, got {M!r}")
    n = domain.n_sites
    electrons = _Electrons(domain, field, el_max, dim_cap)
    el, H_el = electrons.space, electrons.base
    nuc = build_space(n, "boson", boson_cap=max(1, nuc_max), n_max=nuc_max, dim_cap=dim_cap)
    pairs = itertools.product(el.sectors.items(), nuc.sectors.items())
    size = {(Ne, Kn): ie.size * jn.size for (Ne, ie), (Kn, jn) in pairs}
    largest = max(size, key=size.get)
    if size[largest] > dim_cap:
        raise ValueError(f"sector {largest} dimension {size[largest]} exceeds cap {dim_cap}")
    T, W = electrons.T, electrons.W
    T_nuc = T if field is None else kinetic_operator(domain, MagneticField(lambda p: -z * field(p)))
    H_nuc = (1.0 / M) * second_quantize_onebody(nuc, T_nuc)
    H_nuc = _sector_blocks(H_nuc + second_quantize_twobody(nuc, z ** 2 * W), nuc.sectors)
    blocks, sectors = {}, {}
    for Ne, Kn in size:
        ie, jn = el.sectors[Ne], nuc.sectors[Kn]
        # -z sum_(s, t) W[p_s, q_t] over the electron list p and the nucleus
        # list q of each product state, its sorted terms summed
        terms = W[el.lists[ie, None, :Ne, None], nuc.lists[None, jn, None, :Kn]]
        cross = -z * np.sort(terms.reshape(size[Ne, Kn], Ne * Kn), axis=1).sum(axis=1)
        blocks[Ne, Kn] = (
            sp.kron(H_el[Ne], sp.identity(jn.size), format="csr")
            + sp.kron(sp.identity(ie.size), H_nuc[Kn], format="csr")
            + sp.diags(cross, dtype=T.dtype)  # a kron with an empty block is real
        )
        sectors[Ne, Kn] = (ie[:, None] * nuc.dim + jn[None, :]).ravel()
    # W is invariant under every lattice symmetry, so only T or T_nuc can
    # break one: of the symmetries of T, keep those that also fix T_nuc
    reflections = [
        functools.cache(functools.partial(_product_lift, el, nuc, s))
        for s in _lattice_symmetries(electrons.symmetries, T_nuc)
    ]
    return ManyBodyOperator(blocks, sectors, reflections=reflections)


def _product_lift(el, nuc, sigma):
    """Gamma_el(sigma) (x) Gamma_nuc(sigma) on the product basis e_i (x) e_j."""
    (pe, se), (pn, sn) = fock.permutation_lift(el, sigma), fock.permutation_lift(nuc, sigma)
    return (pe[:, None] * nuc.dim + pn[None, :]).ravel(), np.outer(se, sn).ravel()
