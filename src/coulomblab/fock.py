"""Finite-dimensional Fock spaces: occupation bases, ladder operators, second
quantization, entropy, reduced density matrices, and the tensor-factor
isomorphism F(H1 + H2) ~ F(H1) (x) F(H2).
"""

import itertools
import json
from math import comb

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FockSpaceDesc",
    "FockState",
    "ReducedDensity",
    "build_space",
    "ladder",
    "second_quantize_onebody",
    "second_quantize_twobody",
    "permutation_lift",
    "entropy",
    "entropy_of_spectrum",
    "reduced_density",
    "split_isomorphism",
    "quasi_free_state",
    "array_to_json",
    "array_from_json",
]

_EIG_FLOOR = 1e-14  # eigenvalues below this are treated as exact zeros in x log x


class FockSpaceDesc:
    """Occupation-number basis over n one-body modes.

    statistics is "fermion" or "boson"; bosons carry a per-mode occupation cap.
    An optional total-particle cap n_max truncates the basis to sectors
    N <= n_max (the full space otherwise).  Basis order is colex on the
    occupation tuple (highest mode most significant), so the particle-number
    sectors interleave deterministically and the vacuum comes first.
    """

    def __init__(self, n, statistics, boson_cap, occupations, n_max=None):
        self.n = n
        self.statistics = statistics
        self.boson_cap = boson_cap
        self.n_max = n_max
        self.occupations = occupations  # (dim, n) int array, colex order
        self.dim = occupations.shape[0]
        self.totals = occupations.sum(axis=1)
        self._keys = _row_keys(occupations)
        self.sectors = {}
        for N in sorted(set(self.totals.tolist())):
            self.sectors[int(N)] = np.nonzero(self.totals == N)[0]
        self._ladder_cache = {}

    @property
    def is_fermionic(self):
        return self.statistics == "fermion"

    @property
    def per_mode(self):
        return 1 if self.is_fermionic else self.boson_cap

    def index(self, rows):
        """Basis positions of occupation rows (shape (..., n)), -1 for rows
        outside the basis; a single row gives an int."""
        rows = np.asarray(rows)
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(self._keys, keys), self.dim - 1)
        valid = ((rows >= 0) & (rows <= self.per_mode)).all(axis=-1)
        out = np.where(valid & (self._keys[pos] == keys), pos, -1)
        return int(out) if out.ndim == 0 else out

    def sector_indices(self, N):
        return self.sectors[int(N)]

    def vacuum_index(self):
        return 0  # the all-zero row leads the colex order

    def __repr__(self):
        cap = "" if self.n_max is None else f", n_max={self.n_max}"
        return f"FockSpaceDesc({self.statistics}, n={self.n}, dim={self.dim}{cap})"


def _row_keys(rows):
    """Byte keys of occupation rows: highest mode first, big-endian uint16, so
    byte order of the keys is colex order of the rows."""
    n = rows.shape[-1]
    return np.ascontiguousarray(rows[..., ::-1], dtype=">u2").view(f"V{2 * n}")[..., 0]


def _capped_dimension(n, statistics, boson_cap, n_max):
    if statistics == "fermion":
        if n_max is None:
            return 2 ** n
        return sum(comb(n, N) for N in range(min(n, n_max) + 1))
    if n_max is None:
        return (boson_cap + 1) ** n
    # compositions of N into n parts each <= boson_cap, summed over N <= n_max
    counts = [1] + [0] * n_max
    for _ in range(n):
        new = [0] * (n_max + 1)
        for tot in range(n_max + 1):
            if counts[tot]:
                for k in range(min(boson_cap, n_max - tot) + 1):
                    new[tot + k] += counts[tot]
        counts = new
    return sum(counts)


def build_space(n, statistics="fermion", boson_cap=4, n_max=None, dim_cap=16384):
    """Enumerate the occupation basis; errors out when the dimension would
    exceed dim_cap."""
    if n < 1:
        raise ValueError("need at least one mode")
    if statistics not in ("fermion", "boson"):
        raise ValueError(f"unknown statistics {statistics!r}")
    dim = _capped_dimension(n, statistics, boson_cap, n_max)
    if dim > dim_cap:
        raise ValueError(
            f"Fock dimension {dim} exceeds cap {dim_cap} "
            f"(n={n}, statistics={statistics}, n_max={n_max})"
        )
    per_mode = 1 if statistics == "fermion" else boson_cap
    top = n * per_mode if n_max is None else min(n_max, n * per_mode)
    # colex order directly: each new mode is the most significant digit
    occupations = np.zeros((1, 0), dtype=np.int16)
    totals = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        blocks, sums = [], []
        for v in range(per_mode + 1):
            keep = totals + v <= top
            block = np.empty((int(keep.sum()), occupations.shape[1] + 1), dtype=np.int16)
            block[:, :-1] = occupations[keep]
            block[:, -1] = v
            blocks.append(block)
            sums.append(totals[keep] + v)
        occupations = np.concatenate(blocks)
        totals = np.concatenate(sums)
    return FockSpaceDesc(n, statistics, boson_cap, occupations, n_max=n_max)


def ladder(space, mode, kind):
    """Sparse creation/annihilation matrix for one mode.

    Fermions satisfy the anticommutation relations with the sign convention
    (-1)^(number of occupied modes below the acted mode); bosons satisfy the
    commutation relations below the occupation cap.
    """
    if not (0 <= mode < space.n):
        raise ValueError("mode out of range")
    if kind not in ("create", "annihilate"):
        raise ValueError("kind must be 'create' or 'annihilate'")
    key = (mode, kind)
    cached = space._ladder_cache.get(key)
    if cached is not None:
        return cached
    occ = space.occupations
    step = 1 if kind == "create" else -1
    nm = occ[:, mode]
    cols = np.nonzero(nm < space.per_mode if step == 1 else nm > 0)[0]
    target = occ[cols]
    target[:, mode] += step
    rows = space.index(target)
    keep = rows >= 0  # total-particle cap: matrix element leaves the basis
    rows, cols = rows[keep], cols[keep]
    if space.is_fermionic:
        vals = np.where(occ[cols, :mode].sum(axis=1) % 2 == 0, 1.0, -1.0)
    else:
        # sqrt(n + 1) to create, sqrt(n) to annihilate: the larger occupation
        vals = np.sqrt(np.maximum(nm[cols], target[keep, mode]).astype(float))
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(space.dim, space.dim))
    space._ladder_cache[key] = mat
    return mat


def second_quantize_onebody(space, h):
    """dGamma(h) = sum_ij h_ij adag_i a_j as a sparse matrix, assembled from the
    occupation table: the diagonal sum_i h_ii n_i, then one pass over the basis
    per nonzero hop h_ij (i != j), moving a particle from mode j to mode i.  A
    fermion hop carries the sign (-1)^(below_j + below_i - [j < i]), below_m
    the occupied modes under m; a boson hop the factor sqrt(n_i + 1) sqrt(n_j)."""
    h = np.asarray(h)
    if h.shape != (space.n, space.n):
        raise ValueError("one-body matrix has wrong shape")
    if np.abs(h - h.conj().T).max() > 1e-12:
        raise ValueError("one-body matrix must be Hermitian")
    h = h.astype(complex if np.iscomplexobj(h) else float)
    occ = space.occupations
    diag = np.zeros(space.dim, dtype=h.dtype)
    for i in range(space.n):
        diag += h[i, i] * occ[:, i]
    (nz,) = np.nonzero(diag)  # zero entries, such as the vacuum's, stay unstored
    rows, cols, vals = [nz], [nz], [diag[nz]]
    if space.is_fermionic:
        below = np.cumsum(occ, axis=1, dtype=np.int32) - occ
    for i, j in zip(*np.nonzero(h)):
        if i == j:
            continue
        src = np.nonzero((occ[:, j] > 0) & (occ[:, i] < space.per_mode))[0]
        target = occ[src]
        target[:, j] -= 1
        target[:, i] += 1
        dst = space.index(target)  # a hop keeps N, so every target is in the basis
        if space.is_fermionic:
            odd = (below[src, j] + below[src, i] - (j < i)) % 2
            vals.append(np.where(odd == 1, -h[i, j], h[i, j]))
        else:
            n_i, n_j = occ[src, i].astype(float), occ[src, j].astype(float)
            # the ladder product's order, so hops match adag_i a_j bit for bit
            vals.append(np.sqrt(n_i + 1.0) * (h[i, j] * np.sqrt(n_j)))
        rows.append(dst)
        cols.append(src)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim, space.dim),
    )


def second_quantize_twobody(space, w):
    """Second quantization of a site-diagonal pair potential w(p, q).

    Returns the diagonal operator (1/2) sum_{p != q} w_pq n_p n_q
    + (1/2) sum_p w_pp n_p (n_p - 1); the on-site term vanishes identically
    for fermions.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (space.n, space.n):
        raise ValueError("pair kernel has wrong shape")
    if np.abs(w - w.T).max() > 1e-12:
        raise ValueError("pair kernel must be symmetric")
    occ = space.occupations.astype(float)
    quad = ((occ @ w) * occ).sum(axis=1)
    diag = 0.5 * (quad - occ @ np.diag(w))
    return sp.diags(diag).tocsr()


def permutation_lift(space, sigma):
    """Fock lift Gamma(sigma) of the mode permutation i -> sigma[i] as a signed
    basis permutation (perm, sign): Gamma(sigma) e_b = sign[b] e_perm[b].

    Gamma(sigma) adag_i Gamma(sigma)* = adag_sigma(i).  A fermion basis state is
    the ascending creation product, so its sign is the parity of the occupied
    pairs p < q that sigma puts in descending order; bosons take sign 1.
    """
    sigma = np.asarray(sigma)
    occ = space.occupations
    perm = space.index(occ[:, np.argsort(sigma)])
    if space.is_fermionic:
        # float products are exact for these integer counts and run on BLAS
        inverted = np.triu(sigma[:, None] > sigma[None, :], k=1).astype(float)
        occ = occ.astype(float)
        sign = np.where(((occ @ inverted) * occ).sum(axis=1) % 2 == 0, 1.0, -1.0)
    else:
        sign = np.ones(space.dim)
    return perm, sign


class FockState:
    """Density matrix on a Fock space (Hermitian, PSD, unit trace)."""

    def __init__(self, space, matrix, number_conserving=None, validate=True):
        self.space = space
        M = np.asarray(matrix)
        if M.shape != (space.dim, space.dim):
            raise ValueError("state matrix has wrong shape")
        self.matrix = M
        if number_conserving is None:
            number_conserving = self._check_number_conserving()
        self.number_conserving = number_conserving
        if validate:
            if np.abs(M - M.conj().T).max() > 1e-12:
                raise ValueError("state is not Hermitian")
            if abs(np.trace(M).real - 1.0) > 1e-12:
                raise ValueError("state trace differs from one")
            lo = np.linalg.eigvalsh(M)[0]
            if lo < -1e-12:
                raise ValueError(f"state has negative eigenvalue {lo:g}")

    def _check_number_conserving(self):
        M = self.matrix
        for N, rows in self.space.sectors.items():
            other = np.setdiff1d(np.arange(self.space.dim), rows)
            if other.size and np.abs(M[np.ix_(rows, other)]).max() > 1e-12:
                return False
        return True

    @classmethod
    def pure(cls, space, vector, validate=True):
        v = np.asarray(vector, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(space, np.outer(v, v.conj()), validate=validate)

    @classmethod
    def vacuum(cls, space):
        v = np.zeros(space.dim)
        v[space.vacuum_index()] = 1.0
        return cls(space, np.outer(v, v), number_conserving=True, validate=False)

    def expectation(self, op):
        if sp.issparse(op):
            return complex((op @ self.matrix).diagonal().sum())
        return complex(np.trace(op @ self.matrix))

    def mean_particle_number(self):
        return float((self.space.totals * np.real(np.diag(self.matrix))).sum())


def entropy_of_spectrum(eigs):
    lam = np.asarray(eigs, dtype=float)
    lam = lam[lam > _EIG_FLOOR]
    return float(-(lam * np.log(lam)).sum())


def entropy(state):
    """Von Neumann entropy -tr(G log G), with 0 log 0 = 0."""
    M = state.matrix if isinstance(state, FockState) else np.asarray(state)
    return entropy_of_spectrum(np.linalg.eigvalsh(M))


def reduced_density(state, k=1):
    """k-particle reduced density matrix.

    Convention: <e_i|gamma1|e_j> = omega(adag_j a_i).  For k = 2 the matrix
    acts on ordered pairs i < j with
    gamma2[(i,j),(k,l)] = omega(adag_k adag_l a_j a_i).
    """
    space = state.space
    if k == 1:
        g = np.zeros((space.n, space.n), dtype=complex)
        ann = [ladder(space, i, "annihilate") for i in range(space.n)]
        for i in range(space.n):
            AiG = ann[i] @ state.matrix
            for j in range(space.n):
                # tr(G adag_j a_i) = tr(a_i G adag_j)
                g[i, j] = (ann[j].conj().T.multiply(AiG.T)).sum()
        return ReducedDensity(1, g, state)
    if k == 2:
        pairs = list(itertools.combinations(range(space.n), 2))
        ann = [ladder(space, i, "annihilate") for i in range(space.n)]
        lowered = {}
        for (i, j) in pairs:
            lowered[(i, j)] = (ann[j] @ ann[i]) @ state.matrix
        g = np.zeros((len(pairs), len(pairs)), dtype=complex)
        for col, (i, j) in enumerate(pairs):
            M = lowered[(i, j)]
            for row, (p, q) in enumerate(pairs):
                # omega(adag_p adag_q a_j a_i) = tr(M (a_q a_p)^dagger)
                op = ann[q] @ ann[p]
                g[row, col] = (op.conj().multiply(M)).sum()
        # rows create, columns annihilate: gamma2[(p,q),(i,j)]
        return ReducedDensity(2, g, state)
    raise ValueError("only k = 1, 2 are supported")


class ReducedDensity:
    def __init__(self, order, matrix, parent):
        self.order = order
        self.matrix = matrix
        self.parent = parent
        if np.abs(matrix - matrix.conj().T).max() > 1e-10:
            raise ValueError("reduced density is not Hermitian")

    @property
    def trace(self):
        return float(np.trace(self.matrix).real)

    def site_density(self, spacing=1.0):
        """Diagonal in the site basis divided by the cell volume."""
        return np.real(np.diag(self.matrix)) / spacing ** 3


def split_isomorphism(space, n1):
    """Unitary from F(H) onto F(H1) (x) F(H2) for the mode split [0, n1).

    Basis monomials map with amplitude +1 because every H1 factor stands left
    of every H2 factor in the ascending-ordered creation product.
    Returns (U, space1, space2); U is sparse of shape (dim1*dim2, dim).
    """
    if not (0 < n1 < space.n):
        raise ValueError("split point must be interior")
    n2 = space.n - n1
    kw = dict(
        statistics=space.statistics,
        boson_cap=space.boson_cap,
        n_max=space.n_max,
        dim_cap=10 ** 9,
    )
    s1 = build_space(n1, **kw)
    s2 = build_space(n2, **kw)
    occ = space.occupations
    i1, i2 = s1.index(occ[:, :n1]), s2.index(occ[:, n1:])
    if (i1 < 0).any() or (i2 < 0).any():
        raise ValueError("total-particle cap breaks the factor bases")
    U = sp.csr_matrix(
        (np.ones(space.dim), (i1 * s2.dim + i2, np.arange(space.dim))),
        shape=(s1.dim * s2.dim, space.dim),
    )
    return U, s1, s2


def partial_trace_second(matrix, dim1, dim2):
    """Trace out the second tensor factor of a (dim1*dim2)^2 matrix."""
    M = np.asarray(matrix).reshape(dim1, dim2, dim1, dim2)
    return np.einsum("abcb->ac", M)


def quasi_free_state(space, gamma):
    """Number-conserving quasi-free state with one-body density gamma.

    Built as the Gibbs state of dGamma(h) with h = log((1 - gamma)/gamma);
    eigenvalues of gamma pinned at 0 or 1 are nudged inward by 1e-12.
    """
    gamma = np.asarray(gamma)
    lam, V = np.linalg.eigh(gamma)
    lam = np.clip(lam, 1e-12, 1.0 - 1e-12)
    h = (V * np.log((1.0 - lam) / lam)) @ V.conj().T
    H = second_quantize_onebody(space, h).toarray()
    w, U = np.linalg.eigh(H)
    rho = np.exp(-(w - w.min()))
    rho /= rho.sum()
    M = (U * rho) @ U.conj().T
    return FockState(space, M, validate=False)


# ---------------------------------------------------------------------------
# JSON layout: row-major flattened arrays, numbers as decimal strings


def array_to_json(arr, name="array"):
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        data = [[repr(float(z.real)), repr(float(z.imag))] for z in arr.ravel()]
        dtype = "complex"
    else:
        data = [repr(float(x)) for x in arr.ravel()]
        dtype = "float"
    return json.dumps(
        {"name": name, "shape": list(arr.shape), "dtype": dtype, "order": "row-major", "data": data},
        sort_keys=True,
    )


def array_from_json(text):
    obj = json.loads(text)
    shape = tuple(obj["shape"])
    if obj["dtype"] == "complex":
        flat = np.array([complex(float(re), float(im)) for re, im in obj["data"]])
    else:
        flat = np.array([float(x) for x in obj["data"]])
    return flat.reshape(shape)
