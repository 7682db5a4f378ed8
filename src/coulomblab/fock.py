"""Finite-dimensional Fock spaces: occupation bases, ladder operators, second
quantization, entropy, reduced density matrices, and the tensor-factor
isomorphism F(H1 + H2) ~ F(H1) (x) F(H2).
"""

import functools
import itertools
import json
import math

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
    "array_from_json",
]

_EIG_FLOOR = 1e-14  # eigenvalues below this are treated as exact zeros in x log x


class FockSpaceDesc:
    """Fock basis over n one-body modes, stored as orbital lists.

    statistics is "fermion" or "boson"; bosons carry a per-mode occupation cap.
    An optional total-particle cap n_max truncates the basis to sectors
    N <= n_max (the full space otherwise); top = min(n_max, n * per_mode) is
    the largest particle number.  A basis state is stored as its orbital
    list: the occupied modes in descending order, mode m repeated n_m times,
    padded with -1 to width top.  Basis order is colex on the occupation
    tuple (highest mode most significant), which is lex order on the lists,
    so the particle-number sectors interleave deterministically and the
    vacuum comes first.  A list's position has the closed form
    rank = sum_s counts[p_s, top - s] (the combinatorial number system), with
    counts[m, t] the occupation rows on m modes with entries <= per_mode and
    total <= t; index, dGamma(h) and the permutation lifts all rank through
    it.  The (dim, n) occupation table is derived from the lists on first
    use; the Coulomb assembly (dGamma(h), dGamma_2(w)) never builds it.
    """

    def __init__(self, n, statistics, boson_cap, lists, counts, n_max=None):
        self.n = n
        self.statistics = statistics
        self.boson_cap = boson_cap
        self.n_max = n_max
        self.lists = lists  # (dim, top) int16, descending, -1 padded, colex order
        self.counts = counts  # (n + 2, top + 1) int64, see _count_table
        self.dim, self.top = lists.shape
        self.totals = (lists >= 0).sum(axis=1)
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

    @functools.cached_property
    def occupations(self):
        """(dim, n) int16 occupation table, one scatter of the lists."""
        occ = np.zeros((self.dim, self.n), dtype=np.int16)
        state, s = np.nonzero(self.lists >= 0)
        np.add.at(occ, (state, self.lists[state, s]), 1)
        return occ

    def rank(self, lists):
        """Basis positions of orbital lists (shape (..., top)) in the basis
        order: sum_s counts[p_s, top - s]."""
        return self.counts[lists, np.arange(self.top, 0, -1)].sum(axis=-1)

    def index(self, rows):
        """Basis positions of occupation rows (shape (..., n)), -1 for rows
        outside the basis; a single row gives an int."""
        rows = np.asarray(rows)
        above = np.cumsum(rows[..., ::-1], axis=-1)  # particles on modes >= m
        # p_s is the highest mode with more than s particles on or above it
        lists = (above[..., None] > np.arange(self.top)).sum(axis=-2) - 1
        valid = ((rows >= 0) & (rows <= self.per_mode)).all(axis=-1) & (above[..., -1] <= self.top)
        out = np.where(valid, self.rank(lists), -1)
        return int(out) if out.ndim == 0 else out

    def vacuum_index(self):
        return 0  # the all-pad list leads the colex order

    def __repr__(self):
        cap = "" if self.n_max is None else f", n_max={self.n_max}"
        return f"FockSpaceDesc({self.statistics}, n={self.n}, dim={self.dim}{cap})"


def _count_table(n, per_mode, n_max):
    """counts[m, t] for m <= n and t <= top = min(n_max, n * per_mode): the
    occupation rows on m modes with entries <= per_mode and total <= t, as
    exact integers, so counts[n, top] is the basis dimension.  Row n + 1 is
    zero, so the list pad -1 adds nothing to a rank."""
    if n_max is not None and n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max!r}")
    top = n * per_mode if n_max is None else min(n_max, n * per_mode)
    counts = np.zeros((n + 2, top + 1), dtype=object)
    counts[0] = 1
    for m in range(1, n + 1):
        for v in range(min(per_mode, top) + 1):
            counts[m, v:] += counts[m - 1, : top + 1 - v]
    return counts


def build_space(n, statistics="fermion", boson_cap=4, n_max=None, dim_cap=16384):
    """Enumerate the orbital-list basis; errors out when the dimension would
    exceed dim_cap."""
    if n < 1:
        raise ValueError("need at least one mode")
    if statistics not in ("fermion", "boson"):
        raise ValueError(f"unknown statistics {statistics!r}")
    per_mode = 1 if statistics == "fermion" else boson_cap
    counts = _count_table(n, per_mode, n_max)
    top = counts.shape[1] - 1
    dim = counts[n, top]
    if dim > dim_cap:
        raise ValueError(
            f"Fock dimension {dim} exceeds cap {dim_cap} "
            f"(n={n}, statistics={statistics}, n_max={n_max})"
        )
    # grow the lists one position at a time: entry s is the pad or a mode
    # m <= p_(s-1) with m < p_(s-per_mode), at most per_mode repeats; each
    # list's children come in ascending order, so the lists stay in lex order
    lists = np.zeros((1, 0), dtype=np.int16)
    for s in range(top):
        hi = lists[:, s - 1] if s else np.full(1, n - 1)
        if s >= per_mode:
            hi = np.minimum(hi, lists[:, s - per_mode] - 1)
        width = np.maximum(hi, -1) + 2  # children -1 .. hi
        parent = np.repeat(np.arange(len(lists)), width)
        child = np.arange(len(parent)) - np.repeat(np.cumsum(width) - width, width) - 1
        lists = np.column_stack([lists[parent], child]).astype(np.int16)
    return FockSpaceDesc(n, statistics, boson_cap, lists, counts.astype(np.int64), n_max=n_max)


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
    orbital lists one list position (column) at a time, with no ladder
    matrices, no occupation table and no sort.  The diagonal sum_i h_ii n_i
    adds h_ii n_i once per run of mode i, in ascending mode order (zero
    entries, such as the vacuum's, stay unstored).  Then one vectorized pass
    over the hops (state b, run of mode j starting at position s, mode
    i != j with h_ij != 0 and room for one more particle) moves a particle
    from j to i.  Mode i lands at position t = #(entries above i) - [j > i],
    so the target list is b's list with the entries between s and t shifted
    by one place, ranked as it stands.  A fermion hop carries the sign
    (-1)^(s + t), on a descending list (-1)^(below_j + below_i - [j < i]),
    below_m the occupied modes under m; a boson hop the factor
    sqrt(n_i + 1) sqrt(n_j)."""
    h = np.asarray(h)
    if h.shape != (space.n, space.n):
        raise ValueError("one-body matrix has wrong shape")
    if np.abs(h - h.conj().T).max() > 1e-12:
        raise ValueError("one-body matrix must be Hermitian")
    h = h.astype(complex if np.iscomplexobj(h) else float)
    top = space.top
    columns = np.ascontiguousarray(space.lists.T)  # columns[u]: position u of every list
    # first[u]: position u starts a run of mode j; run[u]: that run's length n_j
    first = columns >= 0
    first[1:] &= columns[1:] != columns[:-1]
    run = [(columns[u:] == columns[u]).sum(axis=0) for u in range(top)]
    diag = np.zeros(space.dim, dtype=h.dtype)
    for u in reversed(range(top)):  # descending positions: ascending modes
        (states,) = np.nonzero(first[u])
        m = columns[u, states]
        diag[states] += h[m, m] * run[u][states]
    b, s = np.nonzero(first.T)  # run starts, state by state
    j = space.lists[b, s]
    # the modes i != j with h_ij != 0, grouped by j in ascending i, and h_ij
    coupled = h != 0
    np.fill_diagonal(coupled, False)
    degree = coupled.sum(axis=0)
    jj, neighbours = np.nonzero(coupled.T)
    h_nb = h[neighbours, jj]
    reps = degree[j]
    # hop q of run r is r's neighbour q - (r's first hop), at nb[q] in the table
    offset = (np.cumsum(degree) - degree)[j] - (np.cumsum(reps) - reps)
    nb = np.arange(reps.sum()) + np.repeat(offset, reps)
    i = neighbours.astype(columns.dtype)[nb]
    b, s, j = np.repeat(b, reps), np.repeat(s.astype(columns.dtype), reps), np.repeat(j, reps)
    src = columns.take(b, axis=1)  # src[u]: position u of each hop's source list
    n_i = (src == i).sum(axis=0, dtype=columns.dtype)
    t = (src > i).sum(axis=0, dtype=columns.dtype) - (j > i)
    dst = np.zeros(len(b), dtype=space.counts.dtype)
    for u in range(top):
        col = np.where(t == u, i, src[u])
        if u + 1 < top:
            col = np.where((s <= u) & (u < t), src[u + 1], col)
        if u:
            col = np.where((t < u) & (u <= s), src[u - 1], col)
        dst += space.counts[:, top - u][col]
    if space.is_fermionic:
        odd = ((s ^ t) & 1).astype(nb.dtype)
        vals = np.concatenate([h_nb, -h_nb])[nb + len(h_nb) * odd]  # -h_ij when odd
    else:
        n_j = (src == j).sum(axis=0)
        # the ladder product's order, so hops match adag_i a_j bit for bit
        vals = np.sqrt(n_i + 1.0) * (h_nb[nb] * np.sqrt(n_j.astype(float)))
    (keep,) = np.nonzero(n_i < space.per_mode)  # room on i; the other targets are dropped
    # CSC form, column b: its nonzero diagonal entry, then its hops in order;
    # the transpose to CSR leaves every row sorted
    (nz,) = np.nonzero(diag)
    per_column = np.bincount(b[keep], minlength=space.dim) + (diag != 0)
    indptr = np.concatenate([[0], np.cumsum(per_column)])
    lead = indptr[nz]
    hop = np.ones(indptr[-1], dtype=bool)
    hop[lead] = False
    data, rows = np.empty(indptr[-1], dtype=h.dtype), np.empty(indptr[-1], dtype=np.int64)
    data[lead], data[hop] = diag[nz], vals[keep]
    rows[lead], rows[hop] = nz, dst[keep]
    return sp.csc_matrix((data, rows, indptr), shape=(space.dim, space.dim)).tocsr()


def second_quantize_twobody(space, w):
    """Second quantization of a site-diagonal pair potential w(p, q).

    Returns the diagonal operator (1/2) sum_{p != q} w_pq n_p n_q
    + (1/2) sum_p w_pp n_p (n_p - 1); the on-site term vanishes identically
    for fermions.  A state's entry is the sum over its particle pairs, list
    positions s < t, of w[p_s, p_t] (a boson mode's repeats give its on-site
    terms), added in ascending order: a symmetry of w permutes the terms, so
    it leaves the entries bitwise unchanged.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (space.n, space.n):
        raise ValueError("pair kernel has wrong shape")
    if np.abs(w - w.T).max() > 1e-12:
        raise ValueError("pair kernel must be symmetric")
    diag = np.zeros(space.dim)
    for N, rows in space.sectors.items():
        if N >= 2:
            s, t = np.triu_indices(N, 1)
            lists = space.lists[rows, :N]
            diag[rows] = np.sort(w[lists[:, s], lists[:, t]], axis=1).sum(axis=1)
    return sp.diags(diag).tocsr()


def permutation_lift(space, sigma):
    """Fock lift Gamma(sigma) of the mode permutation i -> sigma[i] as a signed
    basis permutation (perm, sign): Gamma(sigma) e_b = sign[b] e_perm[b].

    Gamma(sigma) adag_i Gamma(sigma)* = adag_sigma(i).  A fermion basis state is
    the ascending creation product, so its sign is the parity of the occupied
    pairs p < q that sigma puts in descending order; bosons take sign 1.
    """
    sigma = np.asarray(sigma)
    lists = space.lists
    moved = np.where(lists >= 0, sigma[lists], -1)  # the pad stays -1
    perm = space.rank(np.sort(moved, axis=1)[:, ::-1])
    if space.is_fermionic:
        # list positions s < t hold modes p_s > p_t; a pad never counts, as
        # no moved entry is below -1
        later = np.triu(np.ones((space.top, space.top), dtype=bool), k=1)
        inverted = ((moved[:, :, None] < moved[:, None, :]) & later).sum(axis=(1, 2))
        sign = np.where(inverted % 2 == 0, 1.0, -1.0)
    else:
        sign = np.ones(space.dim)
    return perm, sign


class FockState:
    """Density matrix on a Fock space (Hermitian, PSD, unit trace)."""

    def __init__(self, space, matrix, validate=True):
        self.space = space
        M = np.asarray(matrix)
        if M.shape != (space.dim, space.dim):
            raise ValueError("state matrix has wrong shape")
        self.matrix = M
        if validate:
            if np.abs(M - M.conj().T).max() > 1e-12:
                raise ValueError("state is not Hermitian")
            if abs(np.trace(M).real - 1.0) > 1e-12:
                raise ValueError("state trace differs from one")
            lo = np.linalg.eigvalsh(M)[0]
            if lo < -1e-12:
                raise ValueError(f"state has negative eigenvalue {lo:g}")


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


def array_from_json(text):
    """The array of a JSON document {"shape": [d0, d1, ...], "dtype": "float"
    or "complex", "data": [...]}, whose data holds the prod(shape) entries in
    row-major order: decimal strings, or [re, im] pairs of them for "complex".
    Other keys ("name", "order") are not read.  Any other document, or a
    non-finite entry, raises ValueError."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"array document must be a JSON object, got {type(obj).__name__}")
    shape, dtype, data = obj.get("shape"), obj.get("dtype"), obj.get("data")
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"array shape must be a list of non-negative ints, got {shape!r}")
    if dtype not in ("float", "complex"):
        raise ValueError(f"array dtype must be 'float' or 'complex', got {dtype!r}")
    pairs = dtype == "complex"
    size = math.prod(shape)

    def is_entry(x):
        if pairs:
            return isinstance(x, list) and len(x) == 2 and all(isinstance(c, str) for c in x)
        return isinstance(x, str)

    if not (isinstance(data, list) and len(data) == size and all(map(is_entry, data))):
        kind = "[re, im] pairs of decimal strings" if pairs else "decimal strings"
        raise ValueError(f"array data must be a list of {size} {kind} for shape {shape}")
    if pairs:
        flat = np.array([complex(float(re), float(im)) for re, im in data])
    else:
        flat = np.array([float(x) for x in data])
    if not np.isfinite(flat).all():
        raise ValueError("array data must be finite")
    return flat.reshape(shape)
