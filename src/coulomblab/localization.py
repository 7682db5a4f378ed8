"""Localization of states in Fock space: the doubling isometry, q-localized
states, strong subadditivity of entropy, classical-quantum states, and the
lattice quantization oracle for their entropy.
"""

import itertools
from math import factorial

import numpy as np
import scipy.sparse as sp

from . import fock
from .fock import FockState, build_space, entropy_of_spectrum, ladder, second_quantize_onebody
from .inequalities import Report

__all__ = [
    "LocalizationWeight",
    "localization_isometry",
    "localize_positive_operator",
    "ssa_gap",
    "CQState",
    "cq_entropy",
    "cq_localize",
    "cq_ssa_gap",
    "quantize_cq",
    "QuantizeResult",
]

class LocalizationWeight:
    """Hermitian 0 <= q <= 1 on the one-body space with complement
    r = (1 - q^2)^(1/2)."""

    def __init__(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim == 2 and not np.any(q - np.diag(np.diag(q))):
            q = np.diag(q)
        if q.ndim == 1:
            if np.any(q < -1e-12) or np.any(q > 1 + 1e-12):
                raise ValueError("diagonal weight leaves [0, 1]")
            self.diagonal = np.clip(q, 0.0, 1.0)
            self.q = np.diag(self.diagonal)
            self.r = np.diag(np.sqrt(1.0 - self.diagonal ** 2))
        else:
            lam, V = np.linalg.eigh(q)
            if lam.min() < -1e-12 or lam.max() > 1 + 1e-12:
                raise ValueError("weight eigenvalues leave [0, 1]")
            lam = np.clip(lam, 0.0, 1.0)
            self.diagonal = None
            self.spectrum = (lam, V)
            self.q = (V * lam) @ V.conj().T
            self.r = (V * np.sqrt(1.0 - lam ** 2)) @ V.conj().T

    @classmethod
    def zero(cls, n):
        return cls(np.zeros(n))

    @property
    def n(self):
        return self.q.shape[0]


def _coerce_weight(q, n):
    if isinstance(q, LocalizationWeight):
        return q
    q = np.asarray(q, dtype=float)
    if q.ndim == 0:
        return LocalizationWeight(np.full(n, float(q)))
    return LocalizationWeight(q)


def _space_weight(space, q):
    """q as a weight on the modes of space.  A capped boson space has no Fock
    lift of a mode rotation (the cap breaks U(n) covariance), so it takes
    diagonal weights only."""
    w = _coerce_weight(q, space.n)
    if w.diagonal is None and not space.is_fermionic:
        raise ValueError(
            "non-diagonal localization weights need a fermion space: "
            "the boson occupation cap breaks U(n) covariance"
        )
    return w


def localization_isometry(space, q):
    """The doubling isometry on Fock space for a weight q.

    Maps each creation monomial adag(e_i1)...adag(e_ik)|0> to the product of
    (cdag(q e_i) + ddag(r e_i)) acting on the doubled vacuum, where
    cdag(f) = adag(f) (x) 1 and ddag(f) = (-1)^(eps N) (x) adag(f) with eps = 1
    for fermions and 0 for bosons.  Returns a sparse (dim^2, dim) matrix with
    Upsilon* Upsilon = 1.  Kept as the reference the per-mode channels of
    localize_positive_operator are tested against.
    """
    w = _space_weight(space, q)
    D = space.dim
    sign = (
        sp.diags(np.where(space.totals % 2 == 0, 1.0, -1.0))
        if space.is_fermionic
        else sp.identity(D)
    )
    eye = sp.identity(D, format="csr")
    creators = [ladder(space, i, "create") for i in range(space.n)]

    def lifted_create(f, which):
        op = sp.csr_matrix((D, D))
        for j in np.nonzero(np.abs(f) > 1e-15)[0]:
            op = op + f[j] * creators[j]
        if which == "c":
            return sp.kron(op, eye, format="csr")
        return sp.kron(sign, op, format="csr")

    mode_ops = []
    for i in range(space.n):
        op = lifted_create(w.q[:, i], "c") + lifted_create(w.r[:, i], "d")
        mode_ops.append(op.tocsr())

    vac = np.zeros(D * D)
    vac[space.vacuum_index() * D + space.vacuum_index()] = 1.0
    cols, rows, vals = [], [], []
    for col, occ in enumerate(space.occupations.tolist()):
        vec = vac
        norm = 1.0
        # highest mode first: the basis monomial carries ascending indices
        # left to right, so the rightmost (largest) creator acts first
        for mode in reversed(range(space.n)):
            for _ in range(int(occ[mode])):
                vec = mode_ops[mode] @ vec
            if occ[mode] > 1:
                norm *= np.sqrt(float(factorial(int(occ[mode]))))
        vec = vec / norm
        nz = np.nonzero(np.abs(vec) > 1e-15)[0]
        rows.extend(nz.tolist())
        cols.extend([col] * len(nz))
        vals.extend(vec[nz].tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(D * D, D))


def localize_positive_operator(space, matrix, q):
    """tr_2(Upsilon M Upsilon*) for a positive semidefinite M (not necessarily
    normalized), or for each matrix of a stack of shape (..., D, D).

    Upsilon factorizes over the modes, so the localized operator is a
    composition of one trace-preserving channel per mode (_localize_diagonal).
    A non-diagonal q = V diag(lam) V* goes through covariance,
    Upsilon_q = (Gamma(V) (x) Gamma(V)) Upsilon_lam Gamma(V)*, which gives
    Gamma(V) localize_lam(Gamma(V)* M Gamma(V)) Gamma(V)*.
    """
    w = _space_weight(space, q)
    M = np.asarray(matrix, dtype=complex)
    if w.diagonal is not None:
        return _localize_diagonal(space, M, w.diagonal)
    lam, V = w.spectrum
    lift = _fock_lift(space, V)
    inner = _localize_diagonal(space, lift.conj().T @ M @ lift, lam)
    return lift @ inner @ lift.conj().T


def _localize_diagonal(space, G, q):
    """Apply the mode channels G -> sum_k K_k G K_k* of a diagonal weight q,
    highest mode first.  Mode j has K_0 = q_j^(N_j) and, for k = 1 .. per_mode,
    K_k = (r_j^k / sqrt(k!)) q_j^(N_j) a_j^k P.  For fermions P = (-1)^N:
    with the Jordan-Wigner string of a_j it leaves, up to an overall sign, the
    parity of the modes above j, which by then are the kept ones, as the
    second factor's creators require.  For bosons P = 1 (pure loss).  Each
    a_j^k is a weighted partial permutation, so a term is one gather and one
    scatter of a block of G.

    q may be a stack (..., n) of weights; its leading axes broadcast against
    those of G (..., D, D), so one call localizes one operator under several
    weights, or each matrix of a stack under its own weight."""
    parity = (-1.0) ** space.totals if space.is_fermionic else np.ones(space.dim)
    for j in reversed(range(space.n)):
        keep = q[..., j, None] ** space.occupations[:, j]
        out = G * (keep[..., :, None] * keep[..., None, :])
        r_sq = 1.0 - q[..., j, None] ** 2
        steps = space.per_mode if (r_sq > 0.0).any() else 0  # q_j = 1 keeps mode j whole
        lower = ladder(space, j, "annihilate")
        powers = itertools.accumulate([lower] * steps, lambda p, a: a @ p)
        for k, power in enumerate(powers, start=1):
            rows = np.repeat(np.arange(space.dim), np.diff(power.indptr))
            cols = power.indices
            c = np.sqrt(r_sq ** k / factorial(k)) * power.data * keep[..., rows] * parity[cols]
            out[..., rows[:, None], rows] += (
                c[..., :, None] * c[..., None, :] * G[..., cols[:, None], cols]
            )
        G = out
    return G


def _fock_lift(space, V):
    """Gamma(V) = exp(i dGamma(K)) for the one-body unitary V = exp(iK)."""
    from scipy.linalg import schur  # only non-diagonal weights get here

    T, Z = schur(V, output="complex")  # V is normal, so T is diagonal
    K = (Z * np.angle(np.diag(T))) @ Z.conj().T
    e, X = np.linalg.eigh(second_quantize_onebody(space, (K + K.conj().T) / 2).toarray())
    return (X * np.exp(1j * e)) @ X.conj().T


def _validated_family(weights):
    """The family as LocalizationWeights, checked to commute and to satisfy
    sum_i q_i^2 = 1."""
    ws = [_coerce_weight(w, 1) for w in weights]  # a scalar weighs one mode
    if not ws:
        raise ValueError("weight family is empty")
    if any(w.diagonal is None for w in ws):
        for wa, wb in itertools.combinations(ws, 2):
            if np.abs(wa.q @ wb.q - wb.q @ wa.q).max() > 1e-10:
                raise ValueError("weight family must commute")
    total = sum(w.q @ w.q for w in ws)
    if np.abs(total - np.eye(ws[0].n)).max() > 1e-10:
        raise ValueError("weight family is not a partition: sum q_i^2 != 1")
    return ws


def _family_weight(ws, P):
    """q_P = (sum_{i in P} q_i^2)^(1/2) of a family already passed through
    _validated_family; q of the empty set is 0."""
    n = ws[0].n
    P = list(P)
    if not P:
        return LocalizationWeight.zero(n)
    if all(w.diagonal is not None for w in ws):
        acc = np.zeros(n)
        for i in P:
            acc += ws[i].diagonal ** 2
        return LocalizationWeight(np.sqrt(np.clip(acc, 0.0, 1.0)))
    acc = sum(ws[i].q @ ws[i].q for i in P)
    lam, V = np.linalg.eigh(acc)
    return LocalizationWeight((V * np.sqrt(np.clip(lam, 0.0, 1.0))) @ V.conj().T)


_SSA_TOL = 1e-9  # slack of both SSA gaps


def ssa_gap(state, weights, P1, P2, P3):
    """Strong subadditivity gap S(12) + S(23) - S(2) - S(123) >= 0 for the
    localized states of a commuting partition-of-unity family: the gap of
    cq_ssa_gap for the state as a cq state with no classical particles."""
    if not isinstance(state, FockState):
        raise ValueError("ssa_gap needs a FockState")
    rho = CQState(state.space, 1.0, {0: state.matrix}, validate=False)
    # with no classical particle any classical partition gives the same gap
    thetas = np.eye(len(weights), 1)
    return _ssa_gap(rho, weights, thetas, (P1, P2, P3), "ssa_quantum")


# ---------------------------------------------------------------------------
# classical-quantum states


class CQState:
    """Finite-grid classical particles coupled to a quantum Fock factor.

    blocks[K] is an array of shape (m,)*K + (D, D): a positive operator on the
    quantum space per ordered K-tuple of classical cells, symmetric under
    permutation of the tuple.  The cell volume h weights all classical sums,
    so the normalization reads tr rho_0 + sum_K (h^K/K!) sum_tuples tr rho_K.
    """

    def __init__(self, space, cell_volume, blocks, validate=True, norm_tol=1e-10):
        if not cell_volume > 0:
            raise ValueError(f"cell_volume must be positive, got {cell_volume!r}")
        self.space = space
        self.cell_volume = float(cell_volume)
        self.blocks = {int(K): np.asarray(B, dtype=complex) for K, B in blocks.items()}
        if sorted(self.blocks) != list(range(len(self.blocks))):
            raise ValueError("need one block per sector K = 0 .. K_max")
        self.n_cells = self.blocks[1].shape[0] if 1 in self.blocks else 1
        self.K_max = max(self.blocks)
        D = space.dim
        for K, B in self.blocks.items():
            if B.shape != (self.n_cells,) * K + (D, D):
                raise ValueError(f"block K={K} has wrong shape {B.shape}")
        if validate:
            self._validate(norm_tol)

    def _validate(self, norm_tol):
        D = self.space.dim
        for K, B in self.blocks.items():
            # one row per tuple, in itertools.product order
            M = B.reshape(-1, D, D)
            skew = np.abs(M - M.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > 1e-10
            negative = np.linalg.eigvalsh(M).min(axis=-1) < -1e-10
            unsymmetric = np.zeros(len(M), dtype=bool)
            for perm in itertools.permutations(range(K)):
                moved = B.transpose(*perm, K, K + 1).reshape(-1, D, D)
                unsymmetric |= np.abs(moved - M).max(axis=(-2, -1)) > 1e-12
            for h, p, s in zip(skew, negative, unsymmetric):
                if h:
                    raise ValueError("cq block is not Hermitian")
                if p:
                    raise ValueError("cq block is not positive semidefinite")
                if s:
                    raise ValueError("cq blocks must be permutation symmetric")
        if norm_tol is not None and abs(self.mass() - 1.0) > norm_tol:
            raise ValueError(f"cq state mass {self.mass():.3e} differs from one")

    def mass(self):
        total = float(np.trace(self.blocks[0]).real)
        for K in range(1, self.K_max + 1):
            tr = np.trace(self.blocks[K], axis1=-2, axis2=-1).real
            total += self.cell_volume ** K / factorial(K) * float(tr.sum())
        return total


def cq_entropy(rho):
    """-tr rho_0 log rho_0 - sum_K (h^K/K!) sum_tuples tr rho_K log rho_K."""
    D = rho.space.dim
    stack = np.concatenate([rho.blocks[K].reshape(-1, D, D) for K in range(rho.K_max + 1)])
    return _cq_stack_entropy(rho, np.linalg.eigvalsh(stack))


_TRUNCATION_WARN_MASS = 1e-8  # mass cq_localize may drop before it warns


def cq_localize(rho, q, theta, k_max=None):
    """(q, theta)-localized classical-quantum state.

    Kept classical particles are weighted by theta^2 per cell; absorbed ones
    are summed out with eta^2 = 1 - theta^2 weights; the quantum factor is
    q-localized.  Exact when the source blocks vanish above K_max; an
    explicit k_max below the source's top sector sets truncation_warning on
    the result when the dropped weight exceeds _TRUNCATION_WARN_MASS.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != rho.n_cells:
        raise ValueError("theta must give one value per classical cell")
    if np.any(theta < -1e-12) or np.any(theta > 1 + 1e-12):
        raise ValueError("theta must take values in [0, 1]")
    K_top = rho.K_max if k_max is None else min(k_max, rho.K_max)
    stack, weights = _cq_absorbed(rho, theta, K_top)
    # every block of every sector in one stack, localized in one call
    localized = weights[:, None, None] * localize_positive_operator(rho.space, stack, q)
    m, D = rho.n_cells, rho.space.dim
    ends = np.cumsum([m ** K for K in range(K_top + 1)])
    out = {
        K: block.reshape((m,) * K + (D, D))
        for K, block in enumerate(np.split(localized, ends[:-1]))
    }
    result = CQState(rho.space, rho.cell_volume, out, validate=False)
    result.truncation_warning = (
        K_top < rho.K_max and abs(result.mass() - rho.mass()) > _TRUNCATION_WARN_MASS
    )
    return result


def _cq_absorbed(rho, theta, K_top):
    """The blocks of sectors K = 0 .. K_top with their absorbed coordinates
    summed out against eta^2 = 1 - theta^2, as one (sum_K m^K, D, D) stack in
    sector then itertools.product order, and the theta^2 product weight of
    each kept tuple in the same order."""
    eta_sq = np.clip(1.0 - theta ** 2, 0.0, 1.0)
    th_sq = np.clip(theta, 0.0, 1.0) ** 2
    h = rho.cell_volume
    D = rho.space.dim
    m = rho.n_cells
    accs, weights = [], []
    for K in range(0, K_top + 1):
        acc = np.zeros((m,) * K + (D, D), dtype=complex)
        for M in range(0, rho.K_max - K + 1):
            B = rho.blocks[K + M]
            w = h ** M / factorial(M)
            if M == 0:
                acc += B
                continue
            # sum absorbed coordinates against eta^2 weights
            summed = B
            for _ in range(M):
                summed = np.tensordot(summed, eta_sq, axes=([K], [0]))
            acc += w * summed
        # kept tuples carry the product of their theta^2
        weight = np.ones(())
        for _ in range(K):
            weight = np.multiply.outer(weight, th_sq)
        accs.append(acc.reshape(-1, D, D))
        weights.append(weight.reshape(-1))
    return np.concatenate(accs), np.concatenate(weights)


def cq_ssa_gap(rho, q_weights, thetas, P1, P2, P3):
    """Strong subadditivity gap for classical-quantum localized states; each
    entropy has the bits of cq_entropy(cq_localize(...)) of its set alone."""
    return _ssa_gap(rho, q_weights, thetas, (P1, P2, P3), "ssa_cq")


def _ssa_gap(rho, q_weights, thetas, sets, check):
    """The SSA gap of the (q_P, theta_P)-localized cq states for P = 12, 23,
    2 and 123.  The four absorbed, theta-weighted block stacks are localized
    together (in one channel call for diagonal weights) and their spectra
    taken in one eigvalsh."""
    P1, P2, P3 = map(set, sets)
    if P1 & P2 or P2 & P3 or P1 & P3:
        raise ValueError("index sets must be pairwise disjoint")
    n = len(q_weights)
    if len(thetas) != n:
        raise ValueError(f"need one theta per weight: {len(thetas)} thetas, {n} weights")
    if any(i not in range(n) for i in P1 | P2 | P3):
        raise ValueError(f"index sets must name weights of the family of {n}")
    ws = _validated_family(q_weights)
    thetas = [np.asarray(t, dtype=float) for t in thetas]
    if np.abs(sum(t ** 2 for t in thetas) - 1.0).max() > 1e-10:
        raise ValueError("classical partition fails: sum theta_i^2 != 1")
    index_sets = [sorted(P) for P in (P1 | P2, P2 | P3, P2, P1 | P2 | P3)]
    qs = [_family_weight(ws, P) for P in index_sets]
    if rho.K_max == 0:
        # no classical particles: each set localizes the one block, broadcast
        stacks, weights = rho.blocks[0][None, None], np.ones((1, 1))
    else:
        theta_sq = [sum((thetas[i] ** 2 for i in P), np.zeros(rho.n_cells)) for P in index_sets]
        absorbed = [_cq_absorbed(rho, np.sqrt(np.clip(t, 0.0, 1.0)), rho.K_max) for t in theta_sq]
        stacks, weights = map(np.array, zip(*absorbed))
    if all(q.diagonal is not None for q in qs):
        diag = np.array([q.diagonal for q in qs])[:, None, :]
        localized = _localize_diagonal(rho.space, stacks, diag)
    else:
        stacks = np.broadcast_to(stacks, (len(qs),) + stacks.shape[1:])
        localized = np.array(
            [localize_positive_operator(rho.space, M, q) for M, q in zip(stacks, qs)]
        )
    spectra = np.linalg.eigvalsh(weights[:, :, None, None] * localized)
    names = ("12", "23", "2", "123")
    ent = {name: _cq_stack_entropy(rho, lam) for name, lam in zip(names, spectra)}
    return Report(
        check, lhs=ent["12"] + ent["23"], rhs=ent["2"] + ent["123"], tol=_SSA_TOL,
        extras={"entropies": ent},
    )


def _cq_stack_entropy(rho, spectra):
    """The cq entropy of rho, or of a localized state of rho, given the
    spectra of its blocks in sector then itertools.product order."""
    total = entropy_of_spectrum(spectra[0])
    start = 1
    for K in range(1, rho.K_max + 1):
        weight = rho.cell_volume ** K / factorial(K)
        end = start + rho.n_cells ** K
        for lam in spectra[start:end]:
            total += weight * entropy_of_spectrum(lam)
        start = end
    return total


# ---------------------------------------------------------------------------
# quantization oracle


class QuantizeResult:
    """Fock-space quantization of a cq-state on F(H) (x) F(V).

    The classical factor is a bosonic lattice of the classical cells; each
    ordered tuple block enters with weight h^K/t on the corresponding
    occupation projector.  corrected_entropy inverts the cell-volume weights:
    t (S_ell - log t + <K> log h), which converges to the cq entropy as the
    grid refines.
    """

    def __init__(self, matrix, quantum_space, aux_space, t, cell_volume, mean_k):
        self.matrix = matrix
        self.quantum_space = quantum_space
        self.aux_space = aux_space
        self.t = t
        self.cell_volume = cell_volume
        self.mean_K = mean_k
        self.n_cells = aux_space.n
        self.S_ell = fock.entropy(matrix)

    @property
    def corrected_entropy(self):
        return self.t * (
            self.S_ell - np.log(self.t) + self.mean_K * np.log(self.cell_volume)
        )


def quantize_cq(rho, dim_cap=65536):
    """Materialize the lattice quantization of a cq-state.

    The auxiliary register holds one bosonic mode per classical cell (cap 1:
    ordered tuples are strictly increasing).  Works for unnormalized states;
    t is the state's grid mass and tends to 1 under refinement of a smooth
    normalized fixture.
    """
    m = rho.n_cells
    D = rho.space.dim
    aux = build_space(m, "boson", boson_cap=1, n_max=rho.K_max, dim_cap=dim_cap)
    if D * aux.dim > dim_cap:
        raise ValueError(f"quantized dimension {D * aux.dim} exceeds cap {dim_cap}")
    h = rho.cell_volume
    M = np.zeros((D * aux.dim, D * aux.dim), dtype=complex)
    t = 0.0
    mean_k_raw = 0.0
    for K in range(0, rho.K_max + 1):
        B = rho.blocks[K]
        for combo in itertools.combinations(range(m), K):
            occ = [0] * m
            for c in combo:
                occ[c] = 1
            j = aux.index(occ)
            block = h ** K * B[combo] if K else h ** K * B
            rows = np.arange(D) * aux.dim + j
            M[np.ix_(rows, rows)] += block
            tr = float(np.trace(block).real)
            t += tr
            mean_k_raw += K * tr
    M /= t
    return QuantizeResult(M, rho.space, aux, t, h, mean_k_raw / t)
