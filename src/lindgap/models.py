"""Model builders with their closed-form mixing constants.

Each factory returns the generator together with every quantity the theory
pins down exactly (gaps, norms, coupling strengths, classical reductions),
so tests and certificates can cross-check spectral computations against
formulas.  Vertex indexing for qubit models is little-endian: bit i of
vertex v is (v >> i) & 1.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .lindblad import Lindbladian, _components, build_gksl
from .operators import Matrix, QuantumState, as_square_matrix, dag, require_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def op_on_qubit(M: Matrix, i: int, n: int) -> Matrix:
    """Single-qubit operator M acting on bit i of an n-qubit register."""
    if not 0 <= i < n:
        raise ValueError(f"qubit index {i} out of range for n={n}")
    return np.kron(np.eye(2 ** (n - 1 - i)), np.kron(M, np.eye(2**i)))


def matrix_unit(N: int, r: int, s: int) -> Matrix:
    E = np.zeros((N, N), dtype=complex)
    E[r, s] = 1.0
    return E


def dephasing_jumps(n: int, gamma: float) -> list[tuple[float, Matrix]]:
    """Jump list for gamma * sum_i (Z_i X Z_i - X) on n qubits."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return [(float(gamma), op_on_qubit(PAULI_Z, i, n)) for i in range(n)]


# ---------------------------------------------------------------------------
# single jump with simple spectrum


@dataclass
class SingleJumpModel:
    lind: Lindbladian
    state: QuantumState
    kappa: np.ndarray
    lambda_D: float
    norm_LD: float
    Hhat: Matrix
    s_H: float
    primitive: bool
    nu_closed: float | None


def _bfs(neighbors, root: int) -> dict[int, int | None]:
    """Breadth-first parent map from root; neighbors[u] is searched in list order."""
    parent = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def _support_connected(W: Matrix, tol: float) -> bool:
    """Whether the entries of W above tol join every index, in one component."""
    return not _components(*np.nonzero(np.abs(W) > tol), W.shape[0]).any()


def single_jump_model(A, H) -> SingleJumpModel:
    """Double-commutator dissipator -[A, [A, .]] plus Hamiltonian H, sigma = 1/N.

    A must have simple spectrum; the kernel of the dissipator is then the
    diagonal algebra in A's eigenbasis and every mixing constant reduces to
    the matrix Hhat_ij = |H_ij|^2 in that basis.
    """
    A = require_hermitian(A, what="A")
    H = require_hermitian(H, what="H")
    N = A.shape[0]
    if H.shape[0] != N:
        raise ValueError("A and H dimensions differ")
    kappa, V = np.linalg.eigh(A)
    spread = kappa[-1] - kappa[0]
    gaps = np.diff(kappa)
    if np.any(gaps <= 1e-10 * max(spread, 1.0)):
        raise ValueError("A must have simple spectrum")
    lind = build_gksl(H, [(2.0, A)])
    state = QuantumState.maximally_mixed(N)
    diffs = np.abs(kappa[:, None] - kappa[None, :]) ** 2
    off = diffs[~np.eye(N, dtype=bool)]
    lambda_D = float(off.min())
    norm_LD = float(off.max())
    Ht = dag(V) @ H @ V
    Hhat = np.abs(Ht) ** 2
    np.fill_diagonal(Hhat, 0.0)
    Hhat = Hhat - np.diag(Hhat.sum(axis=1))
    w = np.linalg.eigvalsh(-Hhat)
    gap = float(w[1])
    s_H = math.sqrt(2.0 * max(gap, 0.0))
    tol = 1e-10 * max(np.abs(Ht).max(), 1.0)
    primitive = _support_connected(Ht, tol)
    nu_closed = None
    if primitive:
        eH = np.linalg.eigvalsh(H)
        spread_H = float(eH[-1] - eH[0])
        nu_closed = gap * lambda_D / ((28.0 * math.sqrt(gap) + 5.0 * spread_H) ** 2
                                      + 36.0 * lambda_D * norm_LD)
    return SingleJumpModel(lind=lind, state=state, kappa=kappa, lambda_D=lambda_D,
                           norm_LD=norm_LD, Hhat=Hhat, s_H=s_H,
                           primitive=primitive, nu_closed=nu_closed)


# ---------------------------------------------------------------------------
# canonical paths


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass
class PathBound:
    bound: float
    K: float


def canonical_path_bound(Hhat, mu_hat=None) -> PathBound:
    """Congestion lower bound sqrt(2/K) on the coupling strength s_H.

    Hhat must be a generator matrix (nonnegative off-diagonal, zero row
    sums, connected support).  Every ordered pair is joined by its
    breadth-first shortest path, neighbours explored in index order.
    Without mu_hat, K is the worst edge's congestion sum of path lengths
    divided by the edge conductance; with mu_hat, paths and edges are
    weighted by the stationary probabilities.
    """
    Hhat = np.asarray(Hhat, dtype=float)
    m = Hhat.shape[0]
    if Hhat.shape != (m, m) or m < 2:
        raise ValueError("Hhat must be square with at least two states")
    scale = max(np.abs(Hhat).max(), 1e-30)
    off = Hhat - np.diag(np.diag(Hhat))
    if off.min() < -1e-12 * scale:
        raise ValueError("Hhat has negative off-diagonal entries")
    if np.abs(Hhat.sum(axis=1)).max() > 1e-9 * scale:
        raise ValueError("Hhat rows do not sum to zero")
    sup_tol = 1e-13 * max(off.max(), 1e-30)
    adjacency = [np.flatnonzero(row > sup_tol) for row in off]
    if len(_bfs(adjacency, 0)) != m:
        raise ValueError("Hhat support is disconnected")
    if mu_hat is not None:
        mu_hat = np.asarray(mu_hat, dtype=float)
        if mu_hat.shape != (m,) or np.any(mu_hat <= 0):
            raise ValueError("mu_hat must be positive with one entry per state")
        flux = mu_hat[:, None] * off
        if np.abs(flux - flux.T).max() > 1e-10 * max(flux.max(), 1e-30):
            raise ValueError("Hhat is not reversible for mu_hat")
    else:
        if np.abs(off - off.T).max() > 1e-10 * scale:
            raise ValueError("Hhat must be symmetric without weights")
    load: dict[tuple[int, int], float] = {}
    for i in range(m):
        parent = _bfs(adjacency, i)
        for j in range(m):
            if j == i:
                continue
            verts = [j]
            while verts[-1] != i:
                verts.append(parent[verts[-1]])
            length = len(verts) - 1
            weight = length if mu_hat is None else mu_hat[i] * mu_hat[j] * length
            for u, v in zip(verts, verts[1:]):
                key = _edge_key(u, v)
                load[key] = load.get(key, 0.0) + weight
    K = 0.0
    for (u, v), total in load.items():
        conductance = off[u, v] if mu_hat is None else mu_hat[u] * off[u, v]
        K = max(K, total / conductance)
    return PathBound(bound=math.sqrt(2.0 / K), K=float(K))


# ---------------------------------------------------------------------------
# dephasing + quantum walk, transverse-field Ising


def cycle_graph(n_vertices: int) -> Matrix:
    A = np.zeros((n_vertices, n_vertices))
    for v in range(n_vertices):
        A[v, (v + 1) % n_vertices] = 1.0
        A[(v + 1) % n_vertices, v] = 1.0
    return A


def hypercube_graph(n: int) -> Matrix:
    N = 2**n
    A = np.zeros((N, N))
    for v in range(N):
        for i in range(n):
            A[v, v ^ (1 << i)] = 1.0
    return A


@dataclass
class WalkModel:
    lind: Lindbladian
    state: QuantumState
    n: int
    gamma: float
    degree: int
    laplacian_gap: float
    lambda_D: float
    norm_LD: float
    s_H: float
    norm_LH_bound: float
    nu_closed: float


def dephasing_walk(n: int, gamma: float, adjacency) -> WalkModel:
    """Quantum walk on a d-regular graph over bit strings, with Z dephasing.

    The dissipation gap is 2*gamma independent of n; the kernel-coupling
    strength is sqrt(2 * Delta) for the graph Laplacian gap Delta.
    """
    N = 2**n
    A = as_square_matrix(adjacency, N).real
    if np.abs(A - A.T).max() > 0 or np.any((A != 0) & (A != 1)):
        raise ValueError("adjacency must be symmetric 0/1")
    if np.any(np.diag(A) != 0):
        raise ValueError("adjacency must have zero diagonal")
    degs = A.sum(axis=1)
    if not np.all(degs == degs[0]) or degs[0] == 0:
        raise ValueError("graph must be regular with positive degree")
    d = int(degs[0])
    if not _support_connected(A, 0.5):
        raise ValueError("graph must be connected")
    lap = np.linalg.eigvalsh(d * np.eye(N) - A)
    Delta = float(lap[1])
    lind = build_gksl(A.astype(complex), dephasing_jumps(n, gamma))
    state = QuantumState.maximally_mixed(N)
    # ||i[H, .]|| <= 2 ||H|| = 2d
    nu = 2.0 * Delta * gamma / ((28.0 * math.sqrt(Delta) + 10.0 * d) ** 2
                                + 144.0 * gamma**2 * n)
    return WalkModel(lind=lind, state=state, n=n, gamma=float(gamma), degree=d,
                     laplacian_gap=Delta, lambda_D=2.0 * gamma,
                     norm_LD=2.0 * gamma * n, s_H=math.sqrt(2.0 * Delta),
                     norm_LH_bound=2.0 * d, nu_closed=float(nu))


@dataclass
class TfimModel:
    lind: Lindbladian
    state: QuantumState
    n: int
    h: float
    gamma: float
    lambda_D: float
    norm_LD: float
    s_H: float
    norm_LH_bound: float
    nu_closed: float


def tfim(n: int, h: float, gamma: float) -> TfimModel:
    """Ising chain with transverse field h and Z dephasing at rate gamma.

    The transverse field alone moves the dephasing kernel, with coupling
    strength exactly 2h.
    """
    if n < 2:
        raise ValueError("need at least two qubits")
    if h <= 0:
        raise ValueError("h must be positive (h = 0 leaves Z strings invariant)")
    N = 2**n
    H = np.zeros((N, N), dtype=complex)
    for i in range(n - 1):
        H += op_on_qubit(PAULI_Z, i, n) @ op_on_qubit(PAULI_Z, i + 1, n)
    for i in range(n):
        H += h * op_on_qubit(PAULI_X, i, n)
    lind = build_gksl(H, dephasing_jumps(n, gamma))
    state = QuantumState.maximally_mixed(N)
    bound = 2.0 * ((n - 1) + h * n)  # ||i[H, .]|| <= 2 ||H||
    nu = 8.0 * gamma * h**2 / ((56.0 * h + 5.0 * math.sqrt(2.0) * bound) ** 2
                               + 288.0 * gamma**2 * n)
    return TfimModel(lind=lind, state=state, n=n, h=float(h), gamma=float(gamma),
                     lambda_D=2.0 * gamma, norm_LD=2.0 * gamma * n, s_H=2.0 * h,
                     norm_LH_bound=float(bound), nu_closed=float(nu))


# ---------------------------------------------------------------------------
# weighted-graph Lindbladians


@dataclass
class GraphSpec:
    """Undirected simple weighted graph without isolated vertices."""

    n_vertices: int
    edges: list[tuple[int, int]]
    weights: dict[tuple[int, int], float] = field(default_factory=dict)
    components: list[list[int]] = field(init=False)

    def __post_init__(self):
        n = self.n_vertices
        if n < 2:
            raise ValueError("need at least two vertices")
        norm_edges = []
        seen = set()
        for (u, v) in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = _edge_key(u, v)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm_edges.append(key)
        norm_edges.sort()
        self.edges = norm_edges
        weights = {}
        for key in norm_edges:
            w = float(self.weights.get(key, self.weights.get((key[1], key[0]), 1.0)))
            if w <= 0:
                raise ValueError(f"weight of edge {key} must be positive")
            weights[key] = w
        self.weights = weights
        u, v = np.array(norm_edges, dtype=int).reshape(-1, 2).T
        missing = np.flatnonzero(np.bincount(np.concatenate([u, v]), minlength=n) == 0)
        if len(missing):
            raise ValueError(f"isolated vertices: {missing.tolist()}")
        # ordered by least vertex, each sorted
        labels = _components(u, v, n)
        self.components = [np.flatnonzero(labels == r).tolist() for r in np.unique(labels)]


@dataclass
class GraphModel:
    lind: Lindbladian
    state: QuantumState
    spec: GraphSpec
    mu: np.ndarray
    L_cl: Matrix
    kappa: Matrix
    lambda_D: float
    norm_LD: float
    kernel_dim: int


def _diagonal_mu(state: QuantumState) -> np.ndarray:
    sig = state.matrix
    off = sig - np.diag(np.diag(sig))
    if np.abs(off).max() > 1e-12 * max(np.abs(sig).max(), 1e-30):
        raise ValueError("sigma must be diagonal in the vertex basis")
    return np.diag(sig).real.copy()


def _reversible_rates(Q: Matrix, mu: np.ndarray) -> np.ndarray:
    """Ascending spectrum of -Q for a walk generator Q reversible for mu, read
    from the symmetric form D^{1/2} Q D^{-1/2} with D = diag(mu)."""
    D_half = np.sqrt(mu)
    S = (D_half[:, None] / D_half[None, :]) * Q
    return np.linalg.eigvalsh(-(S + S.T) / 2.0)


def graph_lindblad(spec: GraphSpec, state: QuantumState,
                   self_decay: float = 0.0) -> GraphModel:
    """Detailed-balanced hopping generator on a weighted graph.

    Per edge {r,s} the jumps e_rs and e_sr carry weights 4 w e^{+-beta_rs/2}
    with beta_rs = log(mu_r / mu_s), making sigma invariant.  Diagonal
    observables evolve by a classical reversible walk L_cl; every
    off-diagonal unit e_jk is an eigenvector with eigenvalue
    kappa_jk = -2 (S_j + S_k) - self_decay.  A positive self_decay adds the
    jump e_ii at that weight on every vertex, which dampens coherences and
    leaves L_cl alone; the averaged-unitary builder sets it.
    """
    N = spec.n_vertices
    if state.dim != N:
        raise ValueError("state dimension does not match the vertex count")
    mu = _diagonal_mu(state)
    r, s = np.array(spec.edges, dtype=int).reshape(-1, 2).T
    w = np.array([spec.weights[e] for e in spec.edges], dtype=float)
    # the two ends of each edge in edge order, r_0, s_0, r_1, s_1, ..
    ends, far = np.stack([r, s], axis=1).ravel(), np.stack([s, r], axis=1).ravel()
    L_cl = np.zeros((N, N))
    # an overflow to inf is refused below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.sqrt(mu[r] / mu[s])
        back = np.sqrt(mu[s] / mu[r])
        up, down = 4.0 * w * half, 4.0 * w / half
        L_cl[r, s] = 4.0 * w * back
        L_cl[s, r] = 4.0 * w * half
        # one add per edge end, in edge order: the edges are sorted, so each
        # S[j] sums its neighbours in ascending order
        S = np.zeros(N)
        np.add.at(S, ends, np.stack([w * back, w * half], axis=1).ravel())
        rate = 4.0 * S
    bad = ~np.isfinite(np.stack([up, down, L_cl[r, s], L_cl[s, r]])).all(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"edge {spec.edges[k]} of weight {w[k]:g} gives a jump "
                         "weight or walk rate that is not finite")
    if not np.isfinite(rate).all():
        v = int(np.argmax(~np.isfinite(rate)))
        raise ValueError(f"the walk rate out of vertex {v} is not finite")
    np.fill_diagonal(L_cl, -rate)
    # e_rs and e_sr per edge, then e_ii per vertex when self_decay > 0: the
    # jumps are views of one stack of matrix units
    loops = np.arange(N if self_decay > 0 else 0)
    units = np.zeros((len(ends) + len(loops), N, N), dtype=complex)
    units[np.arange(len(units)), np.concatenate([ends, loops]),
          np.concatenate([far, loops])] = 1.0
    weights = np.concatenate([np.stack([up, down], axis=1).ravel(),
                              np.full(len(loops), float(self_decay))])
    lind = Lindbladian(N, np.zeros((N, N)), list(zip(weights.tolist(), units)))
    kappa = -2.0 * (S[:, None] + S[None, :]) - self_decay
    np.fill_diagonal(kappa, 0.0)

    w_cl = _reversible_rates(L_cl, mu)
    m = len(spec.components)
    cl_scale = max(np.abs(w_cl).max(), 1e-30)
    if np.abs(w_cl[:m]).max() > 1e-9 * cl_scale or (len(w_cl) > m
                                                    and w_cl[m] <= 1e-9 * cl_scale):
        ws = spec.weights.values()
        raise ValueError("classical walk kernel does not match the component count: "
                         "walk rates below 1e-9 of the largest count as zero, and the "
                         f"edge weights span a factor {max(ws) / min(ws):.1e}")
    off_mask = ~np.eye(N, dtype=bool)
    neg_kappa = -kappa[off_mask]
    lambda_D = float(min(w_cl[m:].min() if len(w_cl) > m else np.inf, neg_kappa.min()))
    norm_LD = float(max(w_cl[-1], neg_kappa.max()))
    return GraphModel(lind=lind, state=state, spec=spec, mu=mu, L_cl=L_cl,
                      kappa=kappa, lambda_D=lambda_D, norm_LD=norm_LD,
                      kernel_dim=m)


# ---------------------------------------------------------------------------
# birth-death chains


@dataclass
class BirthDeathModel:
    model: GraphModel
    beta: float
    sizes: list[int]
    block_eigenvalues: list[list[float]]
    kappa_min_closed: float
    kappa_max_closed: float
    lambda_D_closed: float
    norm_LD_closed: float


def birth_death_spectrum(sizes, beta: float) -> BirthDeathModel:
    """Unit-weight chains with a geometric stationary state mu_r ~ e^{-beta r}.

    The classical walk on each chain of length V has eigenvalues
    {0} U {-8 cosh(beta/2) + 8 cos(pi (k-1)/V)}; every closed-form constant
    below is checked against the generic graph machinery by the tests.
    """
    sizes = [int(v) for v in sizes]
    if not sizes or any(v < 2 for v in sizes):
        raise ValueError("each chain needs at least two vertices")
    beta = float(beta)
    edges = []
    start = 0
    for V in sizes:
        edges.extend((start + k, start + k + 1) for k in range(V - 1))
        start += V
    N = start
    spec = GraphSpec(n_vertices=N, edges=edges)
    r = np.arange(N)
    mu = np.exp(-beta * r)
    state = QuantumState(np.diag(mu / mu.sum()))
    model = graph_lindblad(spec, state)
    ch = math.cosh(beta / 2.0)
    block_eigs = []
    for V in sizes:
        block = [0.0] + [-8.0 * ch + 8.0 * math.cos(math.pi * (k - 1) / V)
                         for k in range(2, V + 1)]
        block_eigs.append(block)
    # endpoint structure: S = e^{-beta/2} at the low-mu end, e^{beta/2} at the
    # high-mu end, 2 cosh(beta/2) inside; kappa = -2(S_j + S_k)
    s_vals = []
    for V in sizes:
        s_vals.append(math.exp(-beta / 2.0))
        s_vals.extend([2.0 * ch] * (V - 2))
        s_vals.append(math.exp(beta / 2.0))
    s_sorted = sorted(s_vals)
    kappa_min = 2.0 * (s_sorted[0] + s_sorted[1])
    kappa_max = 2.0 * (s_sorted[-1] + s_sorted[-2])
    vmax = max(sizes)
    lambda_cl = min(8.0 * ch - 8.0 * math.cos(math.pi / V) for V in sizes)
    lambda_D = min(lambda_cl, kappa_min)
    norm_LD = 8.0 * ch - 8.0 * math.cos(math.pi * (vmax - 1) / vmax)
    return BirthDeathModel(model=model, beta=beta, sizes=sizes,
                           block_eigenvalues=block_eigs,
                           kappa_min_closed=kappa_min, kappa_max_closed=kappa_max,
                           lambda_D_closed=lambda_D, norm_LD_closed=norm_LD)


# ---------------------------------------------------------------------------
# averaged-unitary Gibbs sampler


@dataclass
class HaarModel:
    model: GraphModel
    spectrum: np.ndarray
    beta: float

    @property
    def lind(self) -> Lindbladian:
        return self.model.lind

    @property
    def state(self) -> QuantumState:
        return self.model.state


def haar_avg_gibbs(spectrum, beta: float) -> HaarModel:
    """Average of a random-jump Gibbs sampler over the unitary group.

    The second-moment average of A^dag X A over Haar-random A turns the
    filtered jump A_f (entries f(lam_i - lam_j) A_ij with
    f(nu) = e^{-beta nu / 4}) into the jump list
    [( |f(lam_i - lam_j)|^2 / N, e_ij )] over all ordered pairs, i = j
    included.  The i != j part is exactly a hopping generator on the
    complete graph with w = 1 / (4N) and the Gibbs weights of the spectrum;
    the diagonal jumps, at weight 1 / N, only dampen coherences.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1 or len(lam) < 2:
        raise ValueError("spectrum must contain at least two levels")
    N = len(lam)
    beta = float(beta)
    w_gibbs = np.exp(-beta * (lam - lam.min()))
    state = QuantumState(np.diag(w_gibbs / w_gibbs.sum()))
    edges = [(i, j) for i in range(N) for j in range(i + 1, N)]
    spec = GraphSpec(n_vertices=N, edges=edges,
                     weights=dict.fromkeys(edges, 1.0 / (4.0 * N)))
    model = graph_lindblad(spec, state, self_decay=1.0 / N)
    return HaarModel(model=model, spectrum=lam, beta=beta)


# ---------------------------------------------------------------------------
# product-space lift


@dataclass
class LiftModel:
    lind: Lindbladian
    state: QuantumState
    kernel_dim: int


def lift_model(base: GraphModel, A) -> LiftModel:
    """Tensor the graph jumps with a fixed qubit operator A = diag(a, b).

    Requires a connected base graph and a != b with both nonzero; the lifted
    dissipator then has exactly the two-dimensional kernel
    {1 x diag(c0, c1)}.
    """
    A = require_hermitian(A, what="A")
    if A.shape != (2, 2):
        raise ValueError("A must be 2x2")
    if abs(A[0, 1]) > 1e-12 * max(np.linalg.norm(A), 1e-30):
        raise ValueError("A must be diagonal (work in its eigenbasis)")
    a, b = float(A[0, 0].real), float(A[1, 1].real)
    scale = max(abs(a), abs(b))
    if abs(a - b) <= 1e-10 * max(scale, 1e-30):
        raise ValueError("A must have distinct eigenvalues")
    if min(abs(a), abs(b)) <= 1e-10 * max(scale, 1e-30):
        raise ValueError("both eigenvalues of A must be nonzero")
    if len(base.spec.components) != 1:
        raise ValueError("base graph must be connected")
    N = base.state.dim
    sigma_tilde = np.kron(base.state.matrix, np.eye(2) / 2.0)
    state = QuantumState(sigma_tilde)
    jumps = [(w, np.kron(L, np.diag([a, b]).astype(complex)))
             for w, L in base.lind.jumps]
    lind = Lindbladian(2 * N, np.zeros((2 * N, 2 * N)), jumps)
    return LiftModel(lind=lind, state=state, kernel_dim=2)
