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

from .lindblad import Lindbladian, build_gksl
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


def _support_connected(W: Matrix, tol: float) -> bool:
    m = W.shape[0]
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in range(m):
            if v not in seen and abs(W[u, v]) > tol:
                seen.add(v)
                queue.append(v)
    return len(seen) == m


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
    primitive = _support_connected(np.abs(Ht) - np.diag(np.abs(np.diag(Ht))), tol)
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


@dataclass
class CanonicalPaths:
    """One path of existing edges per ordered vertex pair."""

    paths: dict[tuple[int, int], list[tuple[int, int]]]

    def length(self, i: int, j: int) -> int:
        return len(self.paths[(i, j)])


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def bfs_paths(adjacency: dict[int, list[int]], n: int) -> CanonicalPaths:
    """Shortest paths for every ordered pair; neighbors explored in index order."""
    paths: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(n):
        parent = {i: None}
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        for j in range(n):
            if j == i:
                continue
            if j not in parent:
                raise ValueError(f"vertices {i} and {j} are not connected")
            verts = [j]
            while verts[-1] != i:
                verts.append(parent[verts[-1]])
            verts.reverse()
            paths[(i, j)] = [_edge_key(a, b) for a, b in zip(verts, verts[1:])]
    return CanonicalPaths(paths)


@dataclass
class PathBound:
    bound: float
    K: float
    paths: CanonicalPaths


def canonical_path_bound(Hhat, paths: CanonicalPaths | None = None,
                         mu_hat=None) -> PathBound:
    """Congestion lower bound sqrt(2/K) on the coupling strength s_H.

    Hhat must be a generator matrix (nonnegative off-diagonal, zero row
    sums, connected support).  Without mu_hat, K is the worst edge's
    congestion sum of path lengths divided by the edge conductance; with
    mu_hat, paths and edges are weighted by the stationary probabilities.
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
    adjacency = {u: [v for v in range(m) if v != u and off[u, v] > sup_tol]
                 for u in range(m)}
    if not _support_connected(off, sup_tol):
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
    if paths is None:
        paths = bfs_paths(adjacency, m)
    load: dict[tuple[int, int], float] = {}
    for (i, j), p in paths.paths.items():
        if not p:
            raise ValueError(f"empty path for pair {(i, j)}")
        cur = i
        for (u, v) in p:
            if off[u, v] <= sup_tol:
                raise ValueError(f"path for {(i, j)} uses missing edge {(u, v)}")
            if cur == u:
                cur = v
            elif cur == v:
                cur = u
            else:
                raise ValueError(f"path for {(i, j)} is not contiguous")
            weight = len(p) if mu_hat is None else mu_hat[i] * mu_hat[j] * len(p)
            key = _edge_key(u, v)
            load[key] = load.get(key, 0.0) + weight
        if cur != j:
            raise ValueError(f"path for {(i, j)} does not end at {j}")
    K = 0.0
    for (u, v), total in load.items():
        conductance = off[u, v] if mu_hat is None else mu_hat[u] * off[u, v]
        K = max(K, total / conductance)
    return PathBound(bound=math.sqrt(2.0 / K), K=float(K), paths=paths)


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
    nu = 2.0 * Delta * gamma / ((28.0 * math.sqrt(Delta) + 5.0 * d) ** 2
                                + 144.0 * gamma**2 * n)
    return WalkModel(lind=lind, state=state, n=n, gamma=float(gamma), degree=d,
                     laplacian_gap=Delta, lambda_D=2.0 * gamma,
                     norm_LD=2.0 * gamma * n, s_H=math.sqrt(2.0 * Delta),
                     norm_LH_bound=float(d), nu_closed=float(nu))


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
    bound = (n - 1) + h * n
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
    components: list[list[int]] = field(default_factory=list)

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
        touched = set()
        for (u, v) in norm_edges:
            touched.add(u)
            touched.add(v)
        if touched != set(range(n)):
            missing = sorted(set(range(n)) - touched)
            raise ValueError(f"isolated vertices: {missing}")
        adj = {u: [] for u in range(n)}
        for (u, v) in norm_edges:
            adj[u].append(v)
            adj[v].append(u)
        comps = []
        unseen = set(range(n))
        while unseen:
            root = min(unseen)
            comp = {root}
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
            comps.append(sorted(comp))
            unseen -= comp
        comps.sort(key=lambda c: c[0])
        self.components = comps

    def adjacency_lists(self) -> dict[int, list[int]]:
        adj = {u: [] for u in range(self.n_vertices)}
        for (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {u: sorted(vs) for u, vs in adj.items()}


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


def _check_unit_action(lind: Lindbladian, walk: Matrix, coherence: Matrix,
                       tol: float, diagonal_msg: str, coherence_msg: str) -> None:
    """Compare the generator on the matrix units with a closed form: e_jj maps to
    diag(walk[:, j]); each e_jk (j != k) is an eigenvector, eigenvalue coherence[j, k].
    """
    N = lind.dim
    expected = np.diag(coherence.reshape(-1)).astype(complex)
    diag = np.arange(N) * (N + 1)
    expected[np.ix_(diag, diag)] = walk
    err = np.abs(lind.unit_matrix() - expected).max(axis=0).reshape(N, N)
    if np.diag(err).max() > tol:
        raise ValueError(diagonal_msg)
    if err.max() > tol:
        raise ValueError(coherence_msg)


def _diagonal_mu(state: QuantumState) -> np.ndarray:
    sig = state.matrix
    off = sig - np.diag(np.diag(sig))
    if np.abs(off).max() > 1e-12 * max(np.abs(sig).max(), 1e-30):
        raise ValueError("sigma must be diagonal in the vertex basis")
    return np.diag(sig).real.copy()


def graph_lindblad(spec: GraphSpec, state: QuantumState,
                   extra_jumps: list[tuple[float, Matrix]] | None = None) -> GraphModel:
    """Detailed-balanced hopping generator on a weighted graph.

    Per edge {r,s} the jumps e_rs and e_sr carry weights 4 w e^{+-beta_rs/2}
    with beta_rs = log(mu_r / mu_s), making sigma invariant.  Diagonal
    observables evolve by a classical reversible walk L_cl; every
    off-diagonal unit e_jk is an eigenvector with eigenvalue
    kappa_jk = -2 (S_j + S_k).  Both facts are re-verified on the built
    generator.  extra_jumps (used by the averaged-unitary builder) must be
    diagonal jumps; they shift kappa but not L_cl.
    """
    N = spec.n_vertices
    if state.dim != N:
        raise ValueError("state dimension does not match the vertex count")
    mu = _diagonal_mu(state)
    jumps: list[tuple[float, Matrix]] = []
    for (r, s) in spec.edges:
        w = spec.weights[(r, s)]
        half = math.sqrt(mu[r] / mu[s])
        jumps.append((4.0 * w * half, matrix_unit(N, r, s)))
        jumps.append((4.0 * w / half, matrix_unit(N, s, r)))
    self_decay = np.zeros(N)
    if extra_jumps:
        for w, L in extra_jumps:
            L = as_square_matrix(L, N)
            if np.abs(L - np.diag(np.diag(L))).max() > 0:
                raise ValueError("extra jumps must be diagonal")
            jumps.append((float(w), L))
        # diagonal jumps only dampen coherences: e_kl picks up
        # -(w/2)(|L_kk|^2 + |L_ll|^2) + w L_kk* L_ll; the closed forms below
        # cover the matrix-unit case L = e_ii used by the averaged builder
        for w, L in extra_jumps:
            d = np.diag(L)
            if np.count_nonzero(d) != 1:
                raise ValueError("extra jumps must be single matrix units e_ii")
            i = int(np.flatnonzero(d)[0])
            if abs(d[i] - 1.0) > 0:
                raise ValueError("extra jumps must be single matrix units e_ii")
            self_decay[i] += w
    lind = Lindbladian(N, np.zeros((N, N)), jumps, alpha=0.0)

    S = np.zeros(N)
    adj = spec.adjacency_lists()
    for j in range(N):
        S[j] = sum(spec.weights[_edge_key(r, j)] * math.sqrt(mu[r] / mu[j])
                   for r in adj[j])
    L_cl = np.zeros((N, N))
    for (r, s) in spec.edges:
        w = spec.weights[(r, s)]
        L_cl[r, s] = 4.0 * w * math.sqrt(mu[s] / mu[r])
        L_cl[s, r] = 4.0 * w * math.sqrt(mu[r] / mu[s])
    np.fill_diagonal(L_cl, -4.0 * S)
    kappa = -2.0 * (S[:, None] + S[None, :]) \
        - 0.5 * (self_decay[:, None] + self_decay[None, :])
    np.fill_diagonal(kappa, 0.0)

    scale = max(abs(4.0 * S).max(), 1.0)
    _check_unit_action(lind, L_cl, kappa, 1e-12 * scale,
                       "generator action on diagonals deviates from the walk form",
                       "off-diagonal units are not eigenvectors as expected")

    D_half = np.sqrt(mu)
    S_cl = (D_half[:, None] / D_half[None, :]) * L_cl
    w_cl = np.linalg.eigvalsh(-(S_cl + S_cl.T) / 2.0)
    m = len(spec.components)
    cl_scale = max(np.abs(w_cl).max(), 1e-30)
    if np.abs(w_cl[:m]).max() > 1e-9 * cl_scale or (len(w_cl) > m
                                                    and w_cl[m] <= 1e-9 * cl_scale):
        raise ValueError("classical walk kernel does not match the component count")
    off_mask = ~np.eye(N, dtype=bool)
    neg_kappa = -kappa[off_mask]
    lambda_D = float(min(w_cl[m:].min() if len(w_cl) > m else np.inf, neg_kappa.min()))
    norm_LD = float(max(w_cl[-1], neg_kappa.max()))
    return GraphModel(lind=lind, state=state, spec=spec, mu=mu, L_cl=L_cl,
                      kappa=kappa, lambda_D=lambda_D, norm_LD=norm_LD,
                      kernel_dim=m)


@dataclass
class GraphCertReport:
    primitive: bool
    reason: str
    mu_hat: np.ndarray | None = None
    Hhat: Matrix | None = None
    s_H: float | None = None
    spread_H: float | None = None
    nu_closed: float | None = None


def graph_hamiltonian_cert(model: GraphModel, H) -> GraphCertReport:
    """Primitivity and coupling strength of a commuting Hamiltonian on a graph model.

    A nondegenerate sigma forces H diagonal, which commutes with the
    block-diagonal kernel, so the model stays non-primitive.  With
    degeneracies, the component-averaged matrix Hhat decides everything:
    irreducibility gives primitivity and its weighted gap gives s_H.
    """
    H = require_hermitian(H, what="H")
    N = model.state.dim
    if H.shape[0] != N:
        raise ValueError("H dimension does not match the model")
    sig = model.state.matrix
    hnorm = max(np.linalg.norm(H, 2), 1e-30)
    if np.linalg.norm(H @ sig - sig @ H) > 1e-10 * hnorm:
        raise ValueError("H does not commute with sigma")
    mu = model.mu
    comps = model.spec.components
    m = len(comps)
    if m == 1:
        return GraphCertReport(primitive=True,
                               reason="connected graph: the dissipator alone is primitive")
    gaps = np.abs(mu[:, None] - mu[None, :])
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() > 1e-10 * mu.max():
        return GraphCertReport(primitive=False,
                               reason="sigma has simple spectrum; every commuting "
                                      "Hamiltonian preserves the kernel")
    mu_hat = np.array([mu[c].sum() for c in comps])
    Hhat = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            block = H[np.ix_(comps[i], comps[j])]
            Hhat[i, j] = (mu[comps[i]] @ (np.abs(block) ** 2).sum(axis=1)) / mu_hat[i]
    Hhat = Hhat - np.diag(Hhat.sum(axis=1))
    off = Hhat - np.diag(np.diag(Hhat))
    sup_tol = 1e-13 * max(off.max(), 1e-30)
    irreducible = _support_connected(off, sup_tol)
    D_half = np.sqrt(mu_hat)
    Ssym = (D_half[:, None] / D_half[None, :]) * Hhat
    w = np.linalg.eigvalsh(-(Ssym + Ssym.T) / 2.0)
    s_H = math.sqrt(2.0 * max(w[1], 0.0))
    eH = np.linalg.eigvalsh(H)
    spread = float(eH[-1] - eH[0])
    nu = None
    if irreducible:
        nu = model.lambda_D * s_H**2 / (
            (28.0 * s_H + 5.0 * math.sqrt(2.0) * spread) ** 2
            + 72.0 * model.lambda_D * model.norm_LD)
    reason = ("component-averaged Hamiltonian is irreducible" if irreducible
              else "component-averaged Hamiltonian is reducible")
    return GraphCertReport(primitive=irreducible, reason=reason, mu_hat=mu_hat,
                           Hhat=Hhat, s_H=s_H, spread_H=spread, nu_closed=nu)


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
    q0_weight: float

    @property
    def lind(self) -> Lindbladian:
        return self.model.lind

    @property
    def state(self) -> QuantumState:
        return self.model.state


def haar_avg_gibbs(spectrum, beta: float, q=None) -> HaarModel:
    """Average of a filtered random-jump Gibbs sampler over the unitary group.

    The second-moment average of A^dag X A over Haar-random A turns the
    filtered jump A_f (entries f(lam_i - lam_j) A_ij with
    f(nu) = q(nu) e^{-beta nu / 4}) into the jump list
    [( |f(lam_i - lam_j)|^2 / N, e_ij )] over all ordered pairs, including
    i = j when q(0) != 0.  The i != j part is exactly a weighted-graph
    hopping generator with w(i,j) = |q(lam_i - lam_j)|^2 / (4N) and the
    Gibbs weights of the spectrum; the diagonal jumps only dampen
    coherences.  The construction is cross-checked against the explicit
    averaged action on every basis unit.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1 or len(lam) < 2:
        raise ValueError("spectrum must contain at least two levels")
    N = len(lam)
    beta = float(beta)
    if q is None:
        q = lambda nu: 1.0
    qv = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            nu = lam[i] - lam[j]
            qp, qm = float(q(nu)), float(q(-nu))
            if abs(qp - qm) > 1e-12 * max(abs(qp), abs(qm), 1.0):
                raise ValueError(f"filter is not even at frequency {nu:g}")
            qv[i, j] = qp
    if np.any(qv < 0):
        # only |q|^2 enters; accept sign-changing filters by squaring
        qv = np.abs(qv)
    w_gibbs = np.exp(-beta * (lam - lam.min()))
    state = QuantumState(np.diag(w_gibbs / w_gibbs.sum()))
    edges = [(i, j) for i in range(N) for j in range(i + 1, N) if qv[i, j] ** 2 > 0]
    weights = {(i, j): qv[i, j] ** 2 / (4.0 * N) for (i, j) in edges}
    try:
        spec = GraphSpec(n_vertices=N, edges=edges, weights=weights)
    except ValueError as exc:
        raise ValueError(f"filter disconnects part of the spectrum: {exc}") from exc
    q0_weight = qv[0, 0] ** 2 / N
    extra = None
    if q0_weight > 0:
        extra = [(q0_weight, matrix_unit(N, i, i)) for i in range(N)]
    model = graph_lindblad(spec, state, extra_jumps=extra)

    # cross-check against the directly averaged action: e_ii feeds e_jj at
    # rate f2[i, j] / N, and e_kl decays at sum_i (f2[i, k] + f2[i, l]) / (2N)
    f2 = qv**2 * np.exp(-beta * (lam[:, None] - lam[None, :]) / 2.0)
    scale = max(f2.max() / N, 1e-30)
    hop = f2.T / N
    np.fill_diagonal(hop, 0.0)
    out = f2.sum(axis=0) / N
    _check_unit_action(model.lind, hop - np.diag(hop.sum(axis=1)),
                       -0.5 * (out[:, None] + out[None, :]), 1e-12 * scale,
                       "averaged generator deviates from its closed form on diagonals",
                       "averaged generator deviates from its closed form on coherences")
    return HaarModel(model=model, spectrum=lam, beta=beta, q0_weight=q0_weight)


# ---------------------------------------------------------------------------
# product-space lift


@dataclass
class LiftModel:
    lind: Lindbladian
    state: QuantumState
    base: GraphModel
    a: float
    b: float
    kernel_dim: int

    def primitive_with(self, H) -> bool:
        """Primitivity criterion for a block-diagonal commuting Hamiltonian.

        The lifted kernel is spanned by 1 x e_00 and 1 x e_11; a Hamiltonian
        H = diag(H^1, ..., H^N) moves it iff some off-diagonal block entry
        H^i_01 is nonzero.
        """
        H = require_hermitian(H, what="H")
        N2 = 2 * self.base.state.dim
        if H.shape[0] != N2:
            raise ValueError("H dimension does not match the lifted space")
        hnorm = max(np.linalg.norm(H, 2), 1e-30)
        off_block = H.copy()
        for i in range(self.base.state.dim):
            off_block[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0.0
        if np.abs(off_block).max() > 1e-12 * hnorm:
            raise ValueError("criterion applies to block-diagonal Hamiltonians")
        return any(abs(H[2 * i, 2 * i + 1]) > 1e-12 * hnorm
                   for i in range(self.base.state.dim))


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
    lind = Lindbladian(2 * N, np.zeros((2 * N, 2 * N)), jumps, alpha=0.0)
    return LiftModel(lind=lind, state=state, base=base, a=a, b=b, kernel_dim=2)
