"""Weighted operator spaces and the KMS coordinate frame.

Every superoperator in this package is represented as an ordinary complex
matrix in an orthonormal basis for one of the sigma-weighted inner products

    <X, Y>_{sigma,s} = tr(sigma^s X^dag sigma^(1-s) Y),    0 <= s <= 1,

with s = 1/2 (KMS) the default and s = 1 (GNS) used for detailed-balance
checks.  The frame is built through the similarity X -> sigma^((1-s)/2) X
sigma^(s/2), which is an isometry onto the Hilbert-Schmidt space; weighted
adjoints become literal conjugate transposes and detailed balance becomes
Hermiticity of a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Matrix = np.ndarray

TRACE_TOL = 1e-12
HERMITIAN_TOL = 1e-10
RANK_TOL_FACTOR = 1e-10
LINEARITY_RTOL = 1e-8

# fixed probe generator: construction-time checks must be deterministic
_PROBE_SEED = 7541


def dag(X: Matrix) -> Matrix:
    return X.conj().T


def as_square_matrix(X, dim: int | None = None) -> Matrix:
    """Validate and convert to a square complex ndarray."""
    A = np.asarray(X, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if dim is not None and A.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {A.shape[0]}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def require_hermitian(X: Matrix, tol: float = HERMITIAN_TOL, what: str = "matrix") -> Matrix:
    X = as_square_matrix(X)
    defect = np.linalg.norm(X - dag(X))
    scale = max(np.linalg.norm(X), 1.0)
    if defect > tol * scale:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e})")
    return X


def vec(X: Matrix) -> np.ndarray:
    """Row-major vectorization, so vec(A X B) = (A kron B^T) vec(X)."""
    return X.reshape(-1)


def unvec(v: np.ndarray, dim: int) -> Matrix:
    return v.reshape(dim, dim)


class QuantumState:
    """Full-rank density matrix with cached spectral data.

    Eigenvalues are stored in descending order.  Fractional powers are always
    taken through the eigendecomposition.
    """

    def __init__(self, sigma):
        sigma = require_hermitian(sigma, what="sigma")
        N = sigma.shape[0]
        tr = np.trace(sigma).real
        if abs(np.trace(sigma) - 1.0) > TRACE_TOL * max(1.0, abs(tr)):
            raise ValueError(f"tr(sigma) = {np.trace(sigma):.15g}, expected 1")
        mu, U = np.linalg.eigh(sigma)
        mu, U = mu[::-1].copy(), U[:, ::-1].copy()
        if mu[-1] <= RANK_TOL_FACTOR * mu[0]:
            raise ValueError(f"sigma is not full rank (min eigenvalue {mu[-1]:.3e})")
        recon = (U * mu) @ dag(U)
        if np.linalg.norm(recon - sigma) > 1e-12 * max(1.0, np.linalg.norm(sigma)):
            raise ValueError("eigendecomposition failed to reconstruct sigma")
        self.dim = N
        self.matrix = sigma
        self.eigenvalues = mu
        self.eigenvectors = U
        self._powers: dict[float, Matrix] = {}

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        return cls(np.eye(dim) / dim)

    @classmethod
    def from_eigenvalues(cls, values, basis=None) -> "QuantumState":
        """State with the given positive spectrum (normalized) in the given basis."""
        w = np.asarray(values, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("eigenvalues must be a nonempty 1d sequence")
        if np.any(w <= 0):
            raise ValueError("all eigenvalues must be positive")
        mu = w / w.sum()
        if basis is None:
            return cls(np.diag(mu))
        U = as_square_matrix(basis, len(mu))
        if np.linalg.norm(dag(U) @ U - np.eye(len(mu))) > 1e-10:
            raise ValueError("basis is not unitary")
        return cls((U * mu) @ dag(U))

    @classmethod
    def gibbs(cls, H, beta: float) -> "QuantumState":
        """sigma proportional to exp(-beta H)."""
        H = require_hermitian(H, what="H")
        e, V = np.linalg.eigh(H)
        w = np.exp(-beta * (e - e.min()))
        return cls.from_eigenvalues(w / w.sum(), V)

    def power(self, p: float) -> Matrix:
        """sigma^p through the cached eigendecomposition."""
        key = float(p)
        if key not in self._powers:
            U = self.eigenvectors
            self._powers[key] = (U * self.eigenvalues**key) @ dag(U)
        return self._powers[key]


def weighted_inner(state: QuantumState, s: float, X, Y) -> complex:
    """<X, Y>_{sigma,s} = tr(sigma^s X^dag sigma^(1-s) Y)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    X = as_square_matrix(X, state.dim)
    Y = as_square_matrix(Y, state.dim)
    return complex(np.trace(state.power(s) @ dag(X) @ state.power(1.0 - s) @ Y))


def weighted_norm(state: QuantumState, s: float, X) -> float:
    return float(np.sqrt(max(weighted_inner(state, s, X, X).real, 0.0)))


class KmsFrame:
    """Orthonormal operator basis for <., .>_{sigma,s}.

    E_0 is the identity; E_1 .. E_{N^2-1} span the traceless subspace
    {X : tr(sigma X) = 0}.  The basis is derived from the matrix units in
    sigma's eigenbasis (row-major order); only diagonal units need a
    Gram-Schmidt correction against the identity, and exactly one dependent
    diagonal candidate is dropped.
    """

    def __init__(self, state: QuantumState, s: float = 0.5):
        if not 0.0 < s <= 1.0:
            raise ValueError(f"s must lie in (0, 1], got {s}")
        self.state = state
        self.s = float(s)
        N = state.dim
        mu = state.eigenvalues
        # Column k of the unitary B (never built) is the HS vectorization, in
        # sigma's eigenbasis, of sigma^((1-s)/2) E_k sigma^(s/2).  Column k is
        # unit _units[k], except that column _diag_cols[j] is
        # sum_r _Q[r, j] * unit r*(N + 1); _units[_diag_cols[j]] = j*(N + 1)
        # lines the gathered diagonal units up with the rows of _Q.
        # Gram-Schmidt on the diagonal entries alone builds _Q; its column 0
        # is sqrt(mu), the identity.
        Q = np.zeros((N, N), dtype=complex)
        Q[:, 0] = np.sqrt(mu)
        units = [0]
        diag_cols = [0]
        dropped = None
        for r in range(N):
            for c in range(N):
                if r != c:
                    units.append(r * N + c)
                    continue
                v = np.zeros(N, dtype=complex)
                v[r] = 1.0
                for _ in range(2):  # reorthogonalize for stability
                    for j in range(len(diag_cols)):
                        v -= Q[:, j] * (Q[:, j].conj() @ v)
                nrm = np.linalg.norm(v)
                if nrm < 1e-12:
                    if dropped is not None:
                        raise ValueError("degenerate sigma factorization: "
                                         "two dependent diagonal candidates")
                    dropped = r
                    continue
                j = len(diag_cols)
                Q[:, j] = v / nrm
                diag_cols.append(len(units))
                units.append(j * (N + 1))
        if len(units) != N * N or dropped is None:
            raise ValueError("frame construction failed to span the operator space")
        self._units = np.array(units)
        self._diag_cols = np.array(diag_cols)
        self._Q = Q
        lp = (1.0 - s) / 2.0
        self._scale = np.outer(mu**lp, mu ** (s / 2.0))
        self._basis_cache: list[Matrix] | None = None

    @property
    def dim(self) -> int:
        return self.state.dim

    @property
    def size(self) -> int:
        return self.state.dim ** 2

    def coords(self, X) -> np.ndarray:
        """Coordinates of X in the frame (length N^2, entry 0 is the mean)."""
        X = as_square_matrix(X, self.dim)
        U = self.state.eigenvectors
        c = vec(self._scale * (dag(U) @ X @ U))[self._units]
        d = self._diag_cols
        c[d] = dag(self._Q) @ c[d]
        return c

    def from_coords(self, c) -> Matrix:
        c = np.asarray(c, dtype=complex)
        if c.shape == (self.size - 1,):
            c = np.concatenate(([0.0], c))
        if c.shape != (self.size,):
            raise ValueError(f"expected {self.size} or {self.size - 1} coordinates")
        d = self._diag_cols
        c = c.copy()
        c[d] = self._Q @ c[d]
        y = np.empty(self.size, dtype=complex)
        y[self._units] = c
        Y = unvec(y, self.dim)
        U = self.state.eigenvectors
        return U @ (Y / self._scale) @ dag(U)

    def superop(self, G: Matrix, restricted: bool = False) -> "SuperOperator":
        """Frame matrix B^dag S G S^-1 B of the map with vec(map(X)) = G vec(X) on
        the units of sigma's eigenbasis; S = diag(vec(_scale)).  Uses B's structure,
        not the dense B."""
        s = vec(self._scale)[self._units]
        M = G[np.ix_(self._units, self._units)] * (s[:, None] / s[None, :])
        d = self._diag_cols
        M[:, d] = M[:, d] @ self._Q
        M[d] = dag(self._Q) @ M[d]
        if restricted:
            return SuperOperator(self, M[1:, 1:].copy(), True)
        return SuperOperator(self, M, False)

    @property
    def basis(self) -> list[Matrix]:
        """The frame operators E_k as matrices (E_0 = identity)."""
        if self._basis_cache is None:
            eye = np.eye(self.size)
            self._basis_cache = [self.from_coords(eye[:, k]) for k in range(self.size)]
        return self._basis_cache


def kms_frame(state: QuantumState) -> KmsFrame:
    """The s = 1/2 frame in which KMS adjoints are conjugate transposes."""
    return KmsFrame(state, s=0.5)


def gns_frame(state: QuantumState) -> KmsFrame:
    return KmsFrame(state, s=1.0)


@dataclass
class SuperOperator:
    """Matrix of a linear map on B(H) in a weighted orthonormal frame.

    restricted = True means the domain and codomain are the traceless
    subspace (indices 1.. of the frame).
    """

    frame: KmsFrame
    matrix: Matrix
    restricted: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, X) -> Matrix:
        """Apply the represented map to an operator."""
        c = self.frame.coords(X)
        if self.restricted:
            # a restricted map annihilates the identity component
            return self.frame.from_coords(self.matrix @ c[1:])
        return self.frame.from_coords(self.matrix @ c)


def superop_matrix(map_fn, frame: KmsFrame,
                   restrict_traceless: bool = False) -> SuperOperator:
    """Matrix [ <E_j, map(E_k)> ]_{jk} of a linear operator map.

    The map is probed for linearity on fixed pseudo-random operators before
    the matrix is assembled.
    """
    N = frame.dim
    rng = np.random.default_rng(_PROBE_SEED)
    X1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    X2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    a = 0.8 - 0.6j
    lhs = map_fn(a * X1 + X2)
    rhs = a * map_fn(X1) + map_fn(X2)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    if np.linalg.norm(lhs - rhs) > LINEARITY_RTOL * scale:
        raise ValueError("map is not linear on random probes")
    cols = [frame.coords(map_fn(E)) for E in frame.basis]
    M = np.stack(cols, axis=1)
    if restrict_traceless:
        return SuperOperator(frame, M[1:, 1:].copy(), True)
    return SuperOperator(frame, M, False)


def kms_adjoint(S: SuperOperator) -> SuperOperator:
    """Adjoint for the frame's inner product: the conjugate transpose."""
    return SuperOperator(S.frame, dag(S.matrix), S.restricted)


def op_norm_2to2(S: SuperOperator) -> float:
    """Largest singular value = sup ||S X|| / ||X|| over the represented domain."""
    return float(np.linalg.svd(S.matrix, compute_uv=False)[0])
