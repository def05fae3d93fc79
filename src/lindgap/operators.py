"""Weighted operator spaces and the KMS coordinate frame.

Every superoperator in this package is represented as a real matrix in one
orthonormal basis for the KMS product

    <X, Y>_{sigma,1/2} = tr(sigma^(1/2) X^dag sigma^(1/2) Y).

The frame is built through the similarity X -> sigma^(1/4) X sigma^(1/4),
which is an isometry onto the Hilbert-Schmidt space; KMS adjoints become
literal transposes and KMS detailed balance becomes symmetry of a matrix.
The basis consists of Hermitian operators, so the matrix of a map that
preserves Hermiticity is real.

The frame is laid on the eigenvectors a QuantumState carries.  Where sigma
is degenerate any eigenbasis will do: `QuantumState.in_basis` hands over
another one, such as a joint eigenbasis of sigma and a commuting
Hamiltonian, in which i[H, .] is diagonal on the matrix units.
"""

from __future__ import annotations

import copy

import numpy as np

Matrix = np.ndarray

TRACE_TOL = 1e-12
HERMITIAN_TOL = 1e-10
RANK_TOL_FACTOR = 1e-10
SQRT2 = np.sqrt(2.0)


def dag(X: Matrix) -> Matrix:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(X, -1, -2).conj()


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


def require_hermitian(X: Matrix, what: str = "matrix") -> Matrix:
    X = as_square_matrix(X)
    defect = np.linalg.norm(X - dag(X))
    scale = np.linalg.norm(X)
    if defect > HERMITIAN_TOL * scale:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e})")
    return X


def vec(X: Matrix) -> np.ndarray:
    """Row-major vectorization, so vec(A X B) = (A kron B^T) vec(X)."""
    return X.reshape(-1)


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

    def in_basis(self, W: Matrix) -> "QuantumState":
        """The same state carrying W, another eigenbasis of sigma for the same
        (descending) eigenvalues, as its eigenvectors."""
        out = copy.copy(self)
        out.eigenvectors = W
        return out


class KmsFrame:
    """Orthonormal operator basis for the KMS product <., .>_{sigma,1/2}.

    E_0 is the identity; E_1 .. E_{N^2-1} span the traceless subspace
    {X : tr(sigma X) = 0}.  The basis is derived from the matrix units e_rc in
    sigma's eigenbasis, after the similarity: positions 0 .. N-1 hold the
    identity and N - 1 combinations of the diagonal units orthogonal to it
    (the columns of _Q, a Helmert basis); then, for each pair r < c in row-major
    order, position N + p holds (e_rc + e_cr)/sqrt2 and position
    N + N(N-1)/2 + p holds i(e_rc - e_cr)/sqrt2.

    Every basis operator is Hermitian.  The inner product is real on
    Hermitian operators, so a Hermitian operator has real coordinates and a
    map that preserves Hermiticity has a real matrix.
    """

    s = 0.5  # the weight exponent of <., .>_{sigma,s}; perfbench keys frames by it

    def __init__(self, state: QuantumState):
        self.state = state
        N = state.dim
        mu = state.eigenvalues
        # _Q is the Helmert basis of the diagonal entries: the Gram-Schmidt of
        # sqrt(mu), e_0, .., e_{N-2} in closed form (e_{N-1} is dependent).
        # With s_r = sum_{i >= r} mu_i, column r + 1 is sqrt(s_{r+1} / s_r) at
        # row r and -sqrt(mu_r mu_i / (s_r s_{r+1})) at rows i > r.  Each entry is
        # one square root of a quotient, so the maximally mixed qubit gets
        # exactly (fl(sqrt(1/2)), -fl(sqrt(1/2))), 0x1.6a09e667f3bcdp-1, one ulp
        # above fl(1/fl(sqrt2)): at an exceptional point one ulp would split a
        # double eigenvalue by sqrt(eps)
        s = np.cumsum(mu[::-1])[::-1]
        Q = np.zeros((N, N))
        Q[:, 0] = np.sqrt(mu)
        k = np.arange(N - 1)
        Q[k, k + 1] = np.sqrt(s[1:] / s[:-1])
        i, r = np.tril_indices(N, -1)
        Q[i, r + 1] = -np.sqrt(mu[r] * mu[i] / (s[r] * s[r + 1]))
        self._Q = Q
        rows, cols = np.triu_indices(N, 1)
        self._pairs = (rows, cols)
        m = len(rows)
        # positions of the diagonal, the (e_rc + e_cr) and the i(e_rc - e_cr) parts
        self._blocks = (slice(0, N), slice(N, N + m), slice(N + m, N + 2 * m))
        # the unit r*N + c behind each position of the basis, before _Q and
        # the pair rotations mix them
        self._units = np.concatenate([np.arange(N) * (N + 1), rows * N + cols,
                                      cols * N + rows])
        self._scale = np.outer(mu**0.25, mu**0.25)

    @property
    def dim(self) -> int:
        return self.state.dim

    @property
    def size(self) -> int:
        return self.state.dim ** 2

    def coords(self, X) -> np.ndarray:
        """Coordinates of X in the frame (length N^2, entry 0 is the mean).

        A stack of operators (..., N, N) gives a stack of coordinates.  For
        exactly Hermitian operators they are real: sqrt2 times the real and
        imaginary parts of the upper-triangle entries.
        """
        N = self.dim
        X = np.asarray(X, dtype=complex)
        if X.shape[-2:] != (N, N):
            raise ValueError(f"expected {N}x{N} operators, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("matrix has non-finite entries")
        hermitian = np.array_equal(X, np.swapaxes(X, -1, -2).conj())
        U = self.state.eigenvectors
        # one product at a time: for a stack these are the largest arrays
        Y = dag(U) @ X
        Y = Y @ U
        Y *= self._scale
        D, P, I = self._blocks
        r, c = self._pairs
        if hermitian:
            out = np.empty(X.shape[:-2] + (self.size,))
            upper = Y[..., r, c]
            out[..., P] = SQRT2 * upper.real
            out[..., I] = SQRT2 * upper.imag
            diag = Y.diagonal(axis1=-2, axis2=-1).real
        else:
            out = np.empty(X.shape[:-2] + (self.size,), dtype=complex)
            upper, lower = Y[..., r, c], Y[..., c, r]
            out[..., P] = (upper + lower) / SQRT2
            out[..., I] = 1j * (lower - upper) / SQRT2
            diag = Y.diagonal(axis1=-2, axis2=-1)
        out[..., D] = diag @ self._Q
        return out

    def superop(self, G: Matrix) -> Matrix:
        """Real frame matrix B^dag S G S^-1 B of the map with vec(map(X)) = G vec(X)
        on the units of sigma's eigenbasis; S = diag(vec(_scale)) and B (never
        built) maps frame coordinates to units.

        The map is taken to preserve Hermiticity, as every GKSL generator and
        every i[H, .] with Hermitian H does: row i(e_rc - e_cr) of S G S^-1 B is
        then the conjugate of row e_rc, so only the diagonal and upper rows are
        needed.
        """
        D, P, I = self._blocks
        units = self._units
        s = vec(self._scale)[units]
        A = G[np.ix_(units[:P.stop], units)].astype(complex, copy=False)
        A *= s[:P.stop, None] / s[None, :]
        # B = B~ diag(1, .., 1, 1/sqrt2, ..): B~ has the unnormalized pair columns
        # e_rc + e_cr and i(e_rc - e_cr), so that B~^dag A B~ is exact sums
        # and the sqrt2 factors come last.  Columns first: A <- A B~.
        A[:, D] = A[:, D] @ self._Q
        even = A[:, P] + A[:, I]
        A[:, I] -= A[:, P]
        A[:, I] *= -1j
        A[:, P] = even
        # rows: B~^dag A
        M = np.empty((self.size, self.size))
        M[D] = self._Q.T @ A[D].real
        np.multiply(A[P].real, 2.0, out=M[P])
        np.multiply(A[P].imag, 2.0, out=M[I])
        pairs = slice(P.start, None)
        M[D, pairs] /= SQRT2
        M[pairs, D] /= SQRT2
        M[pairs, pairs] *= 0.5
        return M
