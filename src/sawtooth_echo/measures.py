"""Two-qubit entanglement and entropy measures.

Concurrence follows the spin-flip construction: with Y = sy x sy and
rho_tilde = Y conj(rho) Y (conjugation in the computational basis
{|00>, |01>, |10>, |11>}), the decreasingly ordered square roots l_i of the
eigenvalues of rho @ rho_tilde give C = max(l1 - l2 - l3 - l4, 0).

Numerically the l_i are computed as the singular values of
A = sqrt(rho) @ Y @ conj(sqrt(rho)), since A @ A^dag = sqrt(rho) rho_tilde
sqrt(rho) shares the spectrum of rho @ rho_tilde.  A general eigensolver on
the non-Hermitian product loses half the working precision in the square
root of its near-zero eigenvalues (1e-8 errors on C for near-pure states);
the SVD keeps the noiseless-echo identity sharp at the 1e-12 level.  The
entropy reuses the eigenvalues of the same decomposition, so each matrix is
validated and diagonalised once for both measures.
"""

import math

import numpy as np

# sigma_y tensor sigma_y (real in this basis)
_SY_SY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)

#: eigenvalues may dip this far below zero from partial-trace round-off;
#: anything worse indicates a bug upstream, not noise
EIGENVALUE_CLAMP = 1e-10

_HERMITICITY_TOL = 1e-8


def _as_density(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > _HERMITICITY_TOL:
        raise ValueError(
            "matrix is not Hermitian within 1e-8; upstream reduction is broken"
        )
    return rho


def concurrence_and_entropy(rho) -> tuple:
    """Wootters concurrence and von Neumann entropy S = -Tr(rho log2 rho)
    in bits of a two-qubit density matrix, both from one eigendecomposition."""
    rho = _as_density(rho)
    evals, vecs = np.linalg.eigh(rho)
    if evals[0] < -EIGENVALUE_CLAMP:
        raise ValueError(
            f"density matrix eigenvalue {evals[0]:.3e} below -{EIGENVALUE_CLAMP:.0e}"
        )
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    lams = np.linalg.svd(root @ _SY_SY @ root.conj(), compute_uv=False)
    # round-off can push eigenvalues marginally outside [0, 1]; both ends
    # contribute 0 weight after clipping
    evals = np.clip(evals, 0.0, 1.0)
    positive = evals[evals > 0.0]
    return (
        float(max(2.0 * lams[0] - lams.sum(), 0.0)),
        float(-(positive * np.log2(positive)).sum()),
    )


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    return concurrence_and_entropy(rho)[0]


def von_neumann_entropy(rho) -> float:
    """S = -Tr(rho log2 rho) in bits for a Hermitian 4x4 density matrix."""
    return concurrence_and_entropy(rho)[1]


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def eof(concurrence_value: float) -> float:
    """Entanglement of formation in bits, monotone in the concurrence."""
    c = float(concurrence_value)
    if not -1e-9 <= c <= 1.0 + 1e-9:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c)))


def ergodic_entropy_reference(N: int) -> float:
    """Noise-averaged two-qubit entropy of an ergodic N-level register,
    2 - 8/(N ln 2); approaches the 2-bit maximum from below."""
    if N < 8:
        raise ValueError(f"reference needs N >= 8, got {N}")
    return 2.0 - 8.0 / (N * math.log(2.0))


def bell_density() -> np.ndarray:
    """|Phi+><Phi+| with |Phi+> = (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = math.sqrt(0.5)
    return np.outer(v, v.conj())


def werner_state(p: float) -> np.ndarray:
    """p |Phi+><Phi+| + (1-p) I/4; concurrence max(0, (3p-1)/2)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    return p * bell_density() + (1.0 - p) * np.eye(4, dtype=np.complex128) / 4.0
