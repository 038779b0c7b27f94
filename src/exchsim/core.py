"""Dense complex linear algebra on the two-spin Hilbert space.

Everything here works on plain numpy arrays of dimension 2x2 or 4x4.
Basis order for two qubits is |00>, |01>, |10>, |11>, with qubit 1 the
left tensor factor.  All functions are pure; module-level operator
constants are read-only arrays.
"""

import numpy as np

# Construction-time invariant checks (unitarity, hermiticity, trace).
ATOL_CONSTRUCT = 1e-12
# Agreement between independent numerical routes (e.g. vs a series oracle).
ATOL_ORACLE = 1e-10
# Eigenvalue floor for positivity checks on density matrices.
EIGVAL_FLOOR = -1e-10


def _readonly(m):
    m = np.asarray(m, dtype=complex)
    m.setflags(write=False)
    return m


SIGMA_X = _readonly([[0, 1], [1, 0]])
SIGMA_Y = _readonly([[0, -1j], [1j, 0]])
SIGMA_Z = _readonly([[1, 0], [0, -1]])
IDENT_2 = _readonly(np.eye(2))
IDENT_4 = _readonly(np.eye(4))
SWAP = _readonly([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]])


def as_operator(m, dims=(2, 4)):
    """Coerce to a square complex array of dimension 2 or 4.

    Raises ValueError if the shape is wrong, the dimension is not allowed,
    or any entry is non-finite.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in dims:
        raise ValueError(f"dimension must be one of {dims}, got {a.shape[0]}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def max_abs(m):
    """Max-abs entry norm used by all tolerance checks."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def check_unitary(u):
    """Validate U†U = I within ATOL_CONSTRUCT (max-abs). Returns the array."""
    u = as_operator(u)
    defect = max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > ATOL_CONSTRUCT:
        raise ValueError(f"matrix is not unitary: ||U^H U - I||_max = {defect:.3e}")
    return u


def check_hermitian(h):
    h = as_operator(h)
    defect = max_abs(h - h.conj().T)
    if defect > ATOL_CONSTRUCT:
        raise ValueError(f"matrix is not Hermitian: ||H - H^H||_max = {defect:.3e}")
    return h


def check_density_matrix(rho):
    """Validate a 4x4 density matrix: Hermitian, unit trace, positive.

    Hermiticity and trace are checked at ATOL_CONSTRUCT; eigenvalues may dip
    to EIGVAL_FLOOR to absorb roundoff.  Returns the array.
    """
    rho = as_operator(rho, dims=(4,))
    if max_abs(rho - rho.conj().T) > ATOL_CONSTRUCT:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > ATOL_CONSTRUCT:
        raise ValueError(f"density matrix trace is {np.trace(rho):.15g}, expected 1")
    smallest = float(np.min(np.linalg.eigvalsh(rho)))
    if smallest < EIGVAL_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")
    return rho


def kron(a, b):
    """Tensor product of two single-qubit operators; qubit 1 is the left factor.

    Basis index convention: kron(A, B) acts on |q1 q2> with A on qubit 1,
    so e.g. kron(SIGMA_X, IDENT_2) maps basis index 0 (|00>) to 2 (|10>).
    """
    a = as_operator(a, dims=(2,))
    b = as_operator(b, dims=(2,))
    return np.kron(a, b)


def spin_dot_operator():
    """The two-spin coupling s1.s2 with dimensionless spin-1/2 matrices (s = sigma/2).

    Equal to (sigma_x x sigma_x + sigma_y x sigma_y + sigma_z x sigma_z) / 4,
    or equivalently (2 SWAP - I)/4.  Traceless and Hermitian; eigenvalues are
    +1/4 on the triplet space and -3/4 on the singlet.
    """
    return (kron(SIGMA_X, SIGMA_X) + kron(SIGMA_Y, SIGMA_Y) + kron(SIGMA_Z, SIGMA_Z)) / 4.0


def expm_hermitian(h, theta):
    """Unitary exp(-i * theta * H) of a Hermitian H via spectral decomposition.

    Parameters
    ----------
    h : array_like
        Hermitian 2x2 or 4x4 matrix (checked at 1e-12 max-abs).
    theta : float
        Dimensionless real angle multiplying H in the exponent.

    Returns
    -------
    ndarray
        Unitary of the same dimension, exact to eigensolver precision.
    """
    h = check_hermitian(h)
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def process_fidelity(u, v):
    """Process fidelity |Tr(U†V)|^2 / d^2 between two unitaries.

    Symmetric and invariant under global phases of either argument.
    """
    u = check_unitary(u)
    v = check_unitary(v)
    if u.shape != v.shape:
        raise ValueError("unitaries must have equal dimension")
    d = u.shape[0]
    overlap = np.trace(u.conj().T @ v)
    return float(min(1.0, abs(overlap) ** 2 / d**2))


def density_from_pure(psi):
    """Rank-one density matrix psi psi† from a normalized 4-vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ValueError(f"expected a 4-component state vector, got shape {psi.shape}")
    if not np.all(np.isfinite(psi.real)) or not np.all(np.isfinite(psi.imag)):
        raise ValueError("state vector entries must be finite")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > ATOL_CONSTRUCT:
        raise ValueError(f"state vector norm is {norm:.15g}, expected 1")
    return np.outer(psi, psi.conj())
