"""Independent numerical oracles and random-object helpers shared across tests.

Everything here deliberately avoids the package's own computational routes
(spectral decomposition, projector algebra) so agreement is meaningful.
"""

import numpy as np


def expm_series(h, theta, tol=1e-25, max_terms=300):
    """Truncated Taylor series for exp(-i * theta * h).

    Plain term-by-term summation; accurate to roughly machine precision for
    the small norms used in tests (||theta * h|| up to ~10).
    """
    h = np.asarray(h, dtype=complex)
    a = -1j * theta * h
    term = np.eye(h.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, max_terms):
        term = term @ a / k
        total += term
        if np.max(np.abs(term)) < tol:
            return total
    raise RuntimeError("series did not converge")


def random_state(rng, dim=4):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim=4, rank=3):
    """Random mixed state as a convex mixture of random pure states."""
    weights = rng.random(rank)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        psi = random_state(rng, dim)
        rho += w * np.outer(psi, psi.conj())
    return rho


def random_unitary(rng, dim=4):
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim=4):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def stabilizer_states():
    """The 60 two-qubit stabilizer states, the orbit of |00> under H, S and CNOT.

    They form a state 3-design, so their mean of any quadratic function of
    |psi><psi| (such as a channel's state fidelity) equals the Haar average.
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    s = np.diag([1.0, 1j])
    eye = np.eye(2)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    generators = [np.kron(h, eye), np.kron(eye, h), np.kron(s, eye), np.kron(eye, s), cnot]

    def key(psi):
        lead = psi[np.argmax(np.abs(psi) > 1e-9)]
        return tuple(np.round(psi * abs(lead) / lead, 9))  # fix the global phase

    start = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    found, frontier = {key(start): start}, [start]
    while frontier:
        frontier = [g @ psi for psi in frontier for g in generators]
        frontier = [found.setdefault(key(psi), psi) for psi in frontier if key(psi) not in found]
    return list(found.values())
