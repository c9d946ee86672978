"""Wavefunction container used by the evolution and Hamiltonian modules."""

from dataclasses import dataclass

import numpy as np


@dataclass
class WaveState:
    """A normalized state vector tagged with its sweep position.

    amplitudes: complex vector of length 2**n in the computational basis.
    lam: current interpolation parameter in [0, 1], or None when the state
        is not attached to a sweep (e.g. the bare bias ground state).
    """

    amplitudes: np.ndarray
    lam: float | None = None

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

