"""Exception types shared across the simulator.

The CLI maps these onto exit codes.  Bad arguments are refused before a
command starts, and ``ProfileFormatError`` (a malformed replay file) is a
usage problem too.  Inside a command, ``SimulationError`` subclasses mean
the numerics gave up, and so does any other ``ValueError`` raised there;
``OSError`` keeps its usual I/O meaning.
"""


class SimulationError(Exception):
    """Base class for numerical failures (degeneracies, blown integrations)."""


class DegenerateGroundError(SimulationError):
    """The problem Hamiltonian has a (numerically) tied ground state."""


class NearDegeneracyError(SimulationError):
    """Two levels got too close for the level-dynamics ODEs to stay regular."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair  # offending (level, level) index pair, when known


class IntegrationFailureError(SimulationError):
    """An ODE integration failed to reach the end of the sweep."""


class UnreachableTargetError(SimulationError):
    """time_to_target hit its scan cap without reaching the requested P."""


class FitUnderdeterminedError(ValueError):
    """Too few distinct sizes to fit a power law."""


class ProfileFormatError(ValueError):
    """A replayed curvature profile file failed validation."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
