"""vecmag: vector DC magnetometry with collective-spin probes.

Simulates selective phase accumulation under pi-pulse sequences in the
Dicke basis, checks closed-form signals, precisions and quantum Fisher
information against exact state-vector dynamics, and recovers all three
field components from FFT spectra of the measured signal.

The typed failures live here, so that the command line can map them to exit
codes without importing the modules that raise them; `schemes` and
`estimation` re-export the ones they raise.
"""

__version__ = "0.1.0"


class AnalyticBranchError(ValueError):
    """No closed form exists for the requested configuration."""


class BoundViolationError(ArithmeticError):
    """A simulated precision beats the quantum Cramer-Rao bound."""


class UnderResolvedError(ValueError):
    """Fewer resolvable spectral peaks than requested (degenerate field)."""

    def __init__(self, requested: int, found: int):
        super().__init__(f"needed {requested} spectral peaks, resolved {found}")
        self.requested = requested
        self.found = found


class OutOfRegimeError(ValueError):
    """Recovered components violate the positive-frequency regime."""


class AmbiguousSignError(ValueError):
    """Sign fit has tied residuals; the trace cannot decide."""

    def __init__(self, assignments):
        tied = ", ".join(f"({sy:+.0f},{sz:+.0f})" for sy, sz in assignments)
        super().__init__(f"sign assignments tie within 1e-9: {tied}")
        self.assignments = tuple(assignments)
