"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """Raised for malformed edge-list input (bad line, bad ids, duplicates, ...).

    ``edge`` is the key of the edge at fault, None when the fault is not one edge's.
    """

    def __init__(self, message: str, edge: object = None) -> None:
        super().__init__(message)
        self.edge = edge


class PremiseError(ValueError):
    """Raised when an operation's structural precondition does not hold.

    Examples: a spectrum-based bound requested for a Laplacian with more than
    one zero eigenvalue, null-vector construction on a graph with negative
    weights, or a Lyapunov solve for an equation with no solution.
    """


class NumericsError(RuntimeError):
    """Raised when a numerical routine fails (singular solve, no convergence)."""
