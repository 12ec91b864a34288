"""Shared exception types and the work budget they enforce."""

# Cells of the largest array an exact engine may allocate: the elimination
# tables of ``counting`` and the folded lattice buffers of ``strips``.
DEFAULT_BUDGET = 10**7


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured work budget.

    Raised before any wrong answer can be produced; retry with a larger
    budget or a smaller instance.
    """


class ConvergenceError(RuntimeError):
    """An iterative solve hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
