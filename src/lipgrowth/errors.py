"""Shared exception types and the work budget they enforce."""

# Cells an exact engine may allocate: the largest elimination table of
# ``counting``; in ``strips``, all of a free strip's window stage arrays
# together, and each of a pinned strip's two box buffers.  Work over it, or
# more than the machine can hold, exits 3 with one line naming the need.
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
