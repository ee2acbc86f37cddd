"""Exception types shared across the package."""
from __future__ import annotations


class WiretapError(Exception):
    """Base class for all package-specific errors."""


class ChannelFileError(WiretapError, ValueError):
    """A channel-spec document failed validation.

    The message names the offending field and, for row-level problems,
    the row index.
    """


class SolverError(WiretapError, RuntimeError):
    """An iterative solve stopped before reaching its tolerance.

    Attributes
    ----------
    best_value : float
        Objective value of the best iterate found.
    residual : float
        Certified optimality gap at the best iterate.
    iterations : int
        Number of iterations performed.
    """

    def __init__(self, message: str, *, best_value: float, residual: float,
                 iterations: int):
        super().__init__(
            f"{message} (best value {best_value:.12g}, residual "
            f"{residual:.3g}, {iterations} iterations)")
        self.best_value = best_value
        self.residual = residual
        self.iterations = iterations


class BudgetExceededError(WiretapError, RuntimeError):
    """An enumeration would exceed its configured budget.

    Attributes
    ----------
    quantity : str
        Name of the limiting quantity (e.g. ``"|Z|^n"``).
    required : int or float
        Size the computation would need (inf beyond float range).
    budget : int
        Configured ceiling.
    """

    def __init__(self, quantity: str, required: int, budget: int):
        super().__init__(
            f"{quantity} = {required} exceeds the enumeration budget {budget}")
        self.quantity = quantity
        self.required = required
        self.budget = budget
