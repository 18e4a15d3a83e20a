"""Differentially private AIMD multi-resource allocation simulator."""

from .model import quad_quartic_cost, quadratic_cost
from .engine import run
from .baseline import solve_optimum
from .metrics import cost_ratio

__all__ = ["run", "solve_optimum", "cost_ratio", "quadratic_cost", "quad_quartic_cost"]
