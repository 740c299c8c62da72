"""BFGS quasi-Newton minimiser.

The paper trains its networks with "a variant of the quasi-Newton algorithm,
the BFGS method", chosen for its superlinear convergence compared with plain
gradient descent (Section 2.1).  This module implements the standard inverse-
Hessian BFGS update with a strong-Wolfe line search, in pure NumPy.

The implementation is deliberately conventional: dense inverse-Hessian
approximation, curvature-guarded updates, periodic restarts when the line
search fails.

The dense update is a real cost: ``left @ inverse_hessian @ right`` is two
O(n³) matrix products per iteration.  Under ``cProfile``, one fit of the
``mine`` benchmark workload (function 2, a 356-parameter network; 2-vCPU
Intel Xeon, BLAS on 2 threads) took 28.8 s, of which 9.8 s was the own time
of :meth:`BFGSMinimizer.minimize` — nearly all of it that product — 2.1 s
was ``np.outer`` and 3.7 s was the objective.  The O(n²) rank-two form of
the same update is the known fix, but it is not bit-identical: in a trial it
changed the mined network so much that rule extraction exceeded its bound
of 5000 rules.  It waits for the benchmark's mined-rule fixture to be
re-anchored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.optim.line_search import backtracking_line_search, wolfe_line_search
from repro.optim.result import OptimizationResult

Objective = Callable[[np.ndarray], Tuple[float, np.ndarray]]


@dataclass
class BFGSConfig:
    """Hyper-parameters of the BFGS run.

    ``gradient_tolerance`` corresponds to the paper's stopping rule "the
    training phase is terminated when the norm of the gradient of the error
    function falls below a prespecified value".
    """

    max_iterations: int = 500
    gradient_tolerance: float = 1e-4
    value_tolerance: float = 1e-10
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    record_history: bool = True

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise TrainingError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.gradient_tolerance <= 0:
            raise TrainingError(
                f"gradient_tolerance must be positive, got {self.gradient_tolerance}"
            )


class BFGSMinimizer:
    """Minimise a smooth function with the BFGS quasi-Newton method."""

    def __init__(self, config: Optional[BFGSConfig] = None) -> None:
        self.config = config or BFGSConfig()

    def minimize(self, objective: Objective, x0: np.ndarray) -> OptimizationResult:
        """Run BFGS from ``x0``.

        Parameters
        ----------
        objective:
            Callable returning ``(value, gradient)``.
        x0:
            Starting parameter vector.
        """
        config = self.config
        x = np.asarray(x0, dtype=float).copy()
        n = x.shape[0]
        value, gradient = objective(x)
        evaluations = 1
        inverse_hessian = np.eye(n)
        history = [value] if config.record_history else []
        message = "iteration budget exhausted"
        converged = False
        iteration = 0

        for iteration in range(1, config.max_iterations + 1):
            gradient_norm = float(np.max(np.abs(gradient))) if n else 0.0
            if gradient_norm <= config.gradient_tolerance:
                converged = True
                message = "gradient norm below tolerance"
                iteration -= 1
                break

            direction = -inverse_hessian @ gradient
            if float(direction @ gradient) >= 0:
                # The approximation lost positive-definiteness; restart it.
                inverse_hessian = np.eye(n)
                direction = -gradient

            line = wolfe_line_search(
                objective,
                x,
                direction,
                value,
                gradient,
                c1=config.wolfe_c1,
                c2=config.wolfe_c2,
            )
            evaluations += line.evaluations
            if not line.success or line.alpha <= 0.0:
                line = backtracking_line_search(
                    objective, x, direction, value, gradient
                )
                evaluations += line.evaluations
                if not line.success:
                    message = "line search failed to find a descent step"
                    break
                # A backtracking step gives no curvature guarantee: restart H.
                inverse_hessian = np.eye(n)

            step = line.alpha * direction
            new_x = x + step
            new_value, new_gradient = line.value, line.gradient
            value_change = value - new_value

            y = new_gradient - gradient
            s = step
            sy = float(s @ y)
            if sy > 1e-12:
                rho = 1.0 / sy
                identity = np.eye(n)
                left = identity - rho * np.outer(s, y)
                right = identity - rho * np.outer(y, s)
                inverse_hessian = left @ inverse_hessian @ right + rho * np.outer(s, s)

            x, value, gradient = new_x, new_value, new_gradient
            if config.record_history:
                history.append(value)
            if 0 <= value_change < config.value_tolerance:
                converged = True
                message = "objective improvement below tolerance"
                break

        gradient_norm = float(np.max(np.abs(gradient))) if n else 0.0
        if not converged and gradient_norm <= config.gradient_tolerance:
            converged = True
            message = "gradient norm below tolerance"
        return OptimizationResult(
            x=x,
            value=float(value),
            gradient_norm=gradient_norm,
            iterations=iteration,
            function_evaluations=evaluations,
            converged=converged,
            message=message,
            history=history,
        )
