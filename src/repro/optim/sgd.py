"""Stochastic gradient descent (optionally with momentum) with sparse blocks."""

from __future__ import annotations

import numpy as np

from repro.config import OptimizerConfig
from repro.optim.base import Optimizer
from repro.types import FloatArray, IntArray
from repro.utils.sparse import block_index, gather_block

__all__ = ["SGDOptimizer"]


class SGDOptimizer(Optimizer):
    """Plain SGD / heavy-ball momentum with block-sparse update support."""

    def __init__(self, learning_rate: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(learning_rate=learning_rate)
        if not 0 <= momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        self.momentum = float(momentum)

    def _init_state(self, shape: tuple[int, ...]) -> dict[str, FloatArray]:
        if self.momentum == 0.0:
            return {}
        return {"velocity": np.zeros(shape, dtype=np.float64)}

    def to_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            name="sgd",
            learning_rate=self.learning_rate,
            momentum=self.momentum,
        )

    def step(self, name: str, param: FloatArray, grad: FloatArray) -> None:
        if self.momentum == 0.0:
            param -= self.learning_rate * grad
            return
        velocity = self._state[name]["velocity"]
        velocity *= self.momentum
        velocity += grad
        param -= self.learning_rate * velocity

    def sparse_step(
        self,
        name: str,
        param: FloatArray,
        rows: IntArray,
        cols: IntArray | None,
        grad_block: FloatArray,
    ) -> None:
        if rows.size == 0:
            return
        index = block_index(param.shape, rows, cols)
        if self.momentum == 0.0:
            step = np.multiply(grad_block, self.learning_rate)
        else:
            velocity = self._state[name]["velocity"]
            step = gather_block(velocity, index)
            step *= self.momentum
            step += grad_block
            velocity[index] = step
            step *= self.learning_rate
        param_block = gather_block(param, index)
        param_block -= step
        param[index] = param_block
