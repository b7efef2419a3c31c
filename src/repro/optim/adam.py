"""Adam optimiser with sparse block updates.

The dense ``step`` is textbook Adam (Kingma & Ba, 2014).  ``sparse_step``
applies the same update rule to an arbitrary ``rows x cols`` block of a
parameter, touching only that block's first/second-moment state — this is
what lets SLIDE keep per-update cost proportional to the number of *active*
weights.

The block update runs in place: each of ``param``/``m``/``v`` is gathered
once, updated with ``out=`` arithmetic against one scratch buffer, and
scattered back once, in the floating-point order of the expression
``lr * (m / bc1) / (sqrt(v / bc2) + eps)``, so the result is bitwise
identical to evaluating that expression on gathered copies.  A block that
spans every column (the output layer reading a whole hidden layer) or
every row (a hidden layer without LSH, all of whose neurons are active) is
indexed along one axis only (:func:`repro.utils.sparse.block_index`),
avoiding the slower two-array ``np.ix_`` gather/scatter.

Bias correction uses the global step count.  Strictly speaking lazily-updated
Adam is a slight approximation of dense Adam (untouched coordinates do not
decay their moments), matching the behaviour of the reference SLIDE code and
of sparse Adam implementations in mainstream frameworks.

``update_clip`` (optional, off by default) bounds each parameter change to
``update_clip * learning_rate`` per element.  Lock-free multi-process
training shares the ``m``/``v`` buffers across workers; a racing gather/
scatter can pair a large first moment with a second moment whose
accumulation was lost, and ``m_hat / (sqrt(v_hat) + eps)`` is unbounded in
that state.  Clipping caps the damage of a torn moment pair at bounded
HOGWILD noise without touching the exact-Adam default path.
"""

from __future__ import annotations

import numpy as np

from repro.config import OptimizerConfig
from repro.optim.base import Optimizer
from repro.types import FloatArray, IntArray
from repro.utils.sparse import block_index, gather_block

__all__ = ["AdamOptimizer"]


class AdamOptimizer(Optimizer):
    """Adam with support for block-sparse updates."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        update_clip: float | None = None,
    ) -> None:
        super().__init__(learning_rate=learning_rate)
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if update_clip is not None and update_clip <= 0:
            raise ValueError("update_clip must be positive when provided")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.update_clip = None if update_clip is None else float(update_clip)

    def _init_state(self, shape: tuple[int, ...]) -> dict[str, FloatArray]:
        return {
            "m": np.zeros(shape, dtype=np.float64),
            "v": np.zeros(shape, dtype=np.float64),
        }

    def to_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            name="adam",
            learning_rate=self.learning_rate,
            beta1=self.beta1,
            beta2=self.beta2,
            epsilon=self.epsilon,
            update_clip=self.update_clip,
        )

    def _bias_correction(self) -> tuple[float, float]:
        t = max(self.step_count, 1)
        return 1.0 - self.beta1**t, 1.0 - self.beta2**t

    def _clip_delta(self, delta: FloatArray) -> FloatArray:
        """Bound each element of an update to ``update_clip * lr`` (in place)."""
        if self.update_clip is not None:
            bound = self.update_clip * self.learning_rate
            np.clip(delta, -bound, bound, out=delta)
        return delta

    def step(self, name: str, param: FloatArray, grad: FloatArray) -> None:
        state = self._state[name]
        m, v = state["m"], state["v"]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * np.square(grad)
        bc1, bc2 = self._bias_correction()
        m_hat = m / bc1
        v_hat = v / bc2
        delta = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        param -= self._clip_delta(delta)

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
        state = self._state[name]
        m, v = state["m"], state["v"]
        index = block_index(param.shape, rows, cols)
        # Gathers through ``index`` are fresh copies, so each block is
        # updated in place and scattered back; ``scratch`` is the one
        # temporary.  Each operation is the one the expression form in the
        # module docstring performs, in its order, so results match it bitwise.
        scratch = np.multiply(grad_block, 1.0 - self.beta1)
        m_block = gather_block(m, index)
        m_block *= self.beta1
        m_block += scratch
        m[index] = m_block
        np.square(grad_block, out=scratch)
        scratch *= 1.0 - self.beta2
        v_block = gather_block(v, index)
        v_block *= self.beta2
        v_block += scratch
        v[index] = v_block
        bc1, bc2 = self._bias_correction()
        # delta = lr * (m / bc1) / (sqrt(v / bc2) + eps), built in m_block.
        np.divide(v_block, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.epsilon
        m_block /= bc1
        m_block *= self.learning_rate
        m_block /= scratch
        delta = self._clip_delta(m_block)
        param_block = gather_block(param, index)
        param_block -= delta
        param[index] = param_block
