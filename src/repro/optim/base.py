"""Optimiser interface shared by SLIDE layers and the dense baselines.

SLIDE's gradient updates are *sparse*: only the weights connecting active
neurons to active inputs change on a given step.  To exploit that, the
optimiser exposes both a dense ``step`` (used by the baselines) and a
``sparse_step`` that updates an arbitrary sub-block of a parameter, touching
only the corresponding slices of its internal state.
"""

from __future__ import annotations

import abc

from repro.types import FloatArray, IntArray

__all__ = ["Optimizer"]


class Optimizer(abc.ABC):
    """Keeps per-parameter state and applies (possibly sparse) updates."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self._state: dict[str, dict[str, FloatArray]] = {}
        # Global step counter; sparse and dense steps both advance it.
        self.step_count = 0
        # How far begin_step() advances the counter.  1 everywhere except
        # HOGWILD worker processes: N workers share the moment buffers, so
        # each buffer element sees ~N decay/accumulate cycles per *local*
        # step and bias correction should pace with the global rate.  The
        # process trainer sets this to its worker count.
        self.step_stride = 1

    # ------------------------------------------------------------------
    # Parameter registration
    # ------------------------------------------------------------------
    def register(self, name: str, shape: tuple[int, ...]) -> None:
        """Allocate state for a parameter named ``name`` with ``shape``."""
        if name in self._state:
            raise ValueError(f"parameter {name!r} already registered")
        self._state[name] = self._init_state(shape)

    def has_parameter(self, name: str) -> bool:
        return name in self._state

    def parameter_names(self) -> list[str]:
        """Names of every registered parameter (registration order)."""
        return list(self._state)

    @abc.abstractmethod
    def to_config(self):
        """The :class:`~repro.config.OptimizerConfig` this optimiser encodes.

        The inverse of :func:`repro.optim.factory.make_optimizer`; used by
        the checkpoint format so optimisers serialise themselves instead of
        callers switching on concrete types.
        """

    @abc.abstractmethod
    def _init_state(self, shape: tuple[int, ...]) -> dict[str, FloatArray]:
        """Create optimiser state arrays for a parameter of ``shape``."""

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def begin_step(self) -> None:
        """Advance the global step counter (call once per mini-batch)."""
        self.step_count += self.step_stride

    @abc.abstractmethod
    def step(self, name: str, param: FloatArray, grad: FloatArray) -> None:
        """Dense in-place update of ``param`` given its full gradient."""

    @abc.abstractmethod
    def sparse_step(
        self,
        name: str,
        param: FloatArray,
        rows: IntArray,
        cols: IntArray | None,
        grad_block: FloatArray,
    ) -> None:
        """In-place update of ``param[rows][:, cols]`` given its gradient block.

        When ``cols`` is ``None`` the update applies to whole rows (used for
        biases, which are one-dimensional).

        Callers use this in two patterns: HOGWILD training applies one small
        block per *sample* (many calls per ``begin_step``), while the batched
        synchronous kernels accumulate the whole micro-batch's gradient and
        apply one union-active-set block per layer per ``begin_step`` — the
        standard mini-batch semantics.  Implementations must therefore not
        assume any particular number of ``sparse_step`` calls per step.
        """

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------
    def state_of(self, name: str) -> dict[str, FloatArray]:
        """Return the internal state arrays of a parameter (no copy)."""
        return self._state[name]

    def state_items(self) -> list[tuple[str, str, FloatArray]]:
        """Every state array as ``(param_name, state_key, array)`` triples.

        Registration order for parameters, insertion order for keys — a
        stable flat enumeration used by the shared-memory parameter store
        (:mod:`repro.parallel.sharedmem`) to place the optimiser's moment
        buffers alongside the weights they belong to.
        """
        return [
            (name, key, array)
            for name, state in self._state.items()
            for key, array in state.items()
        ]

    def set_state_array(self, name: str, key: str, array: FloatArray) -> None:
        """Rebind one state array to ``array`` (same shape, in place thereafter).

        The counterpart of :meth:`state_items` for attaching/detaching
        shared-memory backing: the new array must match the shape of the one
        it replaces, and subsequent ``step``/``sparse_step`` calls read and
        write through it.
        """
        current = self._state[name][key]
        if array.shape != current.shape:
            raise ValueError(
                f"state array {name!r}/{key!r} has shape {current.shape}; "
                f"cannot rebind to shape {array.shape}"
            )
        self._state[name][key] = array

