"""Reservation sequences (Section 2.2).

A strategy's output is a strictly increasing sequence of reservation lengths
that must cover every possible execution time.  For unbounded distributions
the sequence is conceptually infinite; we represent it as a finite prefix
plus an optional *extender* that materializes further terms on demand (the
Monte-Carlo evaluator extends until the largest sampled execution time is
covered).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.observability import metrics
from repro.utils.numeric import MONOTONE_ATOL, first_nonincreasing_index

__all__ = ["ReservationSequence", "SequenceError", "MAX_RESERVATIONS"]

#: Safety cap on materialized reservations.  A correct strategy reaches any
#: realistic execution time in far fewer steps (sequences grow at least
#: linearly); hitting the cap indicates a stalled extender.
MAX_RESERVATIONS = 100_000


class SequenceError(ValueError):
    """Raised for invalid (non-increasing, non-covering) sequences."""


class ReservationSequence:
    """A strictly increasing sequence of reservation lengths.

    Parameters
    ----------
    values:
        Initial reservation lengths ``t_1 < t_2 < ...`` (at least one).
    extend:
        Optional callable ``extend(values: np.ndarray) -> float`` returning
        the next reservation given all current ones.  Must produce strictly
        increasing values; the sequence raises :class:`SequenceError` if it
        does not.
    name:
        Identifier of the generating strategy (used in experiment output).
    """

    def __init__(
        self,
        values: Iterable[float],
        extend: Optional[Callable[[np.ndarray], float]] = None,
        name: str = "",
    ):
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise SequenceError("a reservation sequence needs at least one value")
        if np.any(~np.isfinite(arr)):
            raise SequenceError(f"non-finite reservation in {arr[:5]}...")
        if np.any(arr <= 0.0):
            raise SequenceError("reservation lengths must be positive")
        bad = first_nonincreasing_index(arr)
        if bad != -1:
            raise SequenceError(
                f"reservations must be strictly increasing; "
                f"values[{bad - 1}]={arr[bad - 1]} >= values[{bad}]={arr[bad]}"
            )
        self._values = arr
        self._extend = extend
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Materialized prefix (read-only view)."""
        v = self._values.view()
        v.flags.writeable = False
        return v

    @property
    def is_extensible(self) -> bool:
        return self._extend is not None

    def __len__(self) -> int:
        return int(self._values.size)

    def __getitem__(self, i: int) -> float:
        return float(self._values[i])

    @property
    def first(self) -> float:
        """The first reservation ``t_1`` — the quantity Theorem 3 reduces
        the whole optimization to."""
        return float(self._values[0])

    @property
    def last(self) -> float:
        return float(self._values[-1])

    # ------------------------------------------------------------------
    # Extension
    # ------------------------------------------------------------------
    def extend_once(self) -> float:
        """Materialize one more reservation via the extender."""
        if self._extend is None:
            raise SequenceError(
                f"sequence {self.name or '<anonymous>'} is finite "
                f"(last={self.last}) and has no extender"
            )
        nxt = float(self._extend(self._values))
        if not np.isfinite(nxt) or nxt <= self.last + MONOTONE_ATOL:
            raise SequenceError(
                f"extender for {self.name or '<anonymous>'} produced "
                f"non-increasing value {nxt} after {self.last}"
            )
        self._values = np.append(self._values, nxt)
        metrics.inc("sequence.extensions")
        return nxt

    def ensure_covers(self, t: float) -> None:
        """Extend the sequence until ``last >= t``."""
        t = float(t)
        while self.last < t:
            if len(self) >= MAX_RESERVATIONS:
                raise SequenceError(
                    f"sequence {self.name or '<anonymous>'} exceeded "
                    f"{MAX_RESERVATIONS} reservations without covering {t} "
                    f"(last={self.last}); extender is growing too slowly"
                )
            self.extend_once()

    # ------------------------------------------------------------------
    # Costing (delegates vectorized path to the Monte-Carlo engine)
    # ------------------------------------------------------------------
    def cost_of(self, execution_time: float, cost_model) -> float:
        """Total cost ``C(k, t)`` for one execution time (Eq. 2)."""
        self.ensure_covers(execution_time)
        return cost_model.sequence_cost(self._values, execution_time)

    def index_covering(self, t: float) -> int:
        """0-based index ``k-1`` of the reservation that completes a job of
        duration ``t``."""
        self.ensure_covers(t)
        return int(np.searchsorted(self._values, t, side="left"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(f"{v:.4g}" for v in self._values[:4])
        more = ", ..." if (len(self) > 4 or self.is_extensible) else ""
        return f"<ReservationSequence {self.name or ''} [{head}{more}] len={len(self)}>"


def constant_extender(step: float) -> Callable[[np.ndarray], float]:
    """Extender adding ``step`` each time — the paper's finite-cost witness
    ``t_i = a + i`` of Theorem 2 uses this shape."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    return lambda values: float(values[-1]) + step


def geometric_extender(factor: float) -> Callable[[np.ndarray], float]:
    """Extender multiplying by ``factor`` (e.g. MEAN-DOUBLING's tail)."""
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1, got {factor}")
    return lambda values: float(values[-1]) * factor
