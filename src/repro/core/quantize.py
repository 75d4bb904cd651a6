"""Reservation quantization: real platforms take discrete request sizes.

The paper's sequences are real-valued; actual schedulers accept requests in
whole minutes/hours (AWS RIs bill hourly, Slurm walltimes are minutes).
:func:`quantize_sequence` rounds every reservation *up* to a grid (rounding
down could strand jobs between the original and rounded value), merges
collisions, and the ablation in :mod:`repro.experiments.ablations` measures
the cost of that granularity — small for fine grids, and bounded by
``alpha * g`` extra per reservation for grid step ``g``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.sequence import ReservationSequence

__all__ = ["quantize_sequence", "quantization_overhead_bound"]


def quantize_sequence(
    sequence: ReservationSequence,
    granularity: float,
    max_values: int = 10_000,
) -> ReservationSequence:
    """Round every reservation up to a multiple of ``granularity``.

    Collisions (two reservations rounding to the same grid point) merge into
    one — the shorter request was redundant once both round up to the same
    wall.  The result is finite (the materialized prefix only); extend the
    input first to the coverage you need.
    """
    if granularity <= 0:
        raise ValueError(f"granularity must be positive, got {granularity}")
    if len(sequence) > max_values:
        raise ValueError(
            f"sequence has {len(sequence)} values; refusing to quantize more "
            f"than {max_values}"
        )
    # ceil with tolerance: a value already on the grid stays put.
    steps = np.ceil(sequence.values / granularity - 1e-9)
    grid = np.unique(steps) * granularity
    values: List[float] = [float(v) for v in grid]
    quantized = ReservationSequence(values, name=f"{sequence.name}@{granularity:g}")
    return quantized


def quantization_overhead_bound(
    sequence: ReservationSequence, granularity: float, cost_model
) -> float:
    """Worst-case extra expected cost from quantization.

    Each reservation grows by at most ``granularity``; a job that would have
    finished in reservation ``k`` still finishes in reservation ``<= k``, so
    the extra cost is bounded by ``(alpha + beta) * granularity`` per
    *paid* reservation.  Using the materialized prefix length ``m``:

    ``overhead <= m * (alpha + beta) * granularity``

    — loose but free of distribution knowledge; the ablation measures the
    actual (much smaller) gap.
    """
    if granularity <= 0:
        raise ValueError(f"granularity must be positive, got {granularity}")
    return len(sequence) * (cost_model.alpha + cost_model.beta) * granularity
