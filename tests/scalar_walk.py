"""Scalar reference walk of one thinned Poisson stream.

The oracle that ``mfjump.drivers.collect_candidates`` is checked against:
one candidate at a time, one stream at a time, on the public
``StreamState`` cursor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfjump.drivers import InvalidInputError, StreamState, marks_uniforms


@dataclass(frozen=True)
class PoissonEvent:
    """A candidate event of a thinned Poisson stream.

    ``u`` is uniform on (0, rate_bound); the caller accepts the event iff
    ``u <= rate(state)``.  Marks are addressed lazily through
    ``mark``/``marks`` so untouched coordinates are never drawn.
    """

    time: float
    u: float
    marks_key: int
    event_index: int

    def mark(self, particle_index: int) -> float:
        return float(self.marks(np.asarray([particle_index]))[0])

    def marks(self, particle_indices: np.ndarray) -> np.ndarray:
        return marks_uniforms(self.marks_key, self.event_index, particle_indices)


def next_candidate_event(
    stream: StreamState,
    t: float,
    horizon: float,
    rate_bound: float,
    marks_key: int = 0,
    event_index: int = 0,
) -> PoissonEvent | None:
    """Next candidate at bounding rate ``rate_bound``, or None past ``horizon``.

    Consumes one uniform for the inter-arrival time and, only if the
    candidate lands inside the horizon, a second one for the thinning level
    ``u``.
    """
    if not rate_bound > 0:
        raise InvalidInputError(f"rate_bound must be positive, got {rate_bound}")
    if not t < horizon:
        raise InvalidInputError("t must be before horizon")
    w = -np.log(stream.uniforms(1)[0]) / rate_bound
    tau = t + w
    if tau > horizon:
        return None
    u = stream.uniforms(1)[0] * rate_bound
    return PoissonEvent(time=float(tau), u=float(u), marks_key=marks_key, event_index=event_index)
