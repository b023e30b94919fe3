"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import get_default_dtype
from repro.utils.random import RandomStateLike, check_random_state


def glorot_uniform(
    fan_in: int, fan_out: int, random_state: RandomStateLike = None
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a ``(fan_in, fan_out)`` matrix.

    Weights are drawn in float64 (so the stream of random draws is
    identical across default dtypes) and cast to the module default dtype
    (:func:`repro.nn.tensor.get_default_dtype`) — a no-op under float64.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    rng = check_random_state(random_state)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return weights.astype(get_default_dtype(), copy=False)


__all__ = ["glorot_uniform"]
