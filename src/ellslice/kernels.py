"""Covariance construction from input features."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig


@dataclass(frozen=True)
class KernelConfig:
    """Squared-exponential hyperparameters: lengthscale and signal variance."""

    lengthscale: float = 1.0
    signal_variance: float = 1.0

    def __post_init__(self):
        for name in ("lengthscale", "signal_variance"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (math.isfinite(v) and v > 0):
                raise InvalidConfig(f"{name} must be positive and finite, got {v!r}")
        scale = float(self.lengthscale)
        if not 0.0 < scale * scale < math.inf:
            # the kernel divides by the square, which must stay a positive float
            raise InvalidConfig(
                f"lengthscale squared must be positive and finite, got {self.lengthscale!r}"
            )


def squared_exponential(inputs: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """Squared-exponential covariance over rows of ``inputs`` (n points x D dims).

    K[i, j] = signal_variance * exp(-0.5 * sum_d (x[i,d] - x[j,d])**2 / lengthscale**2)

    A vector of length n is read as n points of one dimension, like its
    ``[:, None]`` column. Symmetric by construction with diagonal exactly
    ``signal_variance``.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim < 2:  # a vector is n one-dimensional points, a scalar one point
        x = x.reshape(-1, 1)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"inputs must be an n x D matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs contain non-finite entries")
    # elementwise (x_i - x_j)**2 summed over dims is bitwise symmetric
    diff = x[:, None, :] - x[None, :, :]
    sq_dist = np.sum(diff * diff, axis=-1)
    return cfg.signal_variance * np.exp(-0.5 * sq_dist / cfg.lengthscale**2)
