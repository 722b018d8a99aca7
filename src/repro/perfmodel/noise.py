"""Deterministic measurement-noise model.

The paper's Fig. 5c shows binding-overhead time differences that are
occasionally *negative* because system noise exceeds the tiny per-call
overhead for large matrices.  To reproduce that behaviour deterministically,
every simulated clock draws multiplicative jitter from a seeded generator.
"""

from __future__ import annotations

import numpy as np

#: Jitter factors drawn from the generator at once.  A block of normal
#: draws consumes the generator exactly like the same number of single
#: draws, so blocking changes the cost per sample, never the sequence.
BLOCK_SIZE = 1024


class NoiseModel:
    """Multiplicative log-normal timing jitter with a fixed seed.

    The jitter is centred at 1.0; ``sigma`` is the relative standard
    deviation.  Each draw is independent, so repeated timing of the same
    kernel scatters the way real measurements do, but the whole sequence is
    reproducible for a given seed.
    """

    def __init__(self, sigma: float, seed: int = 0) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = sigma
        self.seed = seed
        # Log-normal keeps times positive; ``mu`` normalises the mean to 1.
        self._mu = -0.5 * np.log1p(sigma**2)
        self._s = np.sqrt(np.log1p(sigma**2))
        self.reset()

    def sample(self) -> float:
        """Return one multiplicative jitter factor (mean ~1.0)."""
        if self.sigma == 0.0:
            return 1.0
        factor = next(self._block, None)
        if factor is None:
            self._block = iter(
                np.exp(
                    self._rng.normal(self._mu, self._s, size=BLOCK_SIZE)
                ).tolist()
            )
            factor = next(self._block)
        return factor

    def reset(self) -> None:
        """Restart the jitter sequence from the original seed."""
        self._rng = np.random.default_rng(self.seed)
        self._block = iter(())
