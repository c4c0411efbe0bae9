"""Exception types shared across the library."""


class EllsliceError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(EllsliceError):
    """Vector or matrix shapes are inconsistent."""


class NotPositiveDefinite(EllsliceError):
    """Covariance could not be factorized, even after jitter escalation."""


class InvalidConfig(EllsliceError):
    """A configuration value is outside its allowed range."""


class NonFiniteLikelihood(EllsliceError, ValueError):
    """A likelihood evaluation returned NaN, or a chain starts where the
    likelihood is zero (log L = -inf)."""


class ShrinkLimitExceeded(EllsliceError):
    """Slice bracket shrank ``samplers.MAX_SHRINKS`` times without finding an
    acceptable point; signals a numerically empty slice or a broken
    likelihood, never a normal outcome."""


class DegenerateSeries(EllsliceError):
    """A trace has zero variance, so autocorrelations are undefined."""


class ChainError(EllsliceError):
    """Wraps an operator error raised mid-chain with the iteration index."""

    def __init__(self, iteration: int, cause: Exception | str):
        super().__init__(f"sampler failed at chain iteration {iteration}: {cause}")
        self.iteration = iteration
        self._cause_text = str(cause)

    def __reduce__(self):
        # rebuilt from the cause's text, so a pickled copy (say, from a
        # worker process) keeps the iteration and the message
        return type(self), (self.iteration, self._cause_text)
