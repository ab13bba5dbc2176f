"""Exception types shared across the package."""

__all__ = ["DivergenceError", "ConfigError"]


class DivergenceError(ArithmeticError):
    """An adaptive run's crossing of the weight-magnitude bound.

    lms_batch returns one per diverged lane; the runner raises a
    RuntimeError from it.  Carries the sample index of the crossing, almost
    always a sign that the step size is too large for the input power.
    """

    def __init__(self, sample_index: int, max_weight: float):
        self.sample_index = sample_index
        self.max_weight = max_weight
        super().__init__(
            f"weight magnitude {max_weight:.3e} exceeded bound at sample {sample_index}"
        )


class ConfigError(ValueError):
    """Raised by the benchmark config parser; names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")
