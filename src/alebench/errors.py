"""Exception types shared across the package."""

__all__ = ["DivergenceError", "ConfigError"]


class DivergenceError(ArithmeticError):
    """An adaptive run's crossing of the weight-magnitude bound.

    lms_batch returns one per diverged lane; the runner raises a
    RuntimeError from it.  Carries the sample index of the crossing, almost
    always a sign that the step size is too large for the input power.
    """

    def __init__(self, sample_index: int, max_weight: float):
        super().__init__(sample_index, max_weight)  # the arguments, so pickle rebuilds it
        self.sample_index = sample_index
        self.max_weight = max_weight

    def __str__(self) -> str:
        return f"weight magnitude {self.max_weight:.3e} exceeded bound at sample {self.sample_index}"


class ConfigError(ValueError):
    """A rejected config value: `key` is its field in a config class (``m``),
    its dotted key in a parsed config or a spec (``mod.m``)."""

    def __init__(self, key: str, reason: str):
        super().__init__(key, reason)
        self.key = key
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.key}: {self.reason}"
