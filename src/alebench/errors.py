"""The exception type shared across the package."""

__all__ = ["ConfigError"]


class ConfigError(ValueError):
    """A rejected config value: `key` is its field in a config class (``m``),
    its dotted key in a parsed config or a spec (``mod.m``)."""

    def __init__(self, key: str, reason: str):
        super().__init__(key, reason)
        self.key = key
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.key}: {self.reason}"
