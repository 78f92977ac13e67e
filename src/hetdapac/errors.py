"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so the split matters:
configuration problems are not protocol failures.
"""


class ConfigError(ValueError):
    """Parameters or configuration that the protocols cannot run with."""


class DivisibilityError(ConfigError):
    """Message length incompatible with the sub-packet layout.

    Carries the smallest length that would have worked so callers can
    report it instead of making the user guess.
    """

    def __init__(self, message: str, minimal_length: int):
        super().__init__(f"{message} (smallest valid length: {minimal_length})")
        self.minimal_length = minimal_length


class AccessRefusal(Exception):
    """A query referenced a message outside the server's accessible set."""


class RetrievalFailure(Exception):
    """No decodable plan in `attempts` draws (the retry cap); none was sent."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts
