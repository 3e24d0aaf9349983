"""Exception hierarchy shared across the toolkit."""


class FaskitError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(FaskitError):
    """An argument violates a documented precondition or invariant."""


class NonInvertibleError(ParameterError):
    """Modular inverse requested for an element with no inverse."""


class SessionError(FaskitError):
    """Signing-session misuse: reused session id, mismatched sessions."""


class InsufficientSharesError(FaskitError):
    """Fewer than threshold+1 partial signatures were supplied."""


class InvalidPartialError(FaskitError):
    """Combined signature failed verification; some partial was tampered
    with or derived from a corrupted key share."""


class CorruptedShareError(ParameterError):
    """Reproduced key-share bits decode to a value outside the scalar field."""


class RegistrationError(FaskitError):
    """Operation references a user unknown to the service provider."""


class ConfigError(FaskitError):
    """Invalid scenario configuration. The message names the bad field."""


class NondeterminismError(FaskitError):
    """A replayed run diverged from the recorded transcript."""
