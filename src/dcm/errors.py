"""Exception hierarchy and the process exit codes the CLI maps it to."""

EXIT_VALIDATION = 2
EXIT_SETTLEMENT = 3
EXIT_INTEGRITY = 4


class DCMError(Exception):
    """Base class for all engine errors."""

    exit_code = EXIT_VALIDATION


class ValidationError(DCMError):
    """Bad input: numeric domain, parse, range or configuration violations."""

    exit_code = EXIT_VALIDATION


class DomainError(ValidationError):
    """Numeric argument outside its allowed domain."""


class UnboundedCostError(ValidationError):
    """The cost function has no interior minimum (zero carrying cost)."""


class DerivationError(ValidationError):
    """A derived attenuation coefficient fell outside the open interval (0, 1)."""


class ParseError(ValidationError):
    """Malformed tabular or structured-text input."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class NoQuoteError(ValidationError):
    """Requested date precedes the first quotation in the series."""


class IssuanceError(ValidationError):
    """Certificate request violates the issuer's terms."""


class ConfigError(ValidationError):
    """Scenario or CLI configuration is invalid."""


class SettlementError(DCMError):
    """A settlement operation was refused."""

    exit_code = EXIT_SETTLEMENT


class StateError(SettlementError):
    """Operation not allowed in the certificate's current status."""


class ExpiryError(SettlementError):
    """Certificate validity window exceeded."""


class LotSizeError(SettlementError):
    """Face weight below the minimum delivery lot."""


class LedgerIntegrityError(DCMError):
    """Hash chain broken, sequence gap, or unreadable event record."""

    exit_code = EXIT_INTEGRITY

    def __init__(self, message: str, seq: int | None = None):
        if seq is not None:
            message = f"seq {seq}: {message}"
        super().__init__(message)
        self.seq = seq


class ScenarioStepError(DCMError):
    """A scenario script step failed; carries the step index and the cause."""

    def __init__(self, step_index: int, action: str, cause: Exception):
        super().__init__(f"step {step_index} ({action}): {cause}")
        self.step_index = step_index
        self.action = action
        self.cause = cause

    @property
    def exit_code(self) -> int:  # type: ignore[override]
        return getattr(self.cause, "exit_code", EXIT_VALIDATION)
