"""Exception types shared across the package.

Every error raised on a validated code path derives from DefiParityError so
callers (and the CLI) can separate domain failures from programming bugs.
"""

from __future__ import annotations


class DefiParityError(Exception):
    """Base class for all package errors."""


# --- domain -----------------------------------------------------------------

class EmptyUniverse(DefiParityError):
    """A protocol universe was empty where a nonempty one is required."""


class DuplicateId(DefiParityError):
    def __init__(self, protocol_id: str, detail: str = ""):
        msg = f"duplicate protocol id: {protocol_id!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.protocol_id = protocol_id


class NonPositiveScore(DefiParityError):
    def __init__(self, protocol_id: str, detail: str = ""):
        msg = f"risk score must be > 0 for protocol {protocol_id!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.protocol_id = protocol_id


class UniverseMismatch(DefiParityError):
    """Two indexed values do not share the same ordered protocol ids."""


# --- risk matrix ------------------------------------------------------------

class AlreadyNormalized(DefiParityError):
    """normalize() was called on a matrix that is already normalized."""


class ZeroMatrix(DefiParityError):
    """A risk matrix whose squared entries sum to 0 or overflow cannot be normalized."""


class NotNormalized(DefiParityError):
    """Operation requires a normalized risk matrix."""


class NotDiagonal(DefiParityError):
    """Operation requires a strictly diagonal risk matrix."""


# --- allocation -------------------------------------------------------------

class MissingTvl(DefiParityError):
    def __init__(self, protocol_id: str):
        super().__init__(f"protocol {protocol_id!r} has no TVL; cannot build TVL weights")
        self.protocol_id = protocol_id


class ZeroTotalTvl(DefiParityError):
    """Total TVL across the universe is zero."""


class EmptyVector(DefiParityError):
    """Simplex projection received an empty vector."""


class NotConverged(DefiParityError):
    """Solver hit its iteration budget; carries the best iterate found."""

    def __init__(self, weights, objective: float, iterations: int):
        super().__init__(
            f"solver did not converge after {iterations} iterations "
            f"(best objective {objective:.6e})"
        )
        self.weights = weights
        self.objective = objective
        self.iterations = iterations


# --- backtest ---------------------------------------------------------------

class InvalidApy(DefiParityError):
    """APY must be a finite number greater than -1."""


class NoActiveProtocols(DefiParityError):
    def __init__(self, date):
        super().__init__(f"no protocol has usable yield data on {date}")
        self.date = date


class MissingFx(DefiParityError):
    def __init__(self, date):
        super().__init__(f"no FX rate available on {date} within the gap-fill window")
        self.date = date


class DateRangeMismatch(DefiParityError):
    """Ledgers being compared do not cover the same dates."""


# --- ingest -----------------------------------------------------------------

class ParseError(DefiParityError):
    def __init__(self, path, line: int | None, message: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class UnknownProtocol(DefiParityError):
    def __init__(self, protocol_id: str, detail: str = ""):
        msg = f"unknown protocol id {protocol_id!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.protocol_id = protocol_id


class DuplicateObservation(DefiParityError):
    """The same (series, date) pair was observed twice."""


class NonPositiveRate(DefiParityError):
    """FX rates must be strictly positive."""


class NetworkError(DefiParityError):
    """Remote fetch failed after the configured retries."""


class MappingError(DefiParityError):
    def __init__(self, resource: str, field: str):
        super().__init__(f"payload for {resource!r} is missing required field {field!r}")
        self.resource = resource
        self.field = field


# --- reporting --------------------------------------------------------------

class EmptyLedger(DefiParityError):
    """A report was requested over a ledger with no rows."""


class MonthMisalignment(DefiParityError):
    """Performance and risk rows do not cover the same months."""


class ZeroRisk(DefiParityError):
    """Perf/risk ratio is undefined for a month with zero average risk."""
