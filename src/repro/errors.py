"""Exception types shared across the :mod:`repro` package.

The library raises narrowly-typed errors so callers can distinguish
user mistakes (e.g. a label that is not in the ground set) from internal
invariant violations (which raise plain :class:`AssertionError`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GroundSetMismatchError",
    "UnknownElementError",
    "InvalidConstraintError",
    "InvalidProofError",
    "NotAFrequencyFunctionError",
    "NotApplicableError",
    "NotImpliedError",
    "PersistenceError",
    "CorruptWalError",
    "CorruptSnapshotError",
    "WalGapError",
    "PlanError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GroundSetMismatchError(ReproError):
    """Raised when two objects defined over different ground sets are mixed.

    Every constraint, set function, family and relation is bound to one
    :class:`~repro.core.ground.GroundSet`; operations across distinct
    ground sets are rejected rather than silently re-interpreted.
    """


class UnknownElementError(ReproError, KeyError):
    """Raised when a label is not an element of the ground set."""


class InvalidConstraintError(ReproError, ValueError):
    """Raised when a differential constraint is syntactically malformed."""


class InvalidProofError(ReproError):
    """Raised by the proof checker when a derivation step is not a valid
    application of the inference rules of Figure 1 (or, in macro mode,
    Figure 2) of the paper."""


class NotAFrequencyFunctionError(ReproError, ValueError):
    """Raised when a set function expected to lie in ``positive(S)``
    (nonnegative density; Section 6 of the paper) does not."""


class NotApplicableError(ReproError):
    """Raised when a specialized decision procedure (e.g. the P-time
    functional-dependency decider for singleton right-hand sides) is asked
    to decide an instance outside its fragment."""


class PersistenceError(ReproError):
    """Base class for durability errors (write-ahead log / snapshots).

    Recovery never silently diverges: any data-directory state that
    cannot be reconstructed exactly raises a subclass of this error
    instead of producing a plausible-but-wrong instance."""


class CorruptWalError(PersistenceError):
    """Raised when a write-ahead-log record fails its CRC or framing
    check *before* the final record.  A torn final record (truncated
    mid-write by a crash) is not corruption -- that transaction never
    committed and recovery drops it -- but damage anywhere earlier
    means committed transactions are unrecoverable."""


class CorruptSnapshotError(PersistenceError):
    """Raised when a snapshot file cannot be decoded or the state it
    seeds fails its recorded consistency counters (density fingerprint,
    support size, violation counts)."""


class WalGapError(PersistenceError):
    """Raised when the write-ahead log is missing transactions: record
    sequence numbers must continue contiguously from the snapshot's
    coverage point.  A snapshot *ahead* of the log (records already
    compacted away) is fine; a gap means lost commits."""


class PlanError(ReproError, ValueError):
    """Raised when a requested engine configuration is unsatisfiable
    (e.g. a live context over a ground set past the dense limit, or an
    unknown backend or fsync policy)."""


class NotImpliedError(ReproError):
    """Raised by the derivation engine when asked to derive a constraint
    that is *not* implied (completeness only promises derivations for
    implied constraints).  Carries the uncovered lattice element that
    certifies non-implication via Theorem 3.5."""

    def __init__(self, message: str, uncovered_mask: int):
        super().__init__(message)
        self.uncovered_mask = uncovered_mask
