"""Exception hierarchy for the SparseCore reproduction.

The paper's architecture raises hardware exceptions in a handful of
well-defined situations (Section 3.3 and 5.1): freeing a stream that is
not mapped in the Stream Mapping Table, using a key-only stream where a
(key,value) stream is required, and accessing stream data with normal
(non-stream) instructions.  Each of those maps to a distinct Python
exception so both the instruction-level executor and tests can assert
precisely which fault fired.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class StreamError(ReproError):
    """Base class for errors related to stream objects and stream ops."""


class UnsortedStreamError(StreamError):
    """A stream was constructed from keys that are not strictly increasing."""


class StreamLengthMismatchError(StreamError):
    """A (key,value) stream was constructed with mismatched array lengths."""


class IsaError(ReproError):
    """Base class for ISA-level (decode/assemble) errors."""


class AssemblerError(IsaError):
    """Malformed stream-ISA assembly text."""


class ArchFault(ReproError):
    """Base class for architectural exceptions raised during execution.

    These model the hardware exceptions of Sections 3.3 and 5.1.
    """


class UnknownStreamFault(ArchFault):
    """``S_FREE`` (or a compute op) referenced a stream ID not in the SMT."""


class StreamTypeFault(ArchFault):
    """A value instruction (``S_VINTER``/``S_VMERGE``) got a key-only stream."""


class StreamRegisterPressureFault(ArchFault):
    """A new stream was initialized while all stream registers were active.

    The real hardware stalls in this case (Section 4.1); the functional
    executor raises instead so compilers/tests can detect register-pressure
    bugs.  The cost models treat it as a stall.
    """


class GfrNotLoadedFault(ArchFault):
    """``S_NESTINTER`` executed before ``S_LD_GFR`` loaded graph format."""


class DatasetError(ReproError):
    """An unknown dataset name was requested from a registry."""


class ConfigError(ReproError):
    """A machine configuration is invalid or could not be resolved.

    Raised on construction (field validation in ``arch/config.py``)
    and on lookups of unknown preset names or sweep axes (including
    fields pricing does not read) — so a bad design point fails
    at the configuration boundary, not deep inside a cost model.
    """


class ExecutionError(ReproError):
    """The parallel engine could not complete one or more jobs.

    Raised only in ``strict`` mode; by default the engine degrades to
    partial results and reports failures as structured records.
    """


class JobTimeoutError(ExecutionError):
    """A pool job exceeded its per-job wall-clock budget."""


class JobCrashError(ExecutionError):
    """A pool worker process died (``BrokenProcessPool``) mid-job."""


class CacheCorruptionError(ReproError):
    """The run cache held entries that failed integrity verification.

    Raised only by ``RunCache.fsck(strict=True)``; the read path never
    raises — corrupt entries are quarantined and read as misses.
    """


class CompilerError(ReproError):
    """The GPM or tensor compiler could not compile the requested input."""


class PatternError(ReproError):
    """A pattern specification is malformed (disconnected, self-loops...)."""
