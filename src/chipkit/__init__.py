"""chipkit: register-map code generation and transaction-level SoC validation.

The pipeline: scan RTL for register candidates (sv_scan), merge them into the
CSV database (regdb), render RTL/docs/software views/tests (emit), and check
the result against a modeled SoC (busmodel) driven through a line protocol
(uart_host). The cli module ties it together.
"""

__version__ = "0.1.0"


class ChipkitError(Exception):
    """A failure the CLI reports as ``error: <message>`` with exit_code."""

    exit_code = 1


class InputError(ChipkitError):
    """The input cannot be read or parsed, or a call is misused."""

    exit_code = 2


class DataError(ChipkitError):
    """The input is well formed but invalid or conflicting."""

    exit_code = 3


# Records are plain __slots__ classes and NamedTuples: a decorator-built record
# costs its class ~0.5 ms at import, and its module loads inspect, ast and dis,
# which together were most of a command's start-up.

class Record:
    """Base of a mutable __slots__ record: equal to a record of its own class
    whose slots are all equal, and unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


class Checked:
    """Base, before the NamedTuple, of an immutable record whose __new__ checks
    its fields. The NamedTuple's own _make, which its _replace calls, skips
    __new__; this one builds through it, so no record can be made invalid."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
