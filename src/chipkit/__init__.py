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
