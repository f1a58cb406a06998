"""Exception hierarchy shared by all eulerchar modules.

Two failure families matter to callers: bad input data (rejected values,
mismatched primes, out-of-scope requests) and results that cannot be
certified at the declared working precision.  The CLI maps them to exit
codes 2 and 3 respectively.
"""


class EulerCharError(Exception):
    """Base class for all library errors."""


class InputError(EulerCharError):
    """Invalid or out-of-contract input data."""


class PrecisionError(EulerCharError):
    """The answer is not determined at the declared precision."""
