"""Exception types shared across the package."""


class OdshuttleError(Exception):
    """Base class for package-specific errors."""


class ParseError(OdshuttleError):
    """A structured text file could not be parsed."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class ConfigError(OdshuttleError, ValueError):
    """A value is out of range; ``fields`` names the keys at fault: a field, a
    stop, or a ``(field, item)`` pair for a stop's weight or an item's position."""

    def __init__(self, message, *fields):
        self.fields = fields
        super().__init__(message)


class UnknownStopError(OdshuttleError, KeyError):
    """A stop id does not resolve in the travel network at run time (a link
    to an unknown stop is a :class:`ConfigError` when the network is built)."""


class UnreachableStopError(OdshuttleError):
    """No path exists between two stops in graph mode."""


class InstanceTooLargeError(OdshuttleError):
    """Enumeration or brute-force guard limit exceeded."""
