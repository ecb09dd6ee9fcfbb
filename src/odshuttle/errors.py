"""Exception types shared across the package.  A bad value is a :class:`ConfigError`,
and so is a stop that is unknown or out of reach, at load or at run time, as
:class:`~odshuttle.network.TravelNetwork` states both."""


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


class InstanceTooLargeError(OdshuttleError):
    """Enumeration or brute-force guard limit exceeded."""
