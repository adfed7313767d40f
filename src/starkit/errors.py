"""Exception types shared across the package, the one reader of JSON
input files, which raises them, and the bases of the immutable value
types and records."""

import json


class StarkitError(ValueError):
    """Base class for all input and precondition errors."""


class ArityError(StarkitError):
    """Operands disagree on variable count, or an index is out of range."""


class ParseError(StarkitError):
    """Expression text could not be parsed. Carries a 1-based column."""

    def __init__(self, message, column=None):
        self.column = column
        if column is not None:
            message = f"syntax error at column {column}: {message}"
        super().__init__(message)


class InputError(StarkitError):
    """Malformed input file or structured value (forms, surfaces, maps)."""


class Immutable:
    """Base of the value types: assignment is refused, and they fill
    their slots with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Immutable):
    """An immutable record whose fields are its __slots__: it compares,
    hashes and prints by them, in order, as a frozen dataclass would."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"


def load_json(path):
    """The JSON value in the UTF-8 file at path; content the decoder cannot
    read is InputError, a file that cannot be opened OSError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(str(exc)) from None
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text") from None
    except RecursionError:
        raise InputError(f"{path} nests JSON too deeply to read") from None
    except ValueError:
        raise InputError(f"{path} holds a JSON number with too many digits "
                         f"to read") from None
