"""Exception types shared across the package, and the one reader of
JSON input files, which raises them."""

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
