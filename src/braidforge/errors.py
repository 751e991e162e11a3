"""Exception hierarchy. Validation errors map to CLI exit 2, computation
failures to exit 3.  Also the strict integer reader of the JSON loaders."""


def json_int(value) -> int:
    """int(value) for an id or count read from JSON, without truncation or
    parsing: only ints and floats without a fractional part pass; bool,
    strings and everything else raise ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


class BraidforgeError(Exception):
    pass


class ValidationError(BraidforgeError):
    pass


class GraphFormatError(ValidationError):
    pass


class SubdivisionError(ValidationError):
    pass


class MatchingError(ValidationError):
    pass


class ComputationError(BraidforgeError):
    pass


class RewriteLimitError(ComputationError):
    pass


class PhysicalSolveError(ComputationError):
    def __init__(self, message, unsolved=(), suggestions=()):
        super().__init__(message)
        self.unsolved = tuple(unsolved)
        self.suggestions = tuple(suggestions)


class NoRepresentationFound(ComputationError):
    pass
