"""Exception hierarchy shared across the toolkit, and the field type check
every config dataclass runs.

ConfigError maps to process exit code 2, DataError to exit code 3.
"""

import dataclasses


class QensError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(QensError):
    """Invalid configuration, spec, or parameter value."""


class DataError(QensError):
    """Problem with input data (files, series, forecasts)."""


class ParseError(DataError):
    """Malformed input row; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateCellError(DataError):
    """A (model, location, forecast_date, target_end_date, level) cell appeared twice."""


class ValidationError(DataError):
    """A forecast violates a structural invariant (ordering, sign, completeness)."""


# annotation as written (the modules postpone evaluation) -> accepted types, their name
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "true or false"),
}


def check_field_types(obj) -> None:
    """Raise a ConfigError for the first int, number, str or bool field of the
    dataclass `obj` whose value has another type."""
    for f in dataclasses.fields(obj):
        if f.type in _FIELD_TYPES:
            kinds, what = _FIELD_TYPES[f.type]
            value = getattr(obj, f.name)
            if (isinstance(value, bool) and bool not in kinds) or not isinstance(value, kinds):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
