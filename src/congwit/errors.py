class InputError(ValueError):
    """Rejected input: a precondition of the public API does not hold.

    The CLI maps this to exit code 2.
    """


def _is_int(value) -> bool:
    # JSON booleans load as bool, a subclass of int; they are not integers here
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(doc: dict, key) -> int:
    """The integer at doc[key] of a JSON object; anything else is an InputError."""
    value = doc.get(key)
    if not _is_int(value):
        raise InputError(f"{key} must be an integer, not {value!r}")
    return value


def json_int_list(value, what) -> list:
    """A JSON list of integers; anything else is an InputError."""
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise InputError(f"{what} must be a list of integers, not {value!r}")
    return value
