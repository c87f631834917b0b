"""Test helper for the package's immutable records."""


def replace(record, /, **changes):
    """A copy of `record` with the named fields changed, built by its
    constructor, so the record's checks run again.

    The first parameter is positional-only, so a field may be named like
    it (LemmaScope has a field `r`).
    """
    values = {name: getattr(record, name) for name in record.__match_args__}
    return type(record)(**{**values, **changes})
