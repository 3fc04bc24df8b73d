"""Semantic exception hierarchy shared across the package, and the one reader
every input file goes through."""

import json
from typing import Callable, TypeVar

T = TypeVar("T")


class CfgenError(Exception):
    """Base error for this package."""


class InputError(CfgenError, ValueError):
    """Caller-side problem: bad arguments, mismatched lengths, bad flags."""


class ModelError(CfgenError):
    """Model-side problem: malformed model, missing rows, impossible evidence."""


class EnumerationCapError(CfgenError):
    """Exact enumeration would exceed the configured world cap."""


def read_json(
    text: str, build: Callable[..., T], *args: object, error: type = ModelError, what: str = "model"
) -> T:
    """``build(payload, *args)`` on the JSON object ``text`` holds. Text that
    is not one, a missing key and a value of the wrong shape each become one
    ``error`` line in words. The package's own errors keep their message; a
    model file's ``InputError`` becomes a ``ModelError``, as the file is at fault."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # the latter: nested too deep
        raise error(f"bad {what} JSON: {e}") from None
    if type(payload) is not dict:
        raise error(f"bad {what} JSON structure: the top level must be an object")
    try:
        return build(payload, *args)
    except error:
        raise
    except InputError as e:
        raise error(str(e)) from None
    except KeyError as e:
        raise error(f"bad {what} JSON structure: missing key {e.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise error(f"bad {what} JSON structure: a value has the wrong shape ({e})") from None
