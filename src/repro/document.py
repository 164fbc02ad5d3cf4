"""Files from outside the program: one reader, one field accessor, one error
(docs/architecture.md §"Files from outside the program").

Every file the program reads back is read by :func:`read_text` — JSON by
:func:`load_json`, the one ``json.loads`` — and every field a loader uses
is taken by :func:`field_of`.  Stdlib only, so ``storage`` may import it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Union

PathLike = Union[str, Path]
_REQUIRED: Any = object()
_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean",
    dict: "a JSON object", list: "a list", None: "null",
}
_TYPES = {float: (int, float), None: (type(None),)}


class DocumentError(ValueError):
    """A file from outside the program that cannot be used: missing,
    unreadable, not JSON, a field missing or of the wrong type, or a value
    its loader rejects.  The message names the file, and the field's path
    when a field is at fault."""


def read_text(path: PathLike, what: str, hint: str = "") -> str:
    """The text of ``path``, a ``what`` (``"benchmark record"``, …); a
    missing file's error ends with ``hint``, how to make one."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise DocumentError(
            f"no {what} at {path}" + (f"; {hint}" if hint else "")
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"unreadable {what} {path}: {exc}") from exc


def load_json(
    path: PathLike,
    what: str,
    parse: Callable[[dict], Any] = lambda doc: doc,
    hint: str = "",
) -> Any:
    """``parse`` of the JSON object at ``path`` (see :func:`read_text`); a
    :class:`DocumentError` out of ``parse`` is re-raised naming the file."""
    text = read_text(path, what, hint)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise DocumentError(
            f"unreadable {what} {path}: not valid JSON: {exc}"
        ) from exc
    try:
        return parse(_checked(doc, dict, ""))
    except DocumentError as exc:
        raise DocumentError(f"{what} {path}: {exc}") from exc


def field_of(
    doc: Any, key: str, kind: Any, default: Any = _REQUIRED, where: str = ""
) -> Any:
    """``doc[key]``, checked to have type ``kind`` *exactly* (a bool is not
    a number); ``default`` when the key is absent, if one is given.

    ``kind`` is ``str``, ``int``, ``float`` (any number), ``bool``,
    ``dict``, ``list`` or ``None``; ``[k]`` is a list of ``k``; a tuple is
    any of its kinds.  ``where`` is the path of ``doc`` in its document, so
    a :class:`DocumentError` names the field as ``where.key``.
    """
    name = f"{where}.{key}" if where else key
    if key in _checked(doc, dict, where):
        return _checked(doc[key], kind, name)
    if default is _REQUIRED:
        raise DocumentError(f"field {name!r} is missing")
    return default


def _checked(value: Any, kind: Any, name: str) -> Any:
    for option in kind if isinstance(kind, tuple) else (kind,):
        if isinstance(option, list):
            if type(value) is list:
                for index, item in enumerate(value):
                    _checked(item, option[0], f"{name}[{index}]")
                return value
        elif type(value) in _TYPES.get(option, (option,)):
            return value
    raise DocumentError(
        f"{f'field {name!r}' if name else 'the document'} must be "
        f"{_describe(kind)}, got {type(value).__name__}"
    )


def _describe(kind: Any) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_describe(option) for option in kind)
    if isinstance(kind, list):
        item = "list" if isinstance(kind[0], list) else _NAMES[kind[0]]
        return f"a list of {item.split()[-1]}s"
    return _NAMES[kind]
