"""The JSON form of every pipeline artifact, derived from the dataclasses,
and the one reader of every input file.

`encode` turns a dataclass into a dict of its fields, an enum into its
value, a tuple into a list and dict keys into strings; ints, floats, strings,
booleans and None pass through unchanged. `decode` builds a value back from
the annotated field types, and a value must already have the JSON type its
annotation stands for: a boolean for bool, an integer that is not a boolean
for int, any number but a boolean for float, a string for str. A field whose
JSON key differs from its name names the key in ``field(metadata={"json": key})``.

The converters are built once per type, not by reflecting on every value.

`read_bytes`, `read_json` and `read_array` are the only readers of input
files, so every file the CLI reads fails the same way: a missing file raises
IOFailure "{what} not found", any other OS error IOFailure "cannot read
{what}" (exit 4), bytes that are no JSON text raise ValidationError "{what}
{path} is not valid JSON", and a raw array file of the wrong size raises
IngestError (both exit 2); `read_array` maps a file rather than copying it.
`json_text` is the one JSON writer, of json's compact form: one line, keys
sorted (`python -m json.tool FILE` indents it).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import mmap
import operator
import os
import stat
import types
import typing
from pathlib import Path

from .errors import IngestError, IOFailure, ValidationError


def encode(obj):
    """Plain JSON values for a dataclass, enum, list, tuple or dict, recursively."""
    return _encoder(type(obj))(obj)


def decode(tp, data, what: str):
    """A value of annotated type `tp` from its JSON form; any malformed or
    missing part raises one ValidationError that names `what`, and a type's
    own check in `__post_init__` names `what` before its message and keeps
    its hint."""
    try:
        return _decoder(tp)(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{what} malformed: {type(exc).__name__}: {exc}") from exc
    except ValidationError as exc:
        raise type(exc)(f"{what}: {exc}", exc.hint) from exc


def read_bytes(path: str | Path, what: str) -> bytes:
    """The contents of the file at `path`, which a message calls `what`."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise IOFailure(f"{what} not found: {path}") from exc
    except OSError as exc:  # a directory, no permission
        raise IOFailure(f"cannot read {what} {path}: {exc.strerror}") from exc


def read_array(path: str | Path, what: str, dtype: np.dtype, count: int) -> np.ndarray:
    """The `count` values of `dtype` that the file at `path` holds. A regular
    file's size is checked first, so a file of any other size is rejected
    unread; one of the right size is mapped read-only, its pages the array,
    and truncating it while mapped raises SIGBUS, as with `numpy.memmap`. A
    pipe, which has no size, and a file that refuses the mapping are read whole."""
    import numpy as np

    expected = count * dtype.itemsize
    try:
        with open(path, "rb") as f:
            info = os.fstat(f.fileno())
            size = info.st_size
            whole = not stat.S_ISREG(info.st_mode)  # a pipe has no size: read it whole
            if not whole and size == expected:
                try:
                    data = np.frombuffer(mmap.mmap(f.fileno(), expected, access=mmap.ACCESS_READ), np.uint8)
                except ValueError:  # the file shrank since fstat
                    size = f.seek(0, os.SEEK_END)
                except OSError:  # a file system that cannot map it
                    whole = True
            if whole:
                data = np.frombuffer(f.read(), dtype=np.uint8)
                size = data.size
    except FileNotFoundError as exc:
        raise IOFailure(f"{what} not found: {path}") from exc
    except OSError as exc:  # a directory, no permission
        raise IOFailure(f"cannot read {what} {path}: {exc.strerror}") from exc
    if size != expected:
        raise IngestError(f"expected {count} scalars ({expected} bytes), file holds {size // dtype.itemsize} ({size} bytes)")
    return data.view(dtype)


def read_json(path: str | Path, what: str):
    """The JSON value in the file at `path`. Bytes in no Unicode encoding, a
    syntax error, an integer of more digits than int() takes and nesting
    deeper than the parser recurses all raise ValidationError."""
    data = read_bytes(path, what)
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc


def json_text(obj) -> str:
    """The whole text of a JSON file: `obj` compact, keys sorted, one line."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _same(value):
    return value


def _fields(cls) -> list[tuple[str, dataclasses.Field, object]]:
    """(JSON key, field, annotated type) per field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return [(f.metadata.get("json", f.name), f, hints[f.name]) for f in dataclasses.fields(cls)]


def _parts(tp) -> tuple[object, tuple]:
    """The class of an annotation and its type arguments; ``X | None`` gives
    ``(typing.Optional, (X,))``, and no other union is supported."""
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = tuple(a for a in typing.get_args(tp) if a is not type(None))
        if len(args) != 1:
            raise NotImplementedError(f"only X | None unions are supported, got {tp}")
        return typing.Optional, args
    return origin or tp, typing.get_args(tp)


def _is_enum(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, enum.Enum)


@functools.cache
def _encoder(tp):
    if dataclasses.is_dataclass(tp):
        fields = [(key, f.name, _encoder(hint)) for key, f, hint in _fields(tp)]
        return lambda obj: {
            key: getattr(obj, name) if enc is _same else enc(getattr(obj, name))
            for key, name, enc in fields
        }
    if _is_enum(tp):
        return operator.attrgetter("value")
    cls, args = _parts(tp)
    if cls is typing.Optional:
        inner = _encoder(args[0])
        return _same if inner is _same else lambda obj: None if obj is None else inner(obj)
    if cls in (list, tuple):
        # unannotated items dispatch on each one's runtime type
        encs = [_encoder(a) for a in args if a is not Ellipsis] or [encode]
        if all(enc is _same for enc in encs):
            return list
        if len(encs) == 1:
            inner = encs[0]
            return lambda obj: [inner(v) for v in obj]
        return lambda obj: [enc(v) for enc, v in zip(encs, obj)]
    if cls is dict:
        inner = _encoder(args[1]) if args else encode
        return lambda obj: {str(k): inner(v) for k, v in obj.items()}
    return _same  # int, float, str, bool, None and their subclasses


def _json_type(data) -> str:
    return "null" if data is None else type(data).__name__


def _checked(kinds, name: str):
    def check(data):
        if not isinstance(data, kinds):
            raise TypeError(f"expected a JSON {name}, got {_json_type(data)}")
        return data

    return check


def _scalar(name: str, *types):
    """Passes a JSON value whose type is exactly one of `types` (so a bool is
    no int), converted to the first of them; anything else is a TypeError."""
    first = types[0]

    def check(data):
        if type(data) is first:
            return data
        if type(data) in types:
            return first(data)
        raise TypeError(f"expected a JSON {name}, got {_json_type(data)}")

    return check


def _int_key(key: str) -> int:
    """An int dict key from the digits `encode` writes for it. int() also
    takes "01", " 1", "1_0" and non-ASCII digits, which would let two keys
    of one object name one int and one of their values be lost."""
    value = int(key)
    if str(value) != key:
        raise ValueError(f"object key {key!r} is not an integer in canonical digits")
    return value


_as_object = _checked(dict, "object")
_as_array = _checked((list, tuple), "array")
# a JSON value decodes only to the type that its own JSON type stands for
_SCALARS = {
    bool: _scalar("boolean", bool),
    int: _scalar("integer", int),
    float: _scalar("number", float, int),
    str: _scalar("string", str),
}


@functools.cache
def _decoder(tp):
    if dataclasses.is_dataclass(tp):
        # an absent key takes the field's default, converted like a present one
        missing = dataclasses.MISSING
        fields = [
            (key, _decoder(hint), missing if f.default is missing else encode(f.default))
            for key, f, hint in _fields(tp)
        ]

        def dec(data):
            data = _as_object(data)
            return tp(*[
                conv(data[key]) if default is missing else conv(data.get(key, default))
                for key, conv, default in fields
            ])

        return dec
    if _is_enum(tp):
        members = {m.value: m for m in tp}

        def dec_enum(data):
            try:
                return members[data]
            except (KeyError, TypeError):  # no member, or unhashable: the enum's own error
                return tp(data)

        return dec_enum
    cls, args = _parts(tp)
    if cls is typing.Optional:
        inner = _decoder(args[0])
        return lambda data: None if data is None else inner(data)
    if cls is list:
        inner = _decoder(args[0])
        return lambda data: [inner(v) for v in _as_array(data)]
    if cls is tuple and args[-1] is Ellipsis:
        inner = _decoder(args[0])
        return lambda data: tuple([inner(v) for v in _as_array(data)])
    if cls is tuple:
        convs = [_decoder(a) for a in args]

        def dec_fixed(data):
            if len(_as_array(data)) != len(convs):
                raise ValueError(f"expected {len(convs)} items, got {len(data)}")
            return tuple([conv(v) for conv, v in zip(convs, data)])

        return dec_fixed
    if cls is dict:
        key = _int_key if args[0] is int else _decoder(args[0])
        value = _decoder(args[1])
        return lambda data: {key(k): value(v) for k, v in _as_object(data).items()}
    if cls in _SCALARS:
        return _SCALARS[cls]
    raise NotImplementedError(f"no JSON decoder for {tp}")
