"""Dataclass <-> JSON tree codec driven by declared field types.

Encoding turns nested dataclasses into dicts, enums into their values
and tuples into lists, and copies mappings into dicts. Decoding rebuilds objects from
``typing.get_type_hints`` through their constructors, so every
``__post_init__`` check runs again.

A field is written under its own name unless it declares another next
to it: ``codon_number: int = field(metadata={"wire": "codon"})``. Keys
follow dataclass field order.

A derived field, one that ``__post_init__`` computes from the others,
is declared ``field(init=False)``. It is written like any other field;
on decoding it is left out of the constructor call and checked against
the value the object derived.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import types
import typing
from collections.abc import Mapping
from enum import Enum
from typing import Any, Callable, TypeVar

from .errors import ReportFormatError

T = TypeVar("T")

_SCALARS = (str, int, float, bool)


def to_dict(obj: Any) -> dict[str, Any]:
    """Encode one dataclass instance as a JSON-compatible dict."""
    return _class_encoder(type(obj))(obj)


def from_dict(cls: type[T], payload: Any) -> T:
    """Rebuild ``cls`` from the output of ``to_dict`` (or its JSON).

    Raises:
        ReportFormatError: a key is missing, a value has the wrong JSON
            type (a float field accepts an int), an enum value is
            unknown, a ``__post_init__`` check fails, or a derived
            field differs from the value the object derives. The
            message starts with the key path at fault.
    """
    return _decode(cls, payload, "")


@functools.cache
def _wire_fields(cls: type) -> tuple[tuple[str, str, Any, bool], ...]:
    """(attribute, wire key, type, derived) for each field, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("wire", f.name), hints[f.name], not f.init)
        for f in dataclasses.fields(cls)
    )


def _optional_arg(tp: Any) -> Any:
    args = typing.get_args(tp)
    if len(args) != 2 or type(None) not in args:
        raise TypeError(f"codec handles only X | None unions, got {tp!r}")
    return args[0] if args[1] is type(None) else args[1]


def _is_enum(tp: Any) -> bool:
    return isinstance(tp, type) and issubclass(tp, Enum)


# Encoding is on the request path, so each class gets a plan built once:
# scalar fields are copied in one zip, and only the others convert.


@functools.cache
def _class_encoder(cls: type) -> Callable[[Any], dict[str, Any]]:
    fields = _wire_fields(cls)
    keys = tuple(key for _, key, _, _ in fields)
    getter = operator.attrgetter(*(name for name, _, _, _ in fields))
    values = getter if len(fields) > 1 else (lambda obj: (getter(obj),))
    converters = tuple(
        (key, enc) for _, key, tp, _ in fields if (enc := _encoder(tp)) is not None
    )

    def encode(obj: Any) -> dict[str, Any]:
        out = dict(zip(keys, values(obj)))
        for key, enc in converters:
            out[key] = enc(out[key])
        return out

    return encode


def _encoder(tp: Any) -> Callable[[Any], Any] | None:
    """Converter for values declared as ``tp``; None means pass through."""
    if tp in _SCALARS:
        return None
    if dataclasses.is_dataclass(tp):
        return _class_encoder(tp)
    if _is_enum(tp):
        return operator.attrgetter("value")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        inner = _encoder(_optional_arg(tp))
        return inner and (lambda v: None if v is None else inner(v))
    if origin is tuple and args[-1] is Ellipsis:
        item = _encoder(args[0])
        return (lambda v: [item(x) for x in v]) if item else list
    if origin is tuple:
        items = [_encoder(a) or (lambda x: x) for a in args]
        return lambda v: [enc(x) for enc, x in zip(items, v)]
    if origin in (dict, Mapping):
        value = _encoder(args[1])
        return (lambda v: {k: value(x) for k, x in v.items()}) if value else dict
    raise TypeError(f"codec cannot encode {tp!r}")


def _expect(value: Any, kinds: tuple[type, ...], path: str, what: str) -> None:
    if type(value) not in kinds:
        raise ReportFormatError(
            f"{path or 'payload'}: expected {what}, got {type(value).__name__}"
        )


def _decode(tp: Any, v: Any, path: str) -> Any:
    if tp is float:
        _expect(v, (int, float), path, "a number")
        return float(v)
    if tp in _SCALARS:
        _expect(v, (tp,), path, tp.__name__)
        return v
    if dataclasses.is_dataclass(tp):
        _expect(v, (dict,), path, "an object")
        kwargs, derived = {}, []
        for name, key, field_tp, is_derived in _wire_fields(tp):
            where = f"{path}.{key}" if path else key
            if key not in v:
                raise ReportFormatError(f"{where}: missing key")
            value = _decode(field_tp, v[key], where)
            if is_derived:
                derived.append((name, key, field_tp, where, value))
            else:
                kwargs[name] = value
        try:
            obj = tp(**kwargs)
        except ValueError as exc:
            raise ReportFormatError(f"{path or tp.__name__}: {exc}") from exc
        for name, key, field_tp, where, value in derived:
            if getattr(obj, name) != value:
                want = _encoder(field_tp) or (lambda x: x)
                raise ReportFormatError(
                    f"{where}: {v[key]!r} is inconsistent with the other fields, "
                    f"which give {want(getattr(obj, name))!r}"
                )
        return obj
    if _is_enum(tp):
        try:
            return tp(v)
        except ValueError:
            raise ReportFormatError(f"{path}: {v!r} is not a {tp.__name__}") from None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        return None if v is None else _decode(_optional_arg(tp), v, path)
    if origin is tuple:
        _expect(v, (list, tuple), path, "a list")
        item_types = [args[0]] * len(v) if args[-1] is Ellipsis else args
        if len(item_types) != len(v):
            raise ReportFormatError(f"{path}: expected {len(args)} items, got {len(v)}")
        return tuple(
            _decode(t, x, f"{path}[{i}]") for i, (t, x) in enumerate(zip(item_types, v))
        )
    if origin in (dict, Mapping):
        _expect(v, (dict,), path, "an object")
        return {
            _decode(args[0], k, path): _decode(args[1], x, f"{path}.{k}")
            for k, x in v.items()
        }
    raise TypeError(f"codec cannot decode {tp!r}")
