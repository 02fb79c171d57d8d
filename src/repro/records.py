"""One JSON codec and one field check for every record.

A record is a dataclass that mixes in :class:`Record`.  Its annotations
say all there is to say about its fields, so ``to_json``, ``from_json``
and :func:`check_fields` read them from there: a field is declared once.

The field rule: ``bool``, ``int`` and ``str`` admit exactly that kind (a
``bool`` is never a number).  ``float`` admits an ``int`` too and stores
it as a ``float``, so ``2`` and ``2.0`` make one record with one store
key.  ``X | None`` admits ``None``.  Nested records, ``tuple[...]``,
``list[...]`` and ``dict[...]`` are checked item by item, and ``IntEnum``
keys (``ArrayId``) are written as ``str(int(key))``.  An ``np.ndarray`` is
written as ``{"dtype", "data"}``; its elements are not checked one by one.
Every rejection is a :class:`~repro.errors.ConfigurationError`.

A record's npz form (:meth:`Record.to_npz`) writes each array as a slice
of one flat member per dtype instead.
"""

from __future__ import annotations

import contextvars
import dataclasses
import enum
import functools
import io
import json
import re
import reprlib
import types
import typing
import zipfile
from typing import Any, Callable, TypeVar

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Record", "check_fields"]

_R = TypeVar("_R", bound="Record")
_Convert = Callable[[Any], Any]


class _Mismatch(Exception):
    """A value its annotation does not admit (reported per field)."""


class Record:
    """Mixin for a dataclass record: its JSON and npz forms, read by the
    field rule."""

    def to_json(self) -> dict[str, Any]:
        """Every field in declaration order, ``None`` as ``null``."""
        data: dict[str, Any] = {}
        for name, write in _writers(type(self)):
            value = getattr(self, name)
            data[name] = value if write is None else write(value)
        return data

    @classmethod
    def from_json(cls: type[_R], data: object) -> _R:
        """The record ``data`` describes.  Rejects a non-object, a missing
        required field and an unknown field, checks each value by the field
        rule, then calls the record's ``validate()``, if it has one."""
        names, required = _names(cls)
        if not isinstance(data, dict) or not required <= data.keys() <= names:
            raise _shape_error(cls, data)
        record = cls(**{
            name: _checked(cls, name, read, data[name])
            for name, read in _readers(cls, True)
            if name in data
        })
        if hasattr(record, "validate"):
            record.validate()
        return record

    def to_npz(self, header: dict[str, Any]) -> bytes:
        """The record's npz form: ``header`` and its JSON in a ``meta``
        member, every array a slice of its dtype's pool member."""
        with _Pools({}) as pools:
            meta = json.dumps({**header, **self.to_json()}).encode("utf-8")
        members = {"meta": [np.frombuffer(meta, dtype=np.uint8)], **pools.parts}
        buffer = io.BytesIO()
        # The bytes np.savez_compressed writes for the joined pools, but
        # streamed part by part: joining a pool, then numpy's copy of it on
        # the way to the compressor, doubled the peak memory of a write.
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as npz:
            for name, parts in members.items():
                with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array_header_1_0(member, {
                        "descr": np.lib.format.dtype_to_descr(parts[0].dtype),
                        "fortran_order": False,
                        "shape": (sum(part.size for part in parts),),
                    })
                    for part in parts:
                        member.write(np.ascontiguousarray(part))
        return buffer.getvalue()

    @classmethod
    def from_npz(cls: type[_R], payload: bytes, header: dict[str, Any]) -> _R:
        """The record :meth:`to_npz` wrote under ``header``.  Rejects what
        :meth:`from_json` rejects, a payload that is not npz, a ``meta``
        without ``header``, and array slices that do not tile their pools."""
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
                members = {name: npz[name] for name in npz.files}
            meta = json.loads(members.pop("meta").tobytes())
        except Exception as exc:  # zipfile and numpy raise many types on bad bytes
            raise ConfigurationError(f"unreadable npz payload: {exc!r}") from exc
        if not isinstance(meta, dict) or any(
            meta.get(name) != value for name, value in header.items()
        ):
            raise ConfigurationError(f"npz meta does not carry {header}")
        with _Pools(members) as pools:
            record = cls.from_json({k: v for k, v in meta.items() if k not in header})
        unread = [d for d, pool in members.items() if pools.used[d] != pool.size]
        if unread:
            raise ConfigurationError(f"npz pools {unread} hold elements no field reads")
        return record


class _Pools:
    """The arrays of one npz payload, one flat member per dtype, while its
    record is written or read: arrays then take the form
    ``{"dtype", "at", "size"}``, the next slice of their dtype's member.

    One member per dtype, not one per array, because ``np.load``'s cost per
    member dominates a warm load: one member per array doubled the load
    time of a 16-core ``GlaResources`` (WEB at 2x scale, 5.7 to 12.4 ms).
    """

    def __init__(self, members: dict[str, np.ndarray]) -> None:
        if any(str(a.dtype) != d or a.ndim != 1 for d, a in members.items()):
            raise ConfigurationError("an npz pool is not a flat array of its dtype")
        self.members = members
        self.parts: dict[str, list[np.ndarray]] = {}
        self.used = dict.fromkeys(members, 0)

    def __enter__(self) -> _Pools:
        self._token = _POOLS.set(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _POOLS.reset(self._token)

    def write(self, array: np.ndarray) -> dict[str, Any]:
        dtype = str(array.dtype)
        at = self.used.get(dtype, 0)
        self.parts.setdefault(dtype, []).append(array)
        self.used[dtype] = at + array.size
        return {"dtype": dtype, "at": at, "size": array.size}

    def read(self, ref: Any) -> np.ndarray:
        if not isinstance(ref, dict) or ref.keys() != {"dtype", "at", "size"}:
            raise _Mismatch
        dtype, size = ref["dtype"], ref["size"]
        if not isinstance(dtype, str) or dtype not in self.used:
            raise _Mismatch
        start = self.used[dtype]
        if (
            ref["at"] != start
            or type(size) is not int
            or not 0 <= size <= self.members[dtype].size - start
        ):
            raise _Mismatch
        self.used[dtype] = start + size
        return self.members[dtype][start : start + size]


#: The pools of the npz payload being written or read; without one, arrays
#: take their JSON form.
_POOLS: contextvars.ContextVar[_Pools | None] = contextvars.ContextVar(
    "_POOLS", default=None
)


def check_fields(record: object) -> None:
    """Raise unless every field of the built ``record`` matches its
    annotation.  A field is stored again as the rule reads it: an ``int``
    given to a ``float`` as a ``float``, a list given to a tuple as a
    tuple."""
    for name, read in _readers(type(record), False):
        value = getattr(record, name)
        checked = _checked(type(record), name, read, value)
        if checked is not value:
            object.__setattr__(record, name, checked)


def _checked(cls: type, name: str, read: _Convert, value: Any) -> Any:
    try:
        return read(value)
    except _Mismatch:
        hint = _hints(cls)[name]
        raise ConfigurationError(
            f"{cls.__name__}.{name} must be {_describe(hint)}, "
            f"got {reprlib.repr(value)}"
        ) from None


def _shape_error(cls: type, data: object) -> ConfigurationError:
    noun = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
    if not isinstance(data, dict):
        return ConfigurationError(
            f"{noun} must be a JSON object, got {type(data).__name__}"
        )
    names, required = _names(cls)
    required_names = [f.name for f in dataclasses.fields(cls) if f.name in required]
    missing = [name for name in required_names if name not in data]
    if missing:
        form = ", ".join(f'"{name}": ...' for name in required_names)
        return ConfigurationError(
            f"{noun} is missing {', '.join(map(repr, missing))}; "
            f"write it as {{{form}}}"
        )
    unknown = ", ".join(sorted(set(data) - names))
    return ConfigurationError(f"unknown {noun} field(s): {unknown}")


@functools.cache
def _hints(cls: type) -> dict[str, Any]:
    return typing.get_type_hints(cls)


@functools.cache
def _names(cls: type) -> tuple[frozenset[str], frozenset[str]]:
    """Every field name, and the names JSON must give (no default)."""
    fields = dataclasses.fields(cls)
    return frozenset(f.name for f in fields), frozenset(
        f.name for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    )


@functools.cache
def _readers(cls: type, json: bool) -> tuple[tuple[str, _Convert], ...]:
    hints = _hints(cls)
    return tuple(
        (f.name, _reader(hints[f.name], json)) for f in dataclasses.fields(cls)
    )


@functools.cache
def _writers(cls: type) -> tuple[tuple[str, _Convert | None], ...]:
    """Each field's JSON writer; ``None`` writes the value as it is."""
    hints = _hints(cls)
    return tuple((f.name, _writer(hints[f.name])) for f in dataclasses.fields(cls))


def _optional(hint: Any) -> Any:
    """``X`` for an ``X | None`` annotation, else ``None``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return inner
    return None


def _describe(hint: Any) -> str:
    inner = _optional(hint)
    if inner is not None:
        return f"None or {_describe(inner)}"
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (tuple, list):
        return f"a list of {args[0].__name__}"
    if origin is dict:
        return f"an object of {args[1].__name__}"
    if hint is np.ndarray:
        pooled = _POOLS.get() is not None
        return "a slice of its npz pool" if pooled else 'an array {"dtype", "data"}'
    return f"a {hint.__name__}" if dataclasses.is_dataclass(hint) else hint.__name__


@functools.cache
def _reader(hint: Any, json: bool) -> _Convert:
    """Check a value against ``hint`` and return it as the record stores
    it: from its JSON form when ``json``, else as built."""
    inner = _optional(hint)
    if inner is not None:
        read = _reader(inner, json)
        return lambda value: None if value is None else read(value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return hint.from_json if json else functools.partial(_record, hint)
    if origin in (tuple, list):
        item = _reader(args[0], json)

        def read_items(value: Any) -> Any:
            if not isinstance(value, (list, tuple)):
                raise _Mismatch
            return origin(map(item, value))

        return read_items
    if origin is dict:
        key, entry = _reader(args[0], json), _reader(args[1], json)
        if issubclass(args[0], enum.IntEnum):
            members = {str(int(m)) if json else m: m for m in args[0]}
            key = functools.partial(_member, members)

        def read_dict(value: Any) -> Any:
            if not isinstance(value, dict):
                raise _Mismatch
            return {key(k): entry(v) for k, v in value.items()}

        return read_dict
    if hint is np.ndarray and json:
        return _array
    if hint is float:
        return _float

    def read_exactly(value: Any) -> Any:
        if type(value) is hint or (
            isinstance(value, hint) and not isinstance(value, bool)
        ):
            return value
        raise _Mismatch

    return read_exactly


def _record(kind: type, value: Any) -> Any:
    if not isinstance(value, kind):
        raise _Mismatch
    if hasattr(value, "validate"):
        value.validate()
    return value


def _float(value: Any) -> float:
    if type(value) is float:
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _Mismatch
    return float(value)


def _member(members: dict[Any, enum.IntEnum], value: Any) -> enum.IntEnum:
    try:
        return members[value]
    except (KeyError, TypeError):
        raise _Mismatch from None


def _array(value: Any) -> np.ndarray:
    pools = _POOLS.get()
    if pools is not None:
        return pools.read(value)
    if not isinstance(value, dict) or value.keys() != {"dtype", "data"}:
        raise _Mismatch
    try:
        return np.asarray(value["data"], dtype=np.dtype(value["dtype"]))
    except (TypeError, ValueError):
        raise _Mismatch from None


def _writer(hint: Any) -> _Convert | None:
    inner = _optional(hint)
    if inner is not None:
        write = _writer(inner)
        return None if write is None else (
            lambda value: None if value is None else write(value)
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return hint.to_json
    if origin in (tuple, list):
        item = _writer(args[0])
        return list if item is None else lambda value: [item(v) for v in value]
    if origin is dict:
        entry = _writer(args[1]) or (lambda value: value)
        if issubclass(args[0], enum.IntEnum):
            return lambda value: {str(int(k)): entry(v) for k, v in value.items()}
        return lambda value: {k: entry(v) for k, v in value.items()}
    if hint is np.ndarray:
        return _write_array
    return None


def _write_array(value: np.ndarray) -> dict[str, Any]:
    pools = _POOLS.get()
    if pools is not None:
        return pools.write(value)
    return {"dtype": str(value.dtype), "data": value.tolist()}
