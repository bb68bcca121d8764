"""Versioned, deterministic binary wire codec for live AVMON datagrams.

One protocol message (or control message) maps to one UDP datagram.  Wire
format v2 (:data:`WIRE_VERSION`) is a compact binary frame::

    0x02 | tag length (u8) | tag name (ASCII) | body

The tag is the message's class name.  The body is compiled once per
registered type, at :func:`register_wire_type`, from its dataclass field
annotations, and lays the fields out in declaration order, little-endian:

* ``int`` is ``<q`` (int64), ``float`` is ``<d``, ``bool`` is one byte
  that must be 0 or 1.  A run of consecutive scalar fields is one
  :class:`struct.Struct`, so an all-scalar message (``Notify``, the pings,
  ``Heartbeat``) packs and unpacks in a single call;
* ``str`` is a u32 byte length plus UTF-8;
* ``Tuple[scalar, ...]`` is a u32 count plus one packed array;
* ``Tuple[Tuple[scalar | str, ...], ...]`` (directory entries, ``ps``
  pairs) is columnar: a u32 row count, then — when any column holds
  strings — a string table (u32 count, then each string as above), then
  each column packed in one call, string columns as u32 table indices;
* other tuples are encoded element by element: a fixed ``Tuple[A, B]``
  as ``A`` then ``B``, a variable ``Tuple[X, ...]`` as a u32 count then
  each ``X``.

The encoding is

* **round-trippable** — ``decode(encode(m)) == m`` for every registered
  message type, which the property suite verifies;
* **deterministic** — the same message always yields the same bytes, in
  every process;
* **strict** — decoding must consume the frame exactly: short or trailing
  bytes, a count or string-table index past the end, a bool byte other
  than 0/1, bad UTF-8 or an unknown tag raise :class:`CodecError`, which
  transports treat as a counted drop, never a crash.  Messages are built
  with ``cls(*values)``, so ``__post_init__`` validation still runs.

Encoding an ``int`` outside the int64 range (or a value of the wrong type)
raises :class:`CodecError`; an annotation the compiler cannot lay out
raises :class:`TypeError` at registration, never on the hot path.

Wire format v1 — canonical JSON, ``{"t": <tag>, "v": 1, <field>: ...}`` —
is still **decoded** (a datagram whose first byte is ``{``), so a v2 node
understands a v1 peer; nothing encodes v1 any more.

All concrete protocol messages (:data:`repro.core.messages.MESSAGE_TYPES`)
are registered at import time; the control plane registers its own types
the same way via :func:`register_wire_type`, so third-party extensions can
put new dataclasses on the wire without touching this module.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import struct
import typing
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple, Type

from ..core.messages import MESSAGE_TYPES

__all__ = [
    "CodecError",
    "WIRE_VERSION",
    "MAX_DATAGRAM_BYTES",
    "register_wire_type",
    "wire_types",
    "encode",
    "decode",
]

#: Wire format version; bump when the frame layout or a type's fields change.
WIRE_VERSION = 2

#: The legacy JSON format, still accepted by :func:`decode`.
_V1 = 1

#: Defensive ceiling on accepted datagram payloads (a full coarse view of a
#: million-node overlay is ~40 entries, far below this).
MAX_DATAGRAM_BYTES = 64 * 1024

_V2_BYTE = WIRE_VERSION
_V1_BYTE = ord("{")

#: struct codes of the scalar annotations.
_SCALAR_CODES = {int: "q", float: "d", bool: "B"}

_U32 = struct.Struct("<I")

#: Exceptions a wrongly-typed or out-of-range value raises while packing.
_ENCODE_ERRORS = (
    struct.error,
    OverflowError,
    TypeError,
    ValueError,
    UnicodeEncodeError,
)


class CodecError(ValueError):
    """A payload that cannot be decoded (or a value that cannot be encoded)."""


# -- v2 body compiler ---------------------------------------------------------
#
# Every compiled piece is a codec: ``pack(value) -> bytes`` and
# ``unpack(data, offset) -> (value, offset)``, plus ``min_size``, the
# fewest bytes any encoding of it takes (bounds element counts on decode).


def _read_u32(data: bytes, offset: int) -> Tuple[int, int]:
    end = offset + 4
    if end > len(data):
        raise CodecError("frame truncated inside a length")
    return _U32.unpack_from(data, offset)[0], end


def _check_count(data: bytes, offset: int, count: int, size: int) -> None:
    if count * size > len(data) - offset:
        raise CodecError(f"count {count} runs past the end of the frame")


def _check_bools(values) -> None:
    for value in values:
        if value > 1:
            raise CodecError(f"bool byte must be 0 or 1, got {value}")


def _pack_str(value: str) -> bytes:
    raw = str.encode(value, "utf-8")
    return _U32.pack(len(raw)) + raw


def _unpack_str(data: bytes, offset: int) -> Tuple[str, int]:
    length, offset = _read_u32(data, offset)
    end = offset + length
    if end > len(data):
        raise CodecError("string runs past the end of the frame")
    try:
        return data[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as error:
        raise CodecError(f"string is not UTF-8: {error}") from None


class _Codec:
    __slots__ = ("pack", "unpack", "min_size")

    def __init__(self, pack, unpack, min_size: int) -> None:
        self.pack = pack
        self.unpack = unpack
        self.min_size = min_size


_STR = _Codec(_pack_str, _unpack_str, 4)


def _array_codec(code: str) -> _Codec:
    """``Tuple[scalar, ...]``: a u32 count plus one packed array."""
    size = struct.calcsize("<" + code)
    is_bool = code == "B"

    def pack(value) -> bytes:
        count = len(value)
        return _U32.pack(count) + struct.pack(f"<{count}{code}", *value)

    def unpack(data: bytes, offset: int):
        count, offset = _read_u32(data, offset)
        _check_count(data, offset, count, size)
        values = struct.unpack_from(f"<{count}{code}", data, offset)
        if is_bool:
            _check_bools(values)
            values = tuple(map(bool, values))
        return values, offset + count * size

    return _Codec(pack, unpack, 4)


def _columnar_codec(kinds: Tuple[Any, ...]) -> _Codec:
    """``Tuple[Tuple[scalar | str, ...], ...]``: one packed array per column.

    String columns are u32 indices into a string table that precedes the
    columns, so a directory naming one host a hundred times carries it once.
    """
    arity = len(kinds)
    codes = tuple("I" if kind is str else _SCALAR_CODES[kind] for kind in kinds)
    sizes = tuple(struct.calcsize("<" + code) for code in codes)
    text_columns = tuple(i for i, kind in enumerate(kinds) if kind is str)
    bool_columns = tuple(i for i, kind in enumerate(kinds) if kind is bool)

    def pack(rows) -> bytes:
        count = len(rows)
        columns = list(zip(*rows, strict=True)) if count else [()] * arity
        if len(columns) != arity:
            raise CodecError(f"rows must have {arity} elements")
        parts = [_U32.pack(count)]
        if text_columns:
            # First-appearance order, so equal messages give equal bytes.
            table = dict.fromkeys(chain.from_iterable(columns[i] for i in text_columns))
            for position, text in enumerate(table):
                table[text] = position
            for index in text_columns:
                columns[index] = map(table.__getitem__, columns[index])
            parts.append(_U32.pack(len(table)))
            parts.extend(map(_pack_str, table))
        for code, column in zip(codes, columns):
            parts.append(struct.pack(f"<{count}{code}", *column))
        return b"".join(parts)

    def unpack(data: bytes, offset: int):
        count, offset = _read_u32(data, offset)
        if text_columns:
            entries, offset = _read_u32(data, offset)
            _check_count(data, offset, entries, 4)
            table = []
            for _ in range(entries):
                text, offset = _unpack_str(data, offset)
                table.append(text)
        columns = []
        for code, size in zip(codes, sizes):
            _check_count(data, offset, count, size)
            columns.append(struct.unpack_from(f"<{count}{code}", data, offset))
            offset += count * size
        for index in text_columns:
            indices = columns[index]
            if indices and max(indices) >= len(table):
                raise CodecError("string table index past the end of the table")
            columns[index] = map(table.__getitem__, indices)
        for index in bool_columns:
            _check_bools(columns[index])
            columns[index] = tuple(map(bool, columns[index]))
        return tuple(zip(*columns)), offset

    return _Codec(pack, unpack, 4 + (4 if text_columns else 0))


def _variable_tuple_codec(element: _Codec) -> _Codec:
    def pack(value) -> bytes:
        return _U32.pack(len(value)) + b"".join(
            element.pack(item) for item in value
        )

    def unpack(data: bytes, offset: int):
        count, offset = _read_u32(data, offset)
        _check_count(data, offset, count, element.min_size)
        items = []
        for _ in range(count):
            item, offset = element.unpack(data, offset)
            items.append(item)
        return tuple(items), offset

    return _Codec(pack, unpack, 4)


def _is_flat_record(annotation: Any) -> bool:
    """``Tuple[scalar | str, ...]`` with a fixed arity (a columnar row)."""
    if typing.get_origin(annotation) is not tuple:
        return False
    args = typing.get_args(annotation)
    return bool(args) and Ellipsis not in args and all(
        arg in _SCALAR_CODES or arg is str for arg in args
    )


def _compile(annotation: Any, where: str) -> _Codec:
    """The codec for one non-scalar annotation; :class:`TypeError` if none."""
    if annotation is str:
        return _STR
    if typing.get_origin(annotation) is tuple:
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            element = args[0]
            if element in _SCALAR_CODES:
                return _array_codec(_SCALAR_CODES[element])
            if _is_flat_record(element):
                return _columnar_codec(typing.get_args(element))
            return _variable_tuple_codec(_compile(element, where))
        if args and Ellipsis not in args:
            record = _Record(list(enumerate(args)), where)
            arity = len(args)

            def pack(value) -> bytes:
                if len(value) != arity:
                    raise CodecError(
                        f"{where}: expected a {arity}-tuple, got {len(value)} items"
                    )
                return record.pack(value)

            return _Codec(pack, record.unpack, record.min_size)
    raise TypeError(f"{where}: no wire encoding for annotation {annotation!r}")


class _Record:
    """A fixed sequence of values — a message's fields, a fixed tuple's
    elements — laid out in order: each run of consecutive scalars is one
    :class:`struct.Struct`, everything else goes through its own codec."""

    __slots__ = ("steps", "min_size", "flat")

    def __init__(self, annotations: List[Tuple[Any, Any]], where: str) -> None:
        #: ``(codec, start, stop)``: a run packs ``values[start:stop]``, a
        #: single codec (``stop is None``) packs ``values[start]``.
        self.steps: List[Tuple[Any, int, Optional[int]]] = []
        codes: List[str] = []
        for position, (name, annotation) in enumerate(annotations):
            if annotation in _SCALAR_CODES:
                codes.append(_SCALAR_CODES[annotation])
                continue
            self._close_run(codes, position)
            codes = []
            self.steps.append(
                (_compile(annotation, f"{where}.{name}"), position, None)
            )
        self._close_run(codes, len(annotations))
        self.min_size = sum(codec.min_size for codec, _, _ in self.steps)
        #: The one Struct covering every value, when there is one and it
        #: holds no bools (whose bytes need checking).
        self.flat: Optional[struct.Struct] = None
        if len(self.steps) == 1 and self.steps[0][2] is not None:
            run = self.steps[0][0]
            if not run.bools:
                self.flat = run.struct

    def _close_run(self, codes: List[str], stop: int) -> None:
        if codes:
            run = _ScalarRun(codes)
            self.steps.append((run, stop - len(codes), stop))

    def pack(self, values) -> bytes:
        parts = []
        for codec, start, stop in self.steps:
            if stop is None:
                parts.append(codec.pack(values[start]))
            else:
                parts.append(codec.pack(*values[start:stop]))
        return b"".join(parts)

    def unpack(self, data: bytes, offset: int) -> Tuple[tuple, int]:
        values: List[Any] = []
        for codec, _start, stop in self.steps:
            value, offset = codec.unpack(data, offset)
            if stop is None:
                values.append(value)
            else:
                values.extend(value)
        return tuple(values), offset


class _ScalarRun:
    """Consecutive scalars packed by one :class:`struct.Struct`."""

    __slots__ = ("struct", "pack", "bools", "min_size")

    def __init__(self, codes: List[str]) -> None:
        self.struct = struct.Struct("<" + "".join(codes))
        self.pack = self.struct.pack
        self.bools = tuple(i for i, code in enumerate(codes) if code == "B")
        self.min_size = self.struct.size

    def unpack(self, data: bytes, offset: int) -> Tuple[Any, int]:
        end = offset + self.struct.size
        if end > len(data):
            raise CodecError("frame truncated inside a scalar run")
        values = self.struct.unpack_from(data, offset)
        if self.bools:
            values = list(values)
            for index in self.bools:
                _check_bools((values[index],))
                values[index] = bool(values[index])
        return values, end


def _field_checker(annotation: Any):
    """A loose v1 validator derived from one dataclass field annotation.

    JSON carries no schema, so a v1 payload needs coarse shape checks:
    ints where the protocol expects node ids/sequence numbers, numbers
    where it expects floats, tuples where it expects sequences.  The
    constructor remains the last line of defence.
    """
    if annotation is bool:
        return lambda value: isinstance(value, bool)
    if annotation is int:
        return lambda value: isinstance(value, int) and not isinstance(value, bool)
    if annotation is float:
        return lambda value: (
            isinstance(value, (int, float)) and not isinstance(value, bool)
        )
    if annotation is str:
        return lambda value: isinstance(value, str)
    return lambda value: isinstance(value, tuple)


class _WireSpec:
    """One registered dataclass: its v2 frame codec and v1 validators."""

    __slots__ = ("cls", "fields", "checkers", "encode", "decode")

    def __init__(self, cls: Type) -> None:
        self.cls = cls
        name = cls.__name__
        if not name.isascii() or len(name) > 255:
            raise TypeError(f"wire tag {name!r} must be ASCII, at most 255 bytes")
        try:
            hints = typing.get_type_hints(cls)
        except Exception as error:  # noqa: BLE001 — any resolution failure
            raise TypeError(f"{name}: unresolvable annotations: {error}") from None
        fields = dataclasses.fields(cls)
        for field in fields:
            if not field.init:
                raise TypeError(f"{name}.{field.name}: init=False fields cannot travel")
        self.fields = tuple(field.name for field in fields)
        annotations = [(field, hints[field]) for field in self.fields]
        self.checkers = {
            field: _field_checker(annotation) for field, annotation in annotations
        }
        record = _Record(annotations, name)
        prefix = bytes((_V2_BYTE, len(name))) + name.encode("ascii")
        if len(self.fields) == 1:
            only = self.fields[0]
            getter = lambda message: (getattr(message, only),)  # noqa: E731
        elif self.fields:
            getter = operator.attrgetter(*self.fields)
        else:
            getter = lambda message: ()  # noqa: E731
        build = self.build

        if record.flat is not None:
            # The hot path (Notify, pings, heartbeats): one Struct call
            # each way and nothing else.
            pack = record.flat.pack
            unpack_from = record.flat.unpack_from
            size = len(prefix) + record.flat.size

            def encode(message) -> bytes:
                return prefix + pack(*getter(message))

            def decode(data: bytes, offset: int) -> Any:
                if len(data) != size:
                    raise CodecError(
                        f"{name}: frame is {len(data)} bytes, expected {size}"
                    )
                return build(unpack_from(data, offset))

        else:

            def encode(message) -> bytes:
                return prefix + record.pack(getter(message))

            def decode(data: bytes, offset: int) -> Any:
                values, offset = record.unpack(data, offset)
                if offset != len(data):
                    raise CodecError(f"{name}: {len(data) - offset} trailing bytes")
                return build(values)

        self.encode = encode
        self.decode = decode

    def build(self, values) -> Any:
        """``cls(*values)``; a constructor rejection is a :class:`CodecError`."""
        try:
            return self.cls(*values)
        except (TypeError, ValueError) as error:
            raise CodecError(f"{self.cls.__name__}: {error}") from None


#: Tag name -> spec (v1 lookups) and tag bytes -> spec (v2 lookups).
_REGISTRY: Dict[str, _WireSpec] = {}
_BY_TAG: Dict[bytes, _WireSpec] = {}
#: Class -> spec, the encoder's lookup.
_BY_CLASS: Dict[Type, _WireSpec] = {}


def register_wire_type(cls: Type) -> Type:
    """Register a dataclass for wire transport (usable as a decorator).

    The type name is the wire tag, so names must be unique across every
    registered namespace (protocol and control planes share one wire).
    Compiles the type's v2 frame layout; an annotation with no layout
    raises :class:`TypeError` here rather than on the first send.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"wire types must be dataclasses, got {cls!r}")
    name = cls.__name__
    existing = _REGISTRY.get(name)
    if existing is not None and existing.cls is not cls:
        raise ValueError(f"wire type name {name!r} already registered")
    clashes = {f.name for f in dataclasses.fields(cls)} & {"t", "v"}
    if clashes:
        # A field named 't' or 'v' would collide with the v1 envelope's
        # type tag or version, making v1 payloads of it ambiguous.
        raise ValueError(
            f"wire type {name!r} has reserved field name(s): "
            f"{', '.join(sorted(clashes))}"
        )
    spec = _WireSpec(cls)
    _REGISTRY[name] = spec
    _BY_TAG[name.encode("ascii")] = spec
    _BY_CLASS[cls] = spec
    return cls


def wire_types() -> Tuple[Type, ...]:
    """Every registered wire type, sorted by tag name."""
    return tuple(_REGISTRY[name].cls for name in sorted(_REGISTRY))


def encode(message: Any) -> bytes:
    """One registered message -> one v2 datagram payload."""
    spec = _BY_CLASS.get(type(message))
    if spec is None:
        raise CodecError(
            f"{type(message).__name__} is not a registered wire type"
        )
    try:
        return spec.encode(message)
    except CodecError:
        raise
    except _ENCODE_ERRORS as error:
        raise CodecError(
            f"cannot encode {type(message).__name__}: {error}"
        ) from None


def decode(data: bytes) -> Any:
    """One datagram payload -> the message it encodes.

    Accepts a v2 frame or a v1 JSON payload.  Raises :class:`CodecError`
    on anything that is not a well-formed payload of a registered type,
    and never raises anything else, so transports can treat
    ``CodecError`` as the single "drop this datagram" signal.
    """
    if len(data) > MAX_DATAGRAM_BYTES:
        raise CodecError(f"datagram too large ({len(data)} bytes)")
    if not data:
        raise CodecError("empty datagram")
    first = data[0]
    if first == _V2_BYTE:
        end = 2 + data[1] if len(data) > 1 else 2
        if end > len(data):
            raise CodecError("frame truncated inside the header")
        spec = _BY_TAG.get(data[2:end])
        if spec is None:
            raise CodecError(f"unknown wire type {data[2:end]!r}")
        try:
            return spec.decode(data, end)
        except struct.error as error:  # defensive: every read is bounds-checked
            raise CodecError(f"malformed frame: {error}") from None
    if first == _V1_BYTE:
        try:
            return _decode_v1(data)
        except RecursionError:
            # A few KB of b'{"a":[[[[...' exhausts the parser's stack; that
            # must be a counted drop like any other hostile payload.
            raise CodecError("datagram nesting too deep") from None
    raise CodecError(f"unknown wire version byte 0x{first:02x}")


def _to_native(value: Any) -> Any:
    """JSON arrays come back as tuples so decoded messages compare equal."""
    if isinstance(value, list):
        return tuple(_to_native(item) for item in value)
    return value


def _decode_v1(data: bytes) -> Any:
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as error:
        # JSONDecodeError, UnicodeDecodeError, and the ValueError json
        # raises for an integer literal past the interpreter's digit limit.
        raise CodecError(f"not a JSON datagram: {error}") from None
    if not isinstance(payload, dict):
        raise CodecError(f"payload must be an object, got {type(payload).__name__}")
    version = payload.pop("v", None)
    if version != _V1:
        raise CodecError(f"unsupported wire version {version!r}")
    tag = payload.pop("t", None)
    spec = _REGISTRY.get(tag) if isinstance(tag, str) else None
    if spec is None:
        raise CodecError(f"unknown wire type {tag!r}")
    expected = set(spec.fields)
    present = set(payload)
    if present != expected:
        missing = ", ".join(sorted(expected - present)) or "-"
        extra = ", ".join(sorted(present - expected)) or "-"
        raise CodecError(
            f"{tag}: field mismatch (missing: {missing}; unexpected: {extra})"
        )
    values = []
    for name in spec.fields:
        value = _to_native(payload[name])
        if not spec.checkers[name](value):
            raise CodecError(f"{tag}.{name}: implausible value {value!r}")
        values.append(value)
    return spec.build(values)


for _message_type in MESSAGE_TYPES:
    register_wire_type(_message_type)
del _message_type
