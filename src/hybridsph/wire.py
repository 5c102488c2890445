"""Binary codecs for every value that crosses the host/device boundary.

All multi-byte values are little-endian and packed with no padding: a record
of two 4-byte fields occupies exactly 8 bytes on the wire. Both sides agree
on the layout ahead of time, so no type tags or field descriptors are
emitted inside a value.

A codec is any object with two methods:

    serialize(value, out: bytearray) -> None   # appends the value's bytes
    deserialize(reader: ByteReader) -> value

``deserialize`` of what ``serialize`` appended must reproduce the value
bitwise (including NaN payloads and signed zeros). ``RecordCodec`` is how
value functors declare their wire layout: one ``struct`` format over a
dataclass's fields (``TupleCodec``: over a tuple). Reads go through
``ByteReader``, whose bounds checks guard bytes from the other process.

How items are framed into blocks is ``runtime``'s business
(``encode_block`` / ``decode_block``).
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Protocol

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class TruncatedInputError(Exception):
    """Read past the end of the source region."""


def encode_str(s: str) -> bytes:
    """A u32 byte count, then the UTF-8 bytes; ``ByteReader.read_str``
    reads it back."""
    raw = s.encode("utf-8")
    return _U32.pack(len(raw)) + raw


class ByteReader:
    """Forward-only cursor over a byte region.

    Every read consumes exactly the byte count the matching serialize
    produced; reading past the end raises :class:`TruncatedInputError`.

    A reader must not be used from two concurrent contexts.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes | bytearray | memoryview, pos: int = 0):
        self.data = data
        self.pos = pos

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def _take(self, size: int) -> int:
        start = self.pos
        if start + size > len(self.data):
            raise TruncatedInputError(
                f"need {size} bytes at offset {start}, only "
                f"{len(self.data) - start} remain"
            )
        self.pos = start + size
        return start

    def read_bytes(self, size: int) -> bytes:
        start = self._take(size)
        return bytes(self.data[start : start + size])

    def read_u32(self) -> int:
        return _U32.unpack_from(self.data, self._take(4))[0]

    def read_u64(self) -> int:
        return _U64.unpack_from(self.data, self._take(8))[0]

    def read_str(self) -> str:
        n = self.read_u32()
        return self.read_bytes(n).decode("utf-8")


class Codec(Protocol):
    def serialize(self, value: Any, out: bytearray) -> None: ...

    def deserialize(self, reader: ByteReader) -> Any: ...


class StructCodec:
    """Codec for a flat value backed by a single ``struct`` format."""

    __slots__ = ("_struct",)

    def __init__(self, fmt: str):
        self._struct = struct.Struct(fmt)

    def serialize(self, value: Any, out: bytearray) -> None:
        out += self._struct.pack(value)

    def deserialize(self, reader: ByteReader) -> Any:
        return self._struct.unpack(reader.read_bytes(self._struct.size))[0]


class TupleCodec(StructCodec):
    """Codec for a tuple of the fields of one ``struct`` format."""

    def serialize(self, value: tuple, out: bytearray) -> None:
        out += self._struct.pack(*value)

    def deserialize(self, reader: ByteReader) -> tuple:
        return self._struct.unpack(reader.read_bytes(self._struct.size))


class RecordCodec:
    """Codec for a dataclass: its fields, in declaration order, packed by
    one ``struct`` format (``RecordCodec("<dI", JitterSleepAction)``)."""

    __slots__ = ("_struct", "_cls", "_names")

    def __init__(self, fmt: str, cls: type):
        self._struct = struct.Struct(fmt)
        self._cls = cls
        self._names = [f.name for f in dataclasses.fields(cls)]

    def serialize(self, value: Any, out: bytearray) -> None:
        out += self._struct.pack(*[getattr(value, n) for n in self._names])

    def deserialize(self, reader: ByteReader) -> Any:
        return self._cls(*self._struct.unpack(
            reader.read_bytes(self._struct.size)))


I32_CODEC = StructCodec("<i")
I64_CODEC = StructCodec("<q")


# ---------------------------------------------------------------------------
# Functor registry
#
# A functor is the serializable action shipped to devices. Every functor
# class registers a codec under a stable wire name; the device looks the
# codec up by that name to rebuild its own copy of the functor (and whatever
# shared state it carries). Both processes must import the registering
# module, which is why the device worker imports hybridsph.functors and
# hybridsph.sph at startup.
# ---------------------------------------------------------------------------

_FUNCTOR_CODECS: dict[str, Codec] = {}


def register_functor(name: str, codec: Codec) -> None:
    existing = _FUNCTOR_CODECS.get(name)
    if existing is not None and existing is not codec:
        raise ValueError(f"functor name already registered: {name!r}")
    _FUNCTOR_CODECS[name] = codec


def functor_codec(name: str) -> Codec:
    try:
        return _FUNCTOR_CODECS[name]
    except KeyError:
        raise KeyError(
            f"no functor codec registered under {name!r}; the module defining "
            "it must be imported on both host and device"
        ) from None


def encode_functor(functor: Any) -> bytes:
    """Serialize a registered functor to its wire bytes (name not included)."""
    out = bytearray()
    functor_codec(functor.wire_name).serialize(functor, out)
    return bytes(out)


def decode_functor(name: str, payload: bytes | memoryview) -> Any:
    return functor_codec(name).deserialize(ByteReader(payload))
