"""Wire format: readers, codecs, layout stability."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsph import sph
from hybridsph.functors import AffineAction, JitterSleepAction, SleepAction
from hybridsph.sph import PARTICLE_CODEC, PARTICLE_WIRE_SIZE, Particle
from hybridsph.wire import (ByteReader, TruncatedInputError, TupleCodec,
                            decode_functor, encode_functor, encode_str)

from conftest import particle_bits


# Field-width tally, independent of the codec: id u64, material u32,
# then 12 doubles (pos, mass, density, pressure, vel, acc).
LAYOUT_WIDTHS = [8, 4] + [8] * 12


def sample_particle() -> Particle:
    return Particle(id=7, material=2, x=1.5, y=-2.25, z=0.125, mass=3.0,
                    density=0.75, pressure=1.25, vx=-0.5, vy=4.0, vz=-8.0,
                    ax=0.0625, ay=-1.0, az=2.5)


class TestByteReader:
    def test_reads_packed_values_and_encoded_str(self):
        data = struct.pack("<QI", 2**63 + 5, 2**32 - 7) + encode_str("nebula")
        assert data[12:] == b"\x06\x00\x00\x00nebula"
        r = ByteReader(data)
        assert r.read_u64() == 2**63 + 5
        assert r.read_u32() == 2**32 - 7
        assert r.read_str() == "nebula"
        assert r.remaining == 0

    def test_read_past_end_is_error(self):
        r = ByteReader(b"\x01\x02")
        with pytest.raises(TruncatedInputError):
            r.read_u32()

    def test_reads_consume_exact_counts(self):
        r = ByteReader(b"\x01\x00\x00\x00abc")
        assert r.read_u32() == 1
        assert r.read_bytes(3) == b"abc"
        with pytest.raises(TruncatedInputError):
            r.read_bytes(1)


class TestParticleLayout:
    def test_wire_size_matches_field_tally(self):
        assert sum(LAYOUT_WIDTHS) == PARTICLE_WIRE_SIZE == 108

    def test_serialize_emits_exactly_size_bytes(self):
        out = bytearray(b"head")
        PARTICLE_CODEC.serialize(sample_particle(), out)
        assert len(out) == 4 + 108
        assert out[:4] == b"head"  # appends, never rewrites

    def test_golden_bytes(self):
        # Layout stability: frozen byte string for a fixed record. Changing
        # the layout breaks devices, so this must never drift.
        out = bytearray()
        PARTICLE_CODEC.serialize(sample_particle(), out)
        expected = (
            struct.pack("<Q", 7) + struct.pack("<I", 2)
            + struct.pack("<12d", 1.5, -2.25, 0.125, 3.0, 0.75, 1.25,
                          -0.5, 4.0, -8.0, 0.0625, -1.0, 2.5))
        assert out == expected
        assert out.hex() == (
            "0700000000000000" "02000000"
            "000000000000f83f" "00000000000002c0" "000000000000c03f"
            "0000000000000840" "000000000000e83f" "000000000000f43f"
            "000000000000e0bf" "0000000000001040" "00000000000020c0"
            "000000000000b03f" "000000000000f0bf" "0000000000000440")

    def test_roundtrip_cursor_positions(self):
        out = bytearray()
        PARTICLE_CODEC.serialize(sample_particle(), out)
        r = ByteReader(bytes(out))
        q = PARTICLE_CODEC.deserialize(r)
        assert r.pos == 108
        assert particle_bits(q) == particle_bits(sample_particle())

    def test_truncated_record_is_error(self):
        out = bytearray()
        PARTICLE_CODEC.serialize(sample_particle(), out)
        r = ByteReader(bytes(out)[:100])
        with pytest.raises(TruncatedInputError):
            PARTICLE_CODEC.deserialize(r)


finite_or_weird = st.floats(allow_nan=True, allow_infinity=True, width=64)


# +-0.0, +-inf, NaNs with payloads (quiet, signalling, negative) and
# subnormals, as bit patterns.
SPECIAL_DOUBLES = [struct.unpack("<d", struct.pack("<Q", bits))[0]
                   for bits in (0x0000000000000000, 0x8000000000000000,
                                0x7FF0000000000000, 0xFFF0000000000000,
                                0x7FF8000000000000, 0x7FF0000000000001,
                                0xFFF80000DEADBEEF, 0x0000000000000001,
                                0x800FFFFFFFFFFFFF)]
wire_doubles = st.one_of(finite_or_weird, st.sampled_from(SPECIAL_DOUBLES))


@given(
    pid=st.integers(0, 2**64 - 1),
    material=st.integers(0, 2**32 - 1),
    fields=st.lists(wire_doubles, min_size=12, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_particle_roundtrip_bitwise(pid, material, fields):
    # Through PARTICLE_CODEC, and as the record array the state holds:
    # the array's bytes are the codec's record, field for field.
    p = Particle(pid, material, *fields)
    out = bytearray()
    PARTICLE_CODEC.serialize(p, out)
    assert len(out) == 108
    q = PARTICLE_CODEC.deserialize(ByteReader(bytes(out)))
    assert particle_bits(q) == particle_bits(p)
    array = sph.particle_array([p, q])
    assert array.dtype.itemsize == PARTICLE_WIRE_SIZE
    assert array.tobytes() == out + out
    assert particle_bits(array[1]) == particle_bits(p)


def test_special_float_values_roundtrip():
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan,
                struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf0\x7f")[0]]
    for v in specials:
        p = sample_particle()
        p.x = v
        out = bytearray()
        PARTICLE_CODEC.serialize(p, out)
        q = PARTICLE_CODEC.deserialize(ByteReader(bytes(out)))
        assert particle_bits(q) == particle_bits(p)


def assert_tuple_roundtrip(values: tuple) -> None:
    for fmt in ("<5d", "<3d"):
        k = struct.calcsize(fmt) // 8
        codec = TupleCodec(fmt)
        out = bytearray(b"head")
        codec.serialize(values[:k], out)
        assert out[4:] == struct.pack(fmt, *values[:k])
        r = ByteReader(bytes(out), 4)
        back = codec.deserialize(r)
        assert r.remaining == 0
        assert type(back) is tuple and len(back) == k
        assert struct.pack(fmt, *back) == out[4:]


def test_tuple_codec_special_values_roundtrip():
    specials = SPECIAL_DOUBLES
    for i in range(len(specials)):
        assert_tuple_roundtrip(tuple(specials[i:] + specials[:i]))


@given(st.lists(wire_doubles, min_size=5, max_size=5))
@settings(max_examples=300, deadline=None)
def test_tuple_codec_roundtrip_bitwise(values):
    assert_tuple_roundtrip(tuple(values))


class EmptyCodec:
    """Zero-field payload: serializes to nothing."""

    def serialize(self, value, out):
        pass

    def deserialize(self, reader):
        return ()


def test_empty_payload_emits_zero_bytes():
    out = bytearray()
    EmptyCodec().serialize((), out)
    assert len(out) == 0


class PairCodec:
    """Two 4-byte fields; must cost exactly 8 bytes on the wire."""

    def serialize(self, value, out):
        out += struct.pack("<II", *value)

    def deserialize(self, reader):
        return (reader.read_u32(), reader.read_u32())


def test_no_framing_overhead_inside_a_value():
    out = bytearray()
    PairCodec().serialize((3, 4), out)
    assert len(out) == 8
    assert PairCodec().deserialize(ByteReader(bytes(out))) == (3, 4)


# Value functor blobs: the fields in declaration order, packed with no
# padding (i32; f64; f64 then u32), pinned so the layouts cannot drift.
@pytest.mark.parametrize("functor, hex_bytes", [
    (AffineAction(3), "03000000"),
    (SleepAction(2.5e-4), "fca9f1d24d62303f"),
    (JitterSleepAction(5e-5, 7), "2d431cebe2360a3f" "07000000"),
], ids=["affine", "sleep", "jitter-sleep"])
def test_value_functor_wire_layout(functor, hex_bytes):
    payload = encode_functor(functor)
    assert payload.hex() == hex_bytes
    assert decode_functor(functor.wire_name, payload) == functor


def test_state_codec_size_matches_emitted_bytes():
    state = sph.make_scene(37, sph.SimParams(gravity_dims=(4, 4, 4)), seed=3)
    sph.phase1_prepare(state)
    out = bytearray()
    sph.SIM_STATE_CODEC.serialize(state, out)
    # Tallied from the layout: 14 param fields of 8 bytes, 3 f64 per gravity
    # cell (the params fix the cell count), the particle count (u64), then
    # one record per particle.
    expected = 14 * 8 + 3 * 8 * 4 ** 3 + 8 + 108 * 37
    assert len(out) == expected
    assert out.endswith(b"".join(particle_bits(p) for p in state.particles))
    back = sph.SIM_STATE_CODEC.deserialize(ByteReader(out))
    assert particle_bits(back.particles[5]) == particle_bits(state.particles[5])
    assert back.gravity.cells.tobytes() == state.gravity.cells.tobytes()
    # the receiving side rebuilds an identical index
    assert back.index.order == state.index.order
    assert back.index.start == state.index.start
    # The decoded arrays are writable and share no memory with the bytes
    # they came from: changing either leaves the other as it was.
    blob = bytes(out)
    back.particles.x[5] = 9.5
    back.gravity.cells[0, 0] = 9.5
    out[-108:] = bytes(108)
    assert bytes(out[:-108]) == blob[:-108]
    assert back.particles[36].tobytes() == blob[-108:]
    assert back.particles[5].x == 9.5
    assert back.gravity.cells[0, 0] == 9.5


@given(st.binary(max_size=64))
@settings(max_examples=100, deadline=None)
def test_writer_reader_raw_bytes_roundtrip(blob):
    r = ByteReader(struct.pack("<I", len(blob)) + blob)
    assert r.read_bytes(r.read_u32()) == blob
