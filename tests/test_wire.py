"""Property tests of the service wire protocol (``repro.service.wire``).

Four guarantees, fuzzed per codec:

* **round trip** — ``decode(encode(x))`` reconstructs ``x`` bit for bit
  (float64 coordinates, int ids, labels, strings);
* **typed failure** — every truncated or corrupted buffer raises a
  :class:`~repro.service.wire.WireError` subclass (never a hang, never a
  silently wrong object, never a raw ``struct.error`` escaping);
* **fixed bytes** — the model payloads and the accounting ``to_bytes``
  equal golden hex pinned from the per-record ``struct`` codecs;
* **one layout** — the packed codecs give the bytes and the columns of
  those ``struct`` codecs (``tests/wire_oracle.py``) on generated models.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import GlobalModel, LocalModel
from repro.service import wire
from tests import wire_oracle
from tests.model_rows import Row, global_model, local_model, rows_of

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
positive = st.floats(
    allow_nan=False, allow_infinity=False, min_value=1e-9, max_value=1e9
)
int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
uint31 = st.integers(min_value=0, max_value=2**31 - 1)
frame_kinds = st.sampled_from(list(wire.FrameKind))


#: Coordinates with the bit patterns a value compare would blur: signed
#: zeros, subnormals and the extremes of the finite range.
edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308]
)


@st.composite
def representatives(
    draw, dim: int, site_id: int | None = None, coordinates=finite
):
    return Row(
        point=tuple(draw(st.lists(coordinates, min_size=dim, max_size=dim))),
        eps_range=draw(positive),
        site_id=draw(int32) if site_id is None else site_id,
        local_cluster_id=draw(int32),
    )


@st.composite
def local_models(draw, max_dim=4, max_size=8, coordinates=finite):
    site_id = draw(st.integers(min_value=0, max_value=2**31 - 1))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    reps = draw(
        st.lists(
            representatives(dim, site_id=site_id, coordinates=coordinates),
            min_size=0,
            max_size=max_size,
        )
    )
    return local_model(
        site_id,
        reps,
        n_objects=draw(st.integers(min_value=0, max_value=2**40)),
        scheme=draw(st.sampled_from(["rep_scor", "rep_kmeans", "custom-σ"])),
        eps_local=draw(positive),
        min_pts_local=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@st.composite
def global_models(draw, max_dim=4, max_size=8, coordinates=finite):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    reps = draw(
        st.lists(
            representatives(dim, coordinates=coordinates),
            min_size=0,
            max_size=max_size,
        )
    )
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**40),
            min_size=len(reps),
            max_size=len(reps),
        )
    )
    return global_model(
        reps,
        labels,
        eps_global=draw(positive),
        min_pts_global=draw(st.integers(min_value=1, max_value=100)),
    )


def assert_columns_equal(a, b, names=("points", "eps_ranges", "site_ids",
                                      "local_cluster_ids")) -> None:
    """Exact: float64 and int columns on both sides, bit for bit."""
    for name in names:
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


# ----------------------------------------------------------------------
# frame layer
# ----------------------------------------------------------------------


class TestFrameRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(kind=frame_kinds, site_id=int32, payload=st.binary(max_size=256))
    def test_roundtrip(self, kind, site_id, payload):
        data = wire.encode_frame(kind, payload, site_id=site_id)
        frame, consumed = wire.decode_frame(data)
        assert consumed == len(data)
        assert frame.kind == kind
        assert frame.site_id == site_id
        assert frame.payload == payload
        assert frame.crc_ok

    @settings(max_examples=30, deadline=None)
    @given(
        kind=frame_kinds,
        payload=st.binary(min_size=1, max_size=64),
        trailer=st.binary(min_size=1, max_size=32),
    )
    def test_offset_walks_concatenated_frames(self, kind, payload, trailer):
        data = wire.encode_frame(kind, payload) + wire.encode_frame(
            wire.FrameKind.ACK, trailer, site_id=3
        )
        first, offset = wire.decode_frame(data)
        second, end = wire.decode_frame(data, offset=offset)
        assert first.payload == payload
        assert second.payload == trailer
        assert second.site_id == 3
        assert end == len(data)

    @settings(max_examples=60, deadline=None)
    @given(kind=frame_kinds, payload=st.binary(max_size=128), data=st.data())
    def test_every_truncation_raises_frame_truncated(self, kind, payload, data):
        frame = wire.encode_frame(kind, payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(wire.FrameTruncated):
            wire.decode_frame(frame[:cut])

    @settings(max_examples=120, deadline=None)
    @given(kind=frame_kinds, payload=st.binary(max_size=128), data=st.data())
    def test_single_byte_corruption_is_typed_or_visible(self, kind, payload, data):
        frame = bytearray(wire.encode_frame(kind, payload, site_id=7))
        index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        frame[index] ^= flip
        try:
            decoded, __ = wire.decode_frame(bytes(frame))
        except wire.WireError:
            return  # typed rejection is the expected outcome
        # The only survivable flips hit the unchecksummed header fields
        # (kind byte to another valid kind, or the sender site id) — the
        # payload itself is always CRC-guarded.
        assert decoded.payload == payload
        assert (decoded.kind, decoded.site_id) != (wire.FrameKind(kind), 7)

    def test_payload_cap_rejects_before_allocating(self):
        header = wire.encode_frame(wire.FrameKind.ACK, b"x" * 10)[
            : wire.HEADER_SIZE
        ]
        with pytest.raises(wire.FrameTooLarge):
            wire.decode_frame(header + b"x" * 10, max_payload=4)

    def test_verify_crc_false_reports_instead_of_raising(self):
        data = bytearray(wire.encode_frame(wire.FrameKind.LOCAL_MODEL, b"abc"))
        data[-1] ^= 0xFF  # flip a payload byte
        with pytest.raises(wire.ChecksumMismatch):
            wire.decode_frame(bytes(data))
        frame, __ = wire.decode_frame(bytes(data), verify_crc=False)
        assert not frame.crc_ok

    def test_bad_magic_version_kind_are_distinct_errors(self):
        good = wire.encode_frame(wire.FrameKind.ACK, b"")
        with pytest.raises(wire.BadMagic):
            wire.decode_frame(b"XXXX" + good[4:])
        with pytest.raises(wire.UnsupportedVersion):
            wire.decode_frame(good[:4] + b"\xff" + good[5:])
        with pytest.raises(wire.UnknownFrameKind):
            wire.decode_frame(good[:5] + b"\xf7" + good[6:])


# ----------------------------------------------------------------------
# trace context (version-2 frames)
# ----------------------------------------------------------------------

trace_ids = st.integers(min_value=0, max_value=2**128 - 1)
span_ids = st.integers(min_value=0, max_value=2**64 - 1)
flag_bytes = st.integers(min_value=0, max_value=255)


def trace_contexts():
    return st.builds(
        wire.TraceContext, trace_id=trace_ids, span_id=span_ids,
        flags=flag_bytes,
    )


class TestTraceContext:
    @settings(max_examples=80, deadline=None)
    @given(context=trace_contexts())
    def test_codec_roundtrip(self, context):
        block = wire.encode_trace_context(context)
        assert len(block) == wire.TRACE_CONTEXT_SIZE
        decoded = wire.decode_trace_context(block)
        assert decoded == context
        assert decoded.sampled == bool(context.flags & wire.TRACE_FLAG_SAMPLED)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=frame_kinds,
        site_id=int32,
        payload=st.binary(max_size=256),
        context=trace_contexts(),
    )
    def test_context_frame_roundtrip(self, kind, site_id, payload, context):
        data = wire.encode_frame(
            kind, payload, site_id=site_id, context=context
        )
        frame, consumed = wire.decode_frame(data)
        assert consumed == len(data)
        assert frame.kind == kind
        assert frame.site_id == site_id
        assert frame.payload == payload
        assert frame.context == context
        assert frame.crc_ok

    @settings(max_examples=60, deadline=None)
    @given(kind=frame_kinds, payload=st.binary(max_size=256))
    def test_no_context_emits_version1_bits(self, kind, payload):
        # The untraced path must stay byte-identical to the v1 protocol:
        # context=None is not "an empty context", it is the old frame.
        plain = wire.encode_frame(kind, payload, site_id=5)
        explicit = wire.encode_frame(kind, payload, site_id=5, context=None)
        assert plain == explicit
        assert plain[4] == wire.PROTOCOL_VERSION
        frame, __ = wire.decode_frame(plain)
        assert frame.context is None

    @settings(max_examples=80, deadline=None)
    @given(
        kind=frame_kinds,
        payload=st.binary(max_size=128),
        context=trace_contexts(),
        data=st.data(),
    )
    def test_every_truncation_raises_wire_error(
        self, kind, payload, context, data
    ):
        frame = wire.encode_frame(kind, payload, context=context)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(wire.WireError):
            wire.decode_frame(frame[:cut])

    def test_context_survives_crc_quarantine(self):
        # The server decodes with verify_crc=False so corrupted frames
        # still carry their trace context into the quarantine verdict.
        context = wire.TraceContext(trace_id=7, span_id=9, flags=1)
        data = bytearray(
            wire.encode_frame(wire.FrameKind.LOCAL_MODEL, b"abc",
                              context=context)
        )
        data[-1] ^= 0xFF  # flip a payload byte; context block is earlier
        frame, __ = wire.decode_frame(bytes(data), verify_crc=False)
        assert not frame.crc_ok
        assert frame.context == context

    def test_bad_context_length_is_codec_error(self):
        good = wire.encode_frame(
            wire.FrameKind.ACK, b"", context=wire.TraceContext(1, 2, 1)
        )
        bad = bytearray(good)
        bad[wire.HEADER_SIZE] = 7  # ctx_len byte: not TRACE_CONTEXT_SIZE
        with pytest.raises(wire.CodecError):
            wire.decode_frame(bytes(bad))

    def test_out_of_range_ids_raise_value_error(self):
        with pytest.raises(ValueError):
            wire.encode_trace_context(wire.TraceContext(2**128, 0, 0))
        with pytest.raises(ValueError):
            wire.encode_trace_context(wire.TraceContext(0, 2**64, 0))
        with pytest.raises(ValueError):
            wire.encode_trace_context(wire.TraceContext(0, 0, 256))
        with pytest.raises(wire.CodecError):
            wire.decode_trace_context(b"\x00" * 7)


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------


class TestCodecRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(model=local_models())
    def test_local_model(self, model):
        decoded = wire.decode_local_model(wire.encode_local_model(model))
        assert decoded.site_id == model.site_id
        assert decoded.n_objects == model.n_objects
        assert decoded.scheme == model.scheme
        assert decoded.eps_local == model.eps_local
        assert decoded.min_pts_local == model.min_pts_local
        assert len(decoded) == len(model)
        assert_columns_equal(decoded, model)
        assert decoded == model

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=20),
        dim=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_points(self, rows, dim, data):
        flat = data.draw(
            st.lists(finite, min_size=rows * dim, max_size=rows * dim)
        )
        points = np.asarray(flat, dtype=float).reshape(rows, dim)
        decoded = wire.decode_points(wire.encode_points(points))
        assert decoded.shape == points.shape
        assert np.array_equal(decoded, points)

    @settings(max_examples=50, deadline=None)
    @given(
        labels=st.lists(
            st.integers(min_value=-1, max_value=2**40), max_size=64
        )
    )
    def test_labels(self, labels):
        array = np.asarray(labels, dtype=np.intp)
        decoded = wire.decode_labels(wire.encode_labels(array))
        assert decoded.dtype == np.intp
        assert np.array_equal(decoded, array)

    @settings(max_examples=40, deadline=None)
    @given(
        document=st.dictionaries(
            st.text(max_size=10),
            st.one_of(st.integers(), st.text(max_size=10), st.booleans(), st.none()),
            max_size=6,
        )
    )
    def test_json(self, document):
        assert wire.decode_json(wire.encode_json(document)) == document

    @settings(max_examples=40, deadline=None)
    @given(status=st.text(max_size=40), detail=st.text(max_size=120))
    def test_status(self, status, detail):
        assert wire.decode_status(wire.encode_status(status, detail)) == (
            status,
            detail,
        )


class TestStatusDurabilityExt:
    """The 16-byte epoch/retry-after status extension (ISSUE 10)."""

    def test_round_trip_both_fields(self):
        payload = wire.encode_status(
            "overloaded", "busy", epoch=3, retry_after_s=0.05
        )
        assert wire.decode_status_ext(payload) == (
            "overloaded",
            "busy",
            3,
            0.05,
        )

    def test_epoch_only(self):
        payload = wire.encode_status("admitted", epoch=1)
        assert wire.decode_status_ext(payload) == ("admitted", "", 1, None)

    def test_retry_after_only(self):
        payload = wire.encode_status("overloaded", retry_after_s=0.25)
        assert wire.decode_status_ext(payload) == (
            "overloaded",
            "",
            None,
            0.25,
        )

    def test_bare_payload_decodes_without_ext(self):
        payload = wire.encode_status("ok", "detail")
        assert wire.decode_status_ext(payload) == ("ok", "detail", None, None)

    def test_plain_decoder_tolerates_and_drops_ext(self):
        """Pre-durability clients keep interoperating: decode_status on
        an extended payload returns just the strings."""
        payload = wire.encode_status("admitted", "d", epoch=5, retry_after_s=0.1)
        assert wire.decode_status(payload) == ("admitted", "d")

    @pytest.mark.parametrize("extra", [1, 8, 15, 17])
    def test_wrong_trailing_byte_count_is_typed(self, extra):
        payload = wire.encode_status("ok", "d") + b"\x00" * extra
        with pytest.raises(wire.CodecError):
            wire.decode_status_ext(payload)
        with pytest.raises(wire.CodecError):
            wire.decode_status(payload)

    def test_epoch_zero_is_the_no_epoch_sentinel(self):
        payload = wire.encode_status("ok", retry_after_s=0.5)
        __, __, epoch, __ = wire.decode_status_ext(payload)
        assert epoch is None

    @settings(max_examples=40, deadline=None)
    @given(
        status=st.text(max_size=40),
        detail=st.text(max_size=120),
        epoch=st.integers(min_value=1, max_value=2**62),
        retry=st.floats(
            allow_nan=False, allow_infinity=False, min_value=0.0, max_value=60.0
        ),
    )
    def test_ext_property(self, status, detail, epoch, retry):
        payload = wire.encode_status(
            status, detail, epoch=epoch, retry_after_s=retry
        )
        got = wire.decode_status_ext(payload)
        assert got[0] == status and got[1] == detail
        assert got[2] == epoch
        assert got[3] == retry
        assert wire.decode_status(payload) == (status, detail)


# ----------------------------------------------------------------------
# streaming-session codecs (ROUND_OPEN / ROUND_COMMIT / MODEL_DELTA)
# ----------------------------------------------------------------------


class TestSessionCodecs:
    @settings(max_examples=50, deadline=None)
    @given(round_index=int32)
    def test_round_open_and_commit(self, round_index):
        assert (
            wire.decode_round_open(wire.encode_round_open(round_index))
            == round_index
        )
        assert (
            wire.decode_round_commit(wire.encode_round_commit(round_index))
            == round_index
        )

    @settings(max_examples=50, deadline=None)
    @given(
        round_index=int32,
        known=uint31,
        timeout=st.floats(allow_nan=False, min_value=0.0, max_value=1e6),
    )
    def test_delta_request(self, round_index, known, timeout):
        decoded = wire.decode_delta_request(
            wire.encode_delta_request(round_index, known, timeout)
        )
        assert decoded == (round_index, known, timeout)

    @pytest.mark.parametrize("timeout", [float("nan"), -1.0, -float("inf")])
    def test_delta_request_refuses_a_nan_or_negative_timeout(self, timeout):
        payload = wire.encode_delta_request(0, 0, timeout)
        with pytest.raises(wire.CodecError, match="timeout must be >= 0"):
            wire.decode_delta_request(payload)

    @pytest.mark.parametrize("timeout", [0.0, float("inf")])
    def test_delta_request_takes_a_poll_and_an_unbounded_wait(self, timeout):
        payload = wire.encode_delta_request(0, 0, timeout)
        assert wire.decode_delta_request(payload) == (0, 0, timeout)

    @settings(max_examples=50, deadline=None)
    @given(model=global_models(), data=st.data())
    def test_model_delta_reconstructs_the_model(self, model, data):
        known = data.draw(st.integers(min_value=0, max_value=len(model)))
        delta = wire.delta_from_model(model, known)
        decoded = wire.decode_model_delta(wire.encode_model_delta(delta))
        assert decoded.base_count == known
        assert decoded.eps_global == delta.eps_global
        assert decoded.min_pts_global == delta.min_pts_global
        assert np.array_equal(decoded.labels, model.global_labels)
        assert len(decoded.eps_ranges) == len(model) - known
        tail = global_model(rows_of(model)[known:], model.global_labels[known:])
        assert_columns_equal(decoded, tail)
        known_model = None
        if known:
            known_model = global_model(
                rows_of(model)[:known],
                model.global_labels[:known],
                eps_global=model.eps_global,
                min_pts_global=model.min_pts_global,
            )
        rebuilt = wire.apply_model_delta(known_model, decoded)
        assert np.array_equal(rebuilt.global_labels, model.global_labels)
        assert rebuilt.eps_global == model.eps_global
        assert len(rebuilt) == len(model)
        assert_columns_equal(rebuilt, model)
        assert rebuilt == model

    def test_known_reps_out_of_range_rejected_both_ends(self):
        model = _two_rep_model()
        with pytest.raises(ValueError):
            wire.delta_from_model(model, 3)
        with pytest.raises(ValueError):
            wire.delta_from_model(model, -1)

    def test_prefix_mismatch_is_a_typed_error(self):
        model = _two_rep_model()
        delta = wire.delta_from_model(model, 1)
        # A client holding nothing cannot apply a delta built on one rep.
        with pytest.raises(wire.CodecError):
            wire.apply_model_delta(None, delta)

    def test_a_delta_of_another_dimensionality_is_a_typed_error(self):
        deep = global_model(
            [Row((float(i), 0.0, 0.0), 1.0, i, 0) for i in range(3)], [0, 1, 2]
        )
        with pytest.raises(wire.CodecError, match="dimensionality 3"):
            wire.apply_model_delta(_two_rep_model(), wire.delta_from_model(deep, 2))

    @settings(max_examples=60, deadline=None)
    @given(kind=frame_kinds, site_id=int32, payload=st.binary(max_size=256))
    def test_declared_payload_len_matches_actual_payload(
        self, kind, site_id, payload
    ):
        frame = wire.encode_frame(kind, payload, site_id=site_id)
        assert wire.declared_payload_len(frame[: wire.HEADER_SIZE]) == len(
            payload
        )

    def test_declared_payload_len_rejects_short_header(self):
        with pytest.raises(wire.FrameTruncated):
            wire.declared_payload_len(b"DBDC\x01")


def _two_rep_model() -> GlobalModel:
    return global_model(
        [Row((float(i), 0.0), 1.0, i, 0) for i in range(2)],
        [0, 1],
        eps_global=2.0,
    )


#: (encoder-of-sample, decoder) pairs driving the shared fuzz cases.
CODEC_SAMPLES = [
    (
        "local_model",
        lambda: wire.encode_local_model(
            local_model(
                1,
                [Row((0.5, -1.5), 0.75, 1, 0)],
                n_objects=10,
                scheme="rep_scor",
                eps_local=1.2,
                min_pts_local=4,
            )
        ),
        wire.decode_local_model,
    ),
    ("points", lambda: wire.encode_points(np.ones((3, 2))), wire.decode_points),
    (
        "labels",
        lambda: wire.encode_labels(np.asarray([0, 1, -1], dtype=np.intp)),
        wire.decode_labels,
    ),
    ("status", lambda: wire.encode_status("ok", "detail"), wire.decode_status),
    ("round_open", lambda: wire.encode_round_open(3), wire.decode_round_open),
    (
        "round_commit",
        lambda: wire.encode_round_commit(3),
        wire.decode_round_commit,
    ),
    (
        "delta_request",
        lambda: wire.encode_delta_request(1, 4, 5.0),
        wire.decode_delta_request,
    ),
    (
        "model_delta",
        lambda: wire.encode_model_delta(
            wire.delta_from_model(_two_rep_model(), 1)
        ),
        wire.decode_model_delta,
    ),
]


class TestCodecFuzz:
    @pytest.mark.parametrize(
        "name,encode,decode", CODEC_SAMPLES, ids=[c[0] for c in CODEC_SAMPLES]
    )
    def test_every_truncation_raises_typed(self, name, encode, decode):
        payload = encode()
        for cut in range(len(payload)):
            with pytest.raises(wire.WireError):
                decode(payload[:cut])

    @pytest.mark.parametrize(
        "name,encode,decode", CODEC_SAMPLES, ids=[c[0] for c in CODEC_SAMPLES]
    )
    def test_trailing_garbage_raises_typed(self, name, encode, decode):
        payload = encode() + b"\x00garbage"
        with pytest.raises(wire.WireError):
            decode(payload)

    @settings(max_examples=120, deadline=None)
    @given(junk=st.binary(max_size=200))
    def test_arbitrary_bytes_never_escape_wire_errors(self, junk):
        for __, __encode, decode in CODEC_SAMPLES:
            try:
                decode(junk)
            except wire.WireError:
                pass  # the only acceptable failure mode

    def test_corrupted_representative_is_rejected_not_poisonous(self):
        # A NaN coordinate or non-positive eps_range must never survive
        # decoding — the model layer's validation runs at construction
        # and the codec wraps it in CodecError.
        model = local_model(
            0,
            [Row((1.0, 2.0), 1.0, 0, 0)],
            n_objects=5,
            scheme="rep_scor",
            eps_local=1.0,
            min_pts_local=3,
        )
        payload = bytearray(wire.encode_local_model(model))
        # Overwrite the eps_range float (first record field after the
        # int32 local_cluster_id) with -1.0.
        offset = len(payload) - 3 * 8 - 4 + 4
        payload[offset : offset + 8] = np.float64(-1.0).tobytes()
        with pytest.raises(wire.CodecError):
            wire.decode_local_model(bytes(payload))


class TestSharedIntegrityHelpers:
    @settings(max_examples=60, deadline=None)
    @given(payload=st.binary(max_size=256))
    def test_stamp_and_verify_agree(self, payload):
        from repro.faults.integrity import crc_matches, payload_crc32

        stamp = payload_crc32(payload)
        assert 0 <= stamp <= 0xFFFFFFFF
        assert crc_matches(payload, stamp)
        assert crc_matches(payload, stamp | (1 << 32))  # masked like zlib

    @settings(max_examples=60, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=256), data=st.data())
    def test_any_bit_flip_is_caught(self, payload, data):
        from repro.faults.integrity import crc_matches, payload_crc32

        stamp = payload_crc32(payload)
        index = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        corrupted = bytearray(payload)
        corrupted[index] ^= flip
        assert not crc_matches(bytes(corrupted), stamp)

    def test_simulated_network_uses_the_shared_stamp(self):
        from repro.distributed.network import SimulatedNetwork
        from repro.faults.integrity import payload_crc32

        message = SimulatedNetwork().send(0, -1, "local_model", b"payload")
        assert message.payload_crc == payload_crc32(b"payload")
        assert message.payload_crc == wire.payload_crc32(b"payload")


# ----------------------------------------------------------------------
# golden bytes: the model layouts, pinned from the per-record codecs
# ----------------------------------------------------------------------

#: Local models by name: (site id, rows, n_objects, scheme, eps_local,
#: min_pts_local).  Ids span int32, coordinates include -0.0, a
#: subnormal and 1e300.
GOLDEN_LOCAL = {
    "local_1d": (3, [Row((1.5,), 0.25, 3, 0), Row((-0.0,), 2.0, 3, 7)],
                 40, "rep_scor", 0.5, 4),
    "local_2d": (0, [Row((0.5, -1.5), 0.75, 0, 2**31 - 1),
                     Row((5e-324, 1e300), 1e-9, 0, -(2**31)),
                     Row((2.0, 3.0), 3.5, 0, 0)],
                 10, "rep_kmeans", 1.2, 5),
    "local_3d": (2**31 - 1, [Row((1.0, 2.0, 3.0), 0.125, 2**31 - 1, 1)],
                 1, "custom-σ", 0.3, 2),
    "local_empty": (5, [], 0, "rep_scor", 1.0, 3),
}
#: Global models by name: (rows, labels, eps_global, min_pts_global).
GOLDEN_GLOBAL = {
    "global_1d": ([Row((3.0,), 1.0, 0, 0), Row((4.5,), 1.0, 1, 0)], [1, 0], 1.5, 2),
    "global_2d": ([Row((0.5, -1.5), 1.0, 0, 3),
                   Row((-0.0, 2.25), 0.5, 1, -(2**31)),
                   Row((1e-310, 4.0), 2.0, 2**31 - 1, 0)],
                  [0, 0, 2**40], 2.5, 2),
    "global_3d": ([Row((1.0, 2.0, 3.0), 0.5, 7, 1), Row((4.0, 5.0, 6.0), 0.75, 8, 2)],
                  [5, 6], 3.0, 3),
    "global_empty": ([], [], 0.0, 2),
}


def _golden_local(name: str) -> LocalModel:
    site_id, rows, n_objects, scheme, eps_local, min_pts = GOLDEN_LOCAL[name]
    return local_model(site_id, rows, n_objects, scheme, eps_local, min_pts)


def _golden_global(name: str) -> GlobalModel:
    rows, labels, eps_global, min_pts = GOLDEN_GLOBAL[name]
    return global_model(rows, labels, eps_global, min_pts)


GOLDEN_LOCAL_MODEL = {
    "local_1d": (
        "030000002800000000000000000000000000e03f040000000200000001000000"
        "08007265705f73636f7200000000000000000000d03f000000000000f83f0700"
        "000000000000000000400000000000000080"
    ),
    "local_2d": (
        "000000000a00000000000000333333333333f33f050000000300000002000000"
        "0a007265705f6b6d65616e73ffffff7f000000000000e83f000000000000e03f"
        "000000000000f8bf0000008095d626e80b2e113e01000000000000009c750088"
        "3ce4377e000000000000000000000c4000000000000000400000000000000840"
    ),
    "local_3d": (
        "ffffff7f0100000000000000333333333333d33f020000000100000003000000"
        "0900637573746f6d2dcf8301000000000000000000c03f000000000000f03f00"
        "000000000000400000000000000840"
    ),
    "local_empty": (
        "050000000000000000000000000000000000f03f030000000000000000000000"
        "08007265705f73636f72"
    ),
}
#: (model, base_count) → MODEL_DELTA payload; base 3 of ``global_2d``
#: is an empty tail, whose header says dimensionality 0.
GOLDEN_MODEL_DELTA = {
    ("global_2d", 0): (
        "0000000000000440020000000000000003000000020000000000000003000000"
        "000000000000f03f000000000000e03f000000000000f8bf0100000000000080"
        "000000000000e03f00000000000000800000000000000240ffffff7f00000000"
        "00000000000000402be6708b6812000000000000000010400000000000000000"
        "00000000000000000000000000010000"
    ),
    ("global_2d", 2): (
        "000000000000044002000000020000000100000002000000ffffff7f00000000"
        "00000000000000402be6708b6812000000000000000010400000000000000000"
        "00000000000000000000000000010000"
    ),
    ("global_2d", 3): (
        "0000000000000440020000000300000000000000000000000000000000000000"
        "00000000000000000000000000010000"
    ),
    ("global_3d", 1): (
        "0000000000000840030000000100000001000000030000000800000002000000"
        "000000000000e83f000000000000104000000000000014400000000000001840"
        "05000000000000000600000000000000"
    ),
    ("global_empty", 0): "000000000000000002000000000000000000000000000000",
    ("global_1d", 0): (
        "000000000000f83f020000000000000002000000010000000000000000000000"
        "000000000000f03f00000000000008400100000000000000000000000000f03f"
        "000000000000124001000000000000000000000000000000"
    ),
}
GOLDEN_LOCAL_TO_BYTES = {
    "local_1d": (
        "03000000020000000100000000000000000000000000d03f000000000000f83f"
        "0700000000000000000000400000000000000080"
    ),
    "local_3d": (
        "ffffff7f010000000300000001000000000000000000c03f000000000000f03f"
        "00000000000000400000000000000840"
    ),
    "local_empty": "050000000000000000000000",
}
GOLDEN_GLOBAL_TO_BYTES = {
    "global_1d": (
        "00000000020000000100000001000000000000000000f03f0000000000000840"
        "00000000000000000000f03f0000000000001240"
    ),
    "global_3d": (
        "00000000020000000300000005000000000000000000e03f000000000000f03f"
        "0000000000000040000000000000084006000000000000000000e83f00000000"
        "0000104000000000000014400000000000001840"
    ),
    "global_empty": "000000000000000000000000",
}


class TestGoldenBytes:
    """Every model payload is byte-identical to the per-record ``struct``
    layout it replaced, and decodes back to the model it came from."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_LOCAL_MODEL))
    def test_local_model(self, name):
        model = _golden_local(name)
        payload = wire.encode_local_model(model)
        assert payload.hex() == GOLDEN_LOCAL_MODEL[name]
        assert wire.decode_local_model(payload) == model

    @pytest.mark.parametrize(
        "name,known", sorted(GOLDEN_MODEL_DELTA), ids=str
    )
    def test_model_delta(self, name, known):
        model = _golden_global(name)
        payload = wire.encode_model_delta(wire.delta_from_model(model, known))
        assert payload.hex() == GOLDEN_MODEL_DELTA[(name, known)]
        prefix = global_model(
            rows_of(model)[:known], model.global_labels[:known],
            model.eps_global, model.min_pts_global,
        )
        decoded = wire.decode_model_delta(payload)
        assert decoded.base_count == known
        assert wire.apply_model_delta(prefix if known else None, decoded) == model

    @pytest.mark.parametrize("name", sorted(GOLDEN_LOCAL_TO_BYTES))
    def test_local_model_to_bytes(self, name):
        model = _golden_local(name)
        assert model.to_bytes().hex() == GOLDEN_LOCAL_TO_BYTES[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_GLOBAL_TO_BYTES))
    def test_global_model_to_bytes(self, name):
        model = _golden_global(name)
        assert model.to_bytes().hex() == GOLDEN_GLOBAL_TO_BYTES[name]


# ----------------------------------------------------------------------
# the packed codecs against the per-record struct oracle
# ----------------------------------------------------------------------

oracle_coordinates = st.one_of(finite, edge_floats)
ORACLE_SETTINGS = settings(max_examples=60, deadline=None)


class TestAgainstTheStructOracle:
    @ORACLE_SETTINGS
    @given(model=local_models(max_dim=5, max_size=50, coordinates=oracle_coordinates))
    def test_local_model(self, model):
        payload = wire.encode_local_model(model)
        assert payload == wire_oracle.encode_local_model(model)
        header, columns = wire_oracle.decode_local_model(payload)
        decoded = wire.decode_local_model(payload)
        assert header == (
            decoded.site_id, decoded.n_objects, decoded.eps_local,
            decoded.min_pts_local, decoded.scheme,
        )
        assert_columns_equal(decoded, _namespace(columns),
                             ("points", "eps_ranges", "local_cluster_ids"))

    @ORACLE_SETTINGS
    @given(
        model=global_models(max_dim=5, max_size=50, coordinates=oracle_coordinates),
        data=st.data(),
    )
    def test_model_delta(self, model, data):
        known = data.draw(st.integers(min_value=0, max_value=len(model)))
        delta = wire.delta_from_model(model, known)
        payload = wire.encode_model_delta(delta)
        assert payload == wire_oracle.encode_model_delta(delta)
        header, columns = wire_oracle.decode_model_delta(payload)
        decoded = wire.decode_model_delta(payload)
        assert header == (decoded.eps_global, decoded.min_pts_global, known)
        assert_columns_equal(
            decoded, _namespace(columns),
            ("points", "eps_ranges", "site_ids", "local_cluster_ids", "labels"),
        )

    @ORACLE_SETTINGS
    @given(model=local_models(max_dim=5, max_size=50, coordinates=oracle_coordinates))
    def test_accounting_bytes(self, model):
        ids = np.abs(model.local_cluster_ids)
        unsigned = LocalModel(
            model.site_id, model.points, model.eps_ranges, ids,
            model.n_objects, model.scheme, model.eps_local, model.min_pts_local,
        )
        assert unsigned.to_bytes() == wire_oracle.accounting_bytes(
            model.site_id, ids, unsigned
        )
        labelled = GlobalModel(
            model.points, model.eps_ranges, model.site_ids,
            model.local_cluster_ids, ids, eps_global=1.0,
        )
        assert labelled.to_bytes() == wire_oracle.accounting_bytes(0, ids, labelled)


def _namespace(columns: dict):
    from types import SimpleNamespace

    return SimpleNamespace(**columns)


# ----------------------------------------------------------------------
# refusals: truncation, poison values, ids outside their fields
# ----------------------------------------------------------------------

MODEL_PAYLOADS = (
    [("local", n, wire.decode_local_model) for n in sorted(GOLDEN_LOCAL_MODEL)]
    + [("delta", k, wire.decode_model_delta) for k in sorted(GOLDEN_MODEL_DELTA)]
)
_GOLDEN = {"local": GOLDEN_LOCAL_MODEL, "delta": GOLDEN_MODEL_DELTA}


class TestModelCodecRefusals:
    @pytest.mark.parametrize("layout,name,decode", MODEL_PAYLOADS, ids=str)
    def test_every_truncation_raises(self, layout, name, decode):
        payload = bytes.fromhex(_GOLDEN[layout][name])
        for cut in range(len(payload)):
            with pytest.raises((wire.FrameTruncated, wire.CodecError)):
                decode(payload[:cut])

    @pytest.mark.parametrize("poison", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_coordinate_is_a_codec_error(self, poison):
        # The last 8 bytes of each record-carrying payload are the last
        # coordinate of the last record (MODEL_DELTA: before the labels).
        local = bytearray(bytes.fromhex(GOLDEN_LOCAL_MODEL["local_3d"]))
        local[-8:] = np.float64(poison).tobytes()
        with pytest.raises(wire.CodecError, match="finite"):
            wire.decode_local_model(bytes(local))
        delta = bytearray(bytes.fromhex(GOLDEN_MODEL_DELTA[("global_3d", 1)]))
        delta[-24:-16] = np.float64(poison).tobytes()
        with pytest.raises(wire.CodecError, match="finite"):
            wire.decode_model_delta(bytes(delta))

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_a_non_positive_eps_range_is_a_codec_error(self, eps):
        # ε_r precedes the coordinates in every record.
        local = bytearray(bytes.fromhex(GOLDEN_LOCAL_MODEL["local_3d"]))
        local[-32:-24] = np.float64(eps).tobytes()
        with pytest.raises(wire.CodecError, match="eps_range"):
            wire.decode_local_model(bytes(local))
        delta = bytearray(bytes.fromhex(GOLDEN_MODEL_DELTA[("global_3d", 1)]))
        delta[-48:-40] = np.float64(eps).tobytes()
        with pytest.raises(wire.CodecError, match="eps_range"):
            wire.decode_model_delta(bytes(delta))

    @pytest.mark.parametrize("value", [-(2**31) - 1, 2**31])
    def test_ids_outside_int32_are_refused_on_encode(self, value):
        with pytest.raises(ValueError, match="local_cluster_ids"):
            wire.encode_local_model(local_model(0, [Row((0.0,), 1.0, 0, value)]))
        for row, field in [
            (Row((0.0,), 1.0, value, 0), "site_ids"),
            (Row((0.0,), 1.0, 0, value), "local_cluster_ids"),
        ]:
            model = global_model([row], [0])
            with pytest.raises(ValueError, match=field):
                wire.encode_model_delta(wire.delta_from_model(model, 0))

    @pytest.mark.parametrize("value", [-(2**31), 2**31 - 1])
    def test_int32_boundary_ids_pass(self, value):
        local = local_model(0, [Row((0.0,), 1.0, 0, value)])
        assert wire.decode_local_model(wire.encode_local_model(local)) == local
        model = global_model([Row((0.0,), 1.0, value, value)], [0])
        delta = wire.decode_model_delta(
            wire.encode_model_delta(wire.delta_from_model(model, 0))
        )
        assert wire.apply_model_delta(None, delta) == model
