"""``repro.wire`` — the pluggable codec layer of the serving stack.

One :class:`Codec` owns the whole bytes↔document boundary for one content
type; :class:`JsonCodec` (the default, byte-compatible with every pre-codec
client) and :class:`BinaryCodec` (framed raw-array transport) are registered
out of the box.  The serving front ends negotiate between them per request
(:func:`negotiate`), and clients pick one by name (:func:`get_codec` via the
``wire_codec`` config knob).
"""

from __future__ import annotations

from .binary import FRAME_VERSION, MAGIC, BinaryCodec
from .codec import (
    Codec,
    JsonCodec,
    ReportLike,
    codec_for_accept,
    codec_for_content_type,
    default_codec,
    get_codec,
    negotiate,
)

__all__ = [
    "Codec",
    "JsonCodec",
    "BinaryCodec",
    "ReportLike",
    "MAGIC",
    "FRAME_VERSION",
    "get_codec",
    "codec_for_content_type",
    "codec_for_accept",
    "default_codec",
    "negotiate",
]
