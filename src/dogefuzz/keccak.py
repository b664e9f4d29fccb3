"""Keccak-256 as used by EVM contracts (selectors, SHA3 opcode, address derivation).

This is the original Keccak submission with multi-rate padding (0x01 domain
byte), not the later standardized variant shipped in hashlib, which pads with
0x06 and therefore produces different digests. No package on the index
provides it, so the permutation lives here. Known-answer vectors are pinned in
the test suite against an independently written reference.

The permutation works on whole planes, as SIMD Keccak implementations lay
out the state: each plane of five lanes is one int for all 24 rounds, its
lanes doubled (v | v << 64) while theta and rho run, so that a rotation is a
single shift. Fuzzing hashes the same short inputs over and over (a mapping
slot is keccak256(key . slot)), so `keccak256` memoizes digests of inputs that
fit in one rate block (at most 136 bytes) in an LRU of 512 entries. Longer
inputs bypass the memo, so it never holds more than 512 * 136 bytes of keys.
"""

from __future__ import annotations

import struct
from functools import lru_cache

# The state as five plane ints: lane (x, y) sits in the low half of the
# 128-bit slot x of plane y, and the high half is free for a doubled copy.
_SLOTS = tuple(((1 << 64) - 1) << 128 * x for x in range(5))
_LANES = sum(_SLOTS)
_M640 = (1 << 640) - 1
_PLANES = struct.Struct("<" + "Q8x" * 25)

# Precomputed iota round constants for keccak-f[1600] (24 rounds).
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_RATE = 136  # bytes; capacity 512 bits fixes the 256-bit security level
_BLOCK = struct.Struct("<17Q")  # one rate block as little-endian lanes
_DIGEST = struct.Struct("<4Q")


def _keccak_f1600(state: list[int]) -> None:
    """Apply the 24-round permutation in place. Lanes are 64-bit ints, index x + 5*y."""
    m0, m1, m2, m3, m4 = _SLOTS
    lanes, m640 = _LANES, _M640
    packed = _PLANES.pack(*state)
    a0, a1, a2, a3, a4 = [int.from_bytes(packed[i:i + 80], "little")
                          for i in range(0, 400, 80)]
    for rc in _ROUND_CONSTANTS:
        # double each lane: slot x of a plane holds v | v << 64
        q0, q1, q2, q3 = a0 << 64 | a0, a1 << 64 | a1, a2 << 64 | a2, a3 << 64 | a3
        q4 = a4 << 64 | a4
        # theta: slot x of d is c[x-1] ^ rotl(c[x+1], 1).  A shift rotates
        # a doubled lane except in bit 0 of its slot, which rho never reads
        c = q0 ^ q1 ^ q2 ^ q3 ^ q4
        d = ((c << 128 | c >> 512) ^ (c >> 127 | c << 513)) & m640
        q0, q1, q2, q3, q4 = q0 ^ d, q1 ^ d, q2 ^ d, q3 ^ d, q4 ^ d
        # rho and pi: lane (x, y) moves to slot y of plane (2x + 3y) % 5,
        # rotated by r: a shift by 128 * (x - y) + 64 - r puts bits 64 - r
        # to 127 - r of its doubled slot there (left when negative)
        p0 = ((q0 >> 64 & m0) | (q1 >> 20 & m1) | (q2 >> 21 & m2)
              | (q3 >> 43 & m3) | (q4 >> 50 & m4))
        p1 = ((q0 >> 420 & m0) | (q1 >> 428 & m1) | (q2 << 195 & m2)
              | (q3 << 237 & m3) | (q4 << 253 & m4))
        p2 = ((q0 >> 191 & m0) | (q1 >> 186 & m1) | (q2 >> 167 & m2)
              | (q3 >> 184 & m3) | (q4 << 466 & m4))
        p3 = ((q0 >> 549 & m0) | (q1 << 100 & m1) | (q2 << 74 & m2)
              | (q3 << 79 & m3) | (q4 << 120 & m4))
        p4 = ((q0 >> 258 & m0) | (q1 >> 265 & m1) | (q2 >> 281 & m2)
              | (q3 << 361 & m3) | (q4 << 322 & m4))
        # chi on whole planes, slot x against slots x+1 and x+2; iota
        a0 = p0 ^ ((p0 >> 128 | p0 << 512) ^ lanes) & (p0 >> 256 | p0 << 384) & m640 ^ rc
        a1 = p1 ^ ((p1 >> 128 | p1 << 512) ^ lanes) & (p1 >> 256 | p1 << 384) & m640
        a2 = p2 ^ ((p2 >> 128 | p2 << 512) ^ lanes) & (p2 >> 256 | p2 << 384) & m640
        a3 = p3 ^ ((p3 >> 128 | p3 << 512) ^ lanes) & (p3 >> 256 | p3 << 384) & m640
        a4 = p4 ^ ((p4 >> 128 | p4 << 512) ^ lanes) & (p4 >> 256 | p4 << 384) & m640
    state[:] = _PLANES.unpack(b"".join(
        a.to_bytes(80, "little") for a in (a0, a1, a2, a3, a4)))


def _sponge(data: bytes | bytearray | memoryview) -> bytes:
    state = [0] * 25
    # pad10*1 with the 0x01 domain byte, then absorb rate-sized blocks
    padded = bytearray(data)
    pad_len = _RATE - (len(padded) % _RATE)
    padded.extend(b"\x00" * pad_len)
    padded[-pad_len] ^= 0x01
    padded[-1] ^= 0x80
    for block_start in range(0, len(padded), _RATE):
        state[:17] = [s ^ b for s, b in
                      zip(state, _BLOCK.unpack_from(padded, block_start))]
        _keccak_f1600(state)
    return _DIGEST.pack(*state[:4])


_memo = lru_cache(maxsize=512)(_sponge)


def keccak256(data: bytes | bytearray | memoryview) -> bytes:
    """Return the 32-byte Keccak-256 digest of `data`.

    Digests of inputs of at most `_RATE` bytes come from a 512-entry LRU;
    longer inputs are hashed every time, so the memo holds no large keys.
    Lengths count bytes, also for a memoryview of wider items.
    """
    data = bytes(data)
    if len(data) <= _RATE:
        return _memo(data)
    return _sponge(data)


keccak256.cache_info = _memo.cache_info
