#!/usr/bin/env python3
"""Generate tests/fixtures/known_answers.json by straight-line computation.

This script deliberately imports nothing from the kimap package: every
primitive (toy digest, production SHA-256 digest, pair encoding, counter
binding, PRNG stream, session algebra) is recomputed here from scratch on
plain integers, so the fixture
is an independent oracle for the library. Bit values are (value, nbits)
pairs, most-significant bit first; the output encodes them as "hex:len".

Usage:
    python tools/gen_known_answers.py            # rewrite the fixture file
    python tools/gen_known_answers.py --print    # dump to stdout instead
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Bit-pair helpers: a value is (int, nbits).


def concat(a, b):
    return ((a[0] << b[1]) | b[0], a[1] + b[1])


def xor(a, b):
    assert a[1] == b[1]
    return (a[0] ^ b[0], a[1])


def halves(a):
    h = a[1] // 2
    return (a[0] >> h, h), (a[0] & ((1 << h) - 1), h)


def to_text(a):
    nibbles = (a[1] + 3) // 4
    return f"{a[0]:0{nibbles}x}:{a[1]}" if nibbles else f":{a[1]}"


def pad_to_bytes(a):
    # append a 1 bit, then 0s to the next byte boundary
    padded = concat(a, (1, 1))
    padded = concat(padded, (0, (-padded[1]) % 8))
    return padded[0].to_bytes(padded[1] // 8, "big")


# ---------------------------------------------------------------------------
# Toy digest: multiply/rotate/xorshift mixer over a 64-bit state.

INIT = 0x243F6A8885A308D3
M1 = 0x9E3779B97F4A7C15
M2 = 0xBF58476D1CE4E5B9


def toy_digest(data, width, out_bits):
    mask = (1 << width) - 1
    h = INIT & mask
    for byte in data:
        h = ((h ^ byte) * M1) & mask
        h = ((h << 7) | (h >> (width - 7))) & mask
        h ^= h >> (width // 2)
    h = ((h ^ len(data)) * M2) & mask
    h ^= h >> (width // 2 + 1)
    h = (h * M1) & mask
    h ^= h >> (width // 2)
    out = 0
    while True:
        out ^= h & ((1 << out_bits) - 1)
        h >>= out_bits
        if not h:
            return out


def encode(a, b):
    # 32-bit length of a, then a, then b, padded to bytes
    return pad_to_bytes(concat(concat((a[1], 32), a), b))


def hash2(out_bits, a, b, width=64):
    return (toy_digest(encode(a, b), width, out_bits), out_bits)


def counter_hash(out_bits, i, a, b):
    return hash2(out_bits, concat((i, 32), a), b)


def production_hash2(out_bits, a, b):
    # SHA-256 of the same encoding, truncated to the top out_bits bits of
    # the whole 256-bit digest
    digest = hashlib.sha256(encode(a, b)).digest()
    return (int.from_bytes(digest, "big") >> (256 - out_bits), out_bits)


def production_counter_hash(out_bits, i, a, b):
    return production_hash2(out_bits, concat((i, 32), a), b)


# ---------------------------------------------------------------------------
# PRNG: SHA-256 counter mode, bits consumed most-significant first.


class Stream:
    def __init__(self, seed, stream_id):
        self.seed = seed
        self.stream_id = stream_id
        self.counter = 0
        self.acc = 0
        self.acc_bits = 0

    def next_bits(self, nbits):
        while self.acc_bits < nbits:
            block = hashlib.sha256(
                b"kimap-prng-v1"
                + (self.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
                + self.stream_id.to_bytes(8, "big")
                + self.counter.to_bytes(8, "big")
            ).digest()
            self.acc = (self.acc << 256) | int.from_bytes(block, "big")
            self.acc_bits += 256
            self.counter += 1
        excess = self.acc_bits - nbits
        out = self.acc >> excess
        self.acc &= (1 << excess) - 1
        self.acc_bits = excess
        return (out, nbits)


# ---------------------------------------------------------------------------
# Fixture generation.

TRANSCRIPT_SEED = 20106
LAM = 8

# Production digests: every output width in PRODUCTION_OUT_BITS for each
# operand-width pair, operands drawn from one stream. (96, 128) and
# (128, 64) are sigma's and sigma''s operands at 64-bit keys.
PRODUCTION_SEED = 20107
PRODUCTION_OUT_BITS = (1, 8, 33, 63, 64, 65, 128, 255, 256)
PRODUCTION_WIDTHS = ((96, 128), (128, 64), (5, 12), (0, 4))

# Production counter-bound digests: a master key and a key of width lambda,
# drawn from one stream, at the first, a middle and the last 32-bit counter.
COUNTER_SEED = 20108
COUNTER_LAMBDAS = (16, 64, 128)
COUNTERS = (1, 2**31, 2**32 - 1)


def generate():
    fixture = {"format": "kimap known answers v1"}

    # Two-argument toy digests at width 8 for five fixed input pairs.
    pairs8 = [
        ((0x3C, 8), (0xA7, 8)),
        ((0x00, 8), (0x00, 8)),
        ((0xFF, 8), (0x01, 8)),
        ((0x5, 4), (0xABC, 12)),
        ((0x0, 0), (0x9, 4)),
    ]
    fixture["hash2_lambda8"] = [
        {"left": to_text(a), "right": to_text(b), "digest": to_text(hash2(8, a, b))}
        for a, b in pairs8
    ]
    fixture["hash2_lambda16"] = [
        {"left": to_text(a), "right": to_text(b), "digest": to_text(hash2(16, a, b))}
        for a, b in [((0x1234, 16), (0xBEEF, 16)), ((0x0001, 16), (0x0002, 16))]
    ]

    # Counter-bound digests: i = 3 at width 8, plus the i = 2 partial-key case.
    fixture["counter_hash_lambda8"] = [
        {"i": 3, "left": to_text((0x3C, 8)), "right": to_text((0xA7, 8)),
         "digest": to_text(counter_hash(8, 3, (0x3C, 8), (0xA7, 8)))},
        {"i": 2, "left": to_text((0x11, 8)), "right": to_text((0xEE, 8)),
         "digest": to_text(counter_hash(8, 2, (0x11, 8), (0xEE, 8)))},
    ]

    # One full session at width 8, one tag, seeded. Draw order mirrors
    # provisioning: master key, the tag's initial key, then a 64-bit base
    # for the child streams (server = stream 0, tag = stream 1).
    root = Stream(TRANSCRIPT_SEED, 0)
    master = root.next_bits(LAM)
    k1 = root.next_bits(LAM)
    base = root.next_bits(64)[0]
    server_stream = Stream(base, 0)
    tag_stream = Stream(base, 1)

    x_s = server_stream.next_bits(LAM)
    x_t = tag_stream.next_bits(LAM)
    x1 = counter_hash(LAM, 1, master, k1)
    k_prime, k_dprime = halves(k1)
    x_prime, x_dprime = halves(x1)
    sigma = hash2(LAM, concat(k_prime, x1), concat(x_s, x_t))
    delta = xor(k1, x1)
    sk = concat(k_prime, x_prime)
    sigma_prime = hash2(LAM, concat(x_t, x_s), sk)
    k2 = hash2(LAM, concat(k_dprime, x_dprime), x_s)

    fixture["transcript_lambda8"] = {
        "seed": TRANSCRIPT_SEED,
        "lambda": LAM,
        "master": to_text(master),
        "k1": to_text(k1),
        "x_s": to_text(x_s),
        "x_t": to_text(x_t),
        "x1": to_text(x1),
        "sigma": to_text(sigma),
        "delta": to_text(delta),
        "sk": to_text(sk),
        "sigma_prime": to_text(sigma_prime),
        "k2": to_text(k2),
    }

    operands = Stream(PRODUCTION_SEED, 0)
    rows = []
    for n_left, n_right in PRODUCTION_WIDTHS:
        a = operands.next_bits(n_left)
        b = operands.next_bits(n_right)
        for out_bits in PRODUCTION_OUT_BITS:
            rows.append({"out_bits": out_bits, "left": to_text(a), "right": to_text(b),
                         "digest": to_text(production_hash2(out_bits, a, b))})
    fixture["hash2_production"] = rows

    operands = Stream(COUNTER_SEED, 0)
    rows = []
    for lam in COUNTER_LAMBDAS:
        a = operands.next_bits(lam)
        b = operands.next_bits(lam)
        for i in COUNTERS:
            rows.append({"out_bits": lam, "i": i, "left": to_text(a), "right": to_text(b),
                         "digest": to_text(production_counter_hash(lam, i, a, b))})
    fixture["counter_hash_production"] = rows
    return fixture


def main():
    parser = argparse.ArgumentParser(
        description="Regenerate tests/fixtures/known_answers.json from scratch.",
        allow_abbrev=False)
    parser.add_argument("--print", action="store_true",
                        help="write the fixture to stdout instead of its file")
    args = parser.parse_args()
    text = json.dumps(generate(), indent=2) + "\n"
    if args.print:
        sys.stdout.write(text)
        return
    out = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "known_answers.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
