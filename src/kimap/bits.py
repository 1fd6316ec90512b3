"""Fixed-width bitstrings, the hash abstraction, and seedable randomness.

Everything on the wire and in key material is a :class:`BitString`: an
immutable value with an explicit bit length (the length is part of the value,
never inferred from a byte container). The module also provides:

* :class:`HashSpec` / :func:`hash2` / :func:`counter_hash` -- a pluggable
  hash with a deterministic two-argument form ``H(a, b)`` and a
  counter-bound per-session form ``H_i(a, b)``. :func:`hash2_layout` states
  the one input encoding, which :func:`hash2` takes from two bitstrings or
  as an int already encoded.  Two variants exist:
  ``production`` (SHA-256 truncated to the output width) and ``toy`` (a
  small keyless mixer meant to be exhaustively brute-forceable in tests).
  The toy mixer caches its state after an input's first 4 bytes, which for
  :func:`hash2` are the left operand's length prefix; the digest is the same
  as absorbing every byte, since the state after a prefix depends on nothing
  else.
* :class:`Prng` / :func:`prng_next` -- a deterministic counter-mode stream
  over SHA-256, replayable from ``(seed, stream_id)``.
* Every SHA-256 digest here comes from the interpreter's built-in SHA-256
  (``hashlib.__get_builtin_constructor("sha256")``: ``_sha256``, or
  ``_sha2`` from Python 3.12), not ``hashlib.sha256``, which goes through
  OpenSSL and sets up a context on every call. Every input is one SHA-256
  block (at most 55 bytes) at key widths up to 116 bits (at the default 64:
  33 bytes at most, and the PRNG's 37), and for one block the built-in is
  the faster. A longer input (a sigma at 128 bits is 61 bytes) uses it too,
  though there OpenSSL is a little faster; no benchmark workload hashes one.
  Both compute SHA-256, so the choice moves no digest bit. An interpreter
  without the built-in uses ``hashlib.sha256``.
* :class:`OpMeter` / :class:`metered` -- instrumentation counters on the
  shared hash/PRNG/XOR entry points, used to account per-session tag cost.
"""

from __future__ import annotations

import hashlib
import struct
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable


class LengthError(ValueError):
    """A broken width invariant: operands of unequal or wrong bit lengths, an
    odd length split in halves, or a value that does not fit its width. The
    message names the widths."""


class ParameterError(ValueError):
    """A bad value from outside the library: a caller's parameter (a width,
    count, budget, cost figure or name), ``KIMAP_SEED``, or the contents of a
    database, master key or schedule file. ``kimap`` exits 2 on it; a broken
    invariant inside the library raises anything else."""


class BitString:
    """An immutable bit vector of explicit length, most-significant bit first.

    >>> BitString(0b1010, 4) ^ BitString(0b0110, 4)
    BitString('1100')
    >>> (BitString(0b10, 2) + BitString(0b01, 2)).split()
    (BitString('10'), BitString('01'))
    >>> BitString(0x9f, 8).to_text()
    '9f:8'
    """

    __slots__ = ("_value", "_length")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise LengthError("length must be >= 0")
        if value < 0 or value >> length:
            raise LengthError(f"value {value:#x} does not fit in {length} bits")
        self._value = value
        self._length = length

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Parse the ``hex:len`` wire/fixture encoding. Only the text
        :meth:`to_text` writes is taken: any other spelling of the same bits
        is refused, not rewritten."""
        hexpart, sep, lenpart = text.partition(":")
        if not sep:
            raise ValueError(f"missing ':<len>' in bitstring text {text!r}")
        length = int(lenpart)
        value = int(hexpart, 16) if hexpart else 0
        bits = cls(value, length)
        # int() also takes a sign, a 0x prefix, '_' separators and spaces.
        # Both parts parsed, so a hex letter or ':' can only be where it
        # belongs.
        if text.strip("0123456789abcdefABCDEF:"):
            raise ValueError(f"bitstring text {text!r} is not '<hex digits>:<decimal digits>'")
        # to_text writes ceil(len/4) lowercase digits and no leading zero in
        # the length.
        if (len(hexpart) != (length + 3) // 4 or hexpart != hexpart.lower()
                or len(lenpart) > 1 and lenpart[0] == "0"):
            raise ValueError(f"bitstring text {text!r} is not in canonical form {bits.to_text()!r}")
        return bits

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> int:
        return self._value

    def __len__(self) -> int:
        return self._length

    def to_text(self) -> str:
        """The ``hex:len`` encoding: lowercase hex of the value, zero-padded
        to ``ceil(len/4)`` nibbles, then an explicit bit length."""
        nibbles = (self._length + 3) // 4
        return f"{self._value:0{nibbles}x}:{self._length}" if nibbles else f":{self._length}"

    # -- operations --------------------------------------------------------

    def split(self) -> tuple["BitString", "BitString"]:
        return split(self)

    def flip(self, i: int) -> "BitString":
        """Copy with bit ``i`` flipped (MSB-first index)."""
        if not 0 <= i < self._length:
            raise IndexError(f"bit index {i} out of range for length {self._length}")
        return _trusted(self._value ^ (1 << (self._length - 1 - i)), self._length)

    def __xor__(self, other: "BitString") -> "BitString":
        return xor(self, other)

    def __add__(self, other: "BitString") -> "BitString":
        return concat(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        return f"BitString('{self._value:0{self._length}b}')" if self._length else "BitString('')"

    # Immutable, so a copy is the object itself: a deep copy of a server or
    # a world shares its bit strings instead of rebuilding each one.
    def __deepcopy__(self, memo: dict) -> "BitString":
        return self


def text_format(length: int, arg: int = 0) -> str:
    """The :meth:`BitString.to_text` encoding of a ``length``-bit value as a
    format string that reads positional argument ``arg``:
    ``text_format(n).format(v) == BitString(v, n).to_text()``. It formats
    many values of one width without a bit string for each."""
    nibbles = (length + 3) // 4
    return f"{{{arg}:0{nibbles}x}}:{length}" if nibbles else f":{length}"


def _trusted(value: int, length: int) -> BitString:
    """A :class:`BitString` whose width holds by construction (a digest, or
    the result of an operation on checked operands), built without
    :class:`BitString`'s range checks."""
    s = object.__new__(BitString)
    s._value = value
    s._length = length
    return s


# ---------------------------------------------------------------------------
# Instrumentation: counters on the shared hash/PRNG/XOR entry points.
# ---------------------------------------------------------------------------

@dataclass
class OpMeter:
    """Operation counters. PRNG draws are priced as hash-equivalent."""

    hash_calls: int = 0
    prng_calls: int = 0
    xor_calls: int = 0

    @property
    def hash_equivalent(self) -> int:
        return self.hash_calls + self.prng_calls

    def snapshot(self) -> tuple[int, int, int]:
        return (self.hash_calls, self.prng_calls, self.xor_calls)


_ACTIVE_METER: ContextVar[OpMeter | None] = ContextVar("kimap_op_meter", default=None)


class metered:
    """Route hash/PRNG/XOR counts to ``meter`` within the block:
    ``with metered(meter) as m`` binds ``m`` to ``meter``, and leaving the
    block, by an exception too, restores the meter that was active before.
    A class rather than a generator context manager, since the tag enters
    it twice a session; each object is entered once."""

    __slots__ = ("_meter", "_token")

    def __init__(self, meter: OpMeter):
        self._meter = meter

    def __enter__(self) -> OpMeter:
        self._token = _ACTIVE_METER.set(self._meter)
        return self._meter

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE_METER.reset(self._token)


# ---------------------------------------------------------------------------
# Core bit operations.
# ---------------------------------------------------------------------------

def xor(a: BitString, b: BitString) -> BitString:
    """Bitwise XOR of two equal-length bitstrings."""
    n = a._length
    if n != b._length:
        raise LengthError(f"xor of lengths {n} and {b._length}")
    meter = _ACTIVE_METER.get()
    if meter is not None:
        meter.xor_calls += 1
    return _trusted(a._value ^ b._value, n)


def concat(a: BitString, b: BitString) -> BitString:
    """``a`` followed by ``b``."""
    return _trusted((a._value << b._length) | b._value, a._length + b._length)


def split(s: BitString) -> tuple[BitString, BitString]:
    """The two equal halves of an even-length bitstring."""
    n = s._length
    if n % 2:
        raise LengthError(f"cannot split odd length {n}")
    half = n // 2
    return _trusted(s._value >> half, half), _trusted(s._value & ((1 << half) - 1), half)


# ---------------------------------------------------------------------------
# Hash abstraction.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HashSpec:
    """Selects a hash variant and its output width.

    ``production`` truncates SHA-256 (computed as the module docstring
    says); ``toy`` is a small multiply-rotate-xor mixer over 64 bits of
    state, weak by design so tests can brute-force preimages over tiny
    domains. The mixer absorbs one byte at a time, so its
    state after the first 4 bytes is a function of those bytes alone. Every
    :func:`hash2` input starts with the 32-bit length prefix of its left
    operand, so that state depends only on the left width: it is cached per
    prefix (a bounded cache), and each digest absorbs the remaining bytes
    from it, giving the bytes the uncached loop gives.
    """

    output_len_bits: int
    variant: str = "production"
    # The digest of hash2's encoded bytes, chosen once per spec: a production
    # digest of up to 64 bits is the first 8 SHA-256 bytes shifted right by
    # ``_sha_shift``; ``_digest(data)`` computes any digest.
    _sha_shift: int | None = field(init=False, repr=False, compare=False)
    _digest: Callable[[bytes], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.variant not in ("production", "toy"):
            raise ParameterError(f"unknown hash variant {self.variant!r}")
        if not 1 <= self.output_len_bits <= 256:
            raise ParameterError(f"hash output width must be 1..256 bits, got {self.output_len_bits}")
        if self.variant == "toy" and self.output_len_bits > _TOY_STATE_BITS:
            raise ParameterError(f"toy hash output width must be <= {_TOY_STATE_BITS} bits, "
                                 f"got {self.output_len_bits}")
        out_bits, toy = self.output_len_bits, self.variant == "toy"
        object.__setattr__(self, "_sha_shift", None if toy or out_bits > 64 else 64 - out_bits)
        object.__setattr__(self, "_digest", partial(_toy_digest if toy else _sha256_digest, out_bits))

    def __deepcopy__(self, memo: dict) -> "HashSpec":
        return self  # frozen, so a deep copy is the spec itself

    @classmethod
    def production(cls, output_len_bits: int) -> "HashSpec":
        return cls(output_len_bits, "production")

    @classmethod
    def toy(cls, output_len_bits: int) -> "HashSpec":
        return cls(output_len_bits, "toy")


# Toy mixer constants (state width and mask; odd multipliers; pi-derived
# initial state), and the number of leading input bytes whose state
# _toy_head caches: hash2's 32-bit length prefix of the left operand.
_TOY_STATE_BITS = 64
_TOY_MASK = (1 << _TOY_STATE_BITS) - 1
_TOY_INIT = 0x243F6A8885A308D3
_TOY_MULT1 = 0x9E3779B97F4A7C15
_TOY_MULT2 = 0xBF58476D1CE4E5B9
_TOY_HEAD_BYTES = 4


def _toy_absorb(h: int, data: bytes) -> int:
    """The toy mixer's state after absorbing ``data`` into state ``h``."""
    mask, mult, back, half = _TOY_MASK, _TOY_MULT1, _TOY_STATE_BITS - 7, _TOY_STATE_BITS // 2
    for byte in data:
        h = ((h ^ byte) * mult) & mask
        h = ((h << 7) | (h >> back)) & mask
        h ^= h >> half
    return h


@lru_cache(maxsize=64)
def _toy_head(head: bytes) -> int:
    """The state after absorbing ``head``, an input's first (up to)
    :data:`_TOY_HEAD_BYTES` bytes. For hash2 they are the left operand's
    length prefix, so there is one head per left width: 4 in a game at
    lambda = 16."""
    return _toy_absorb(_TOY_INIT, head)


def _toy_digest(out_bits: int, data: bytes) -> int:
    """The toy digest of ``data``: absorb every byte (the head's state from
    the cache), finalize the state, and XOR-fold it to ``out_bits`` bits."""
    h = _toy_absorb(_toy_head(data[:_TOY_HEAD_BYTES]), data[_TOY_HEAD_BYTES:])
    mask, half = _TOY_MASK, _TOY_STATE_BITS // 2
    h = ((h ^ len(data)) * _TOY_MULT2) & mask
    h ^= h >> (half + 1)
    h = (h * _TOY_MULT1) & mask
    h ^= h >> half
    fold = (1 << out_bits) - 1
    out = 0
    while True:
        out ^= h & fold
        h >>= out_bits
        if not h:
            return out


try:
    _sha256 = hashlib.__get_builtin_constructor("sha256")
except (AttributeError, ValueError):  # no built-in, or no way to ask for it
    _sha256 = hashlib.sha256
# The first 8 bytes of a digest as a big-endian int.
_unpack_u64 = struct.Struct(">Q").unpack_from


def _sha256_digest(out_bits: int, data: bytes) -> int:
    return int.from_bytes(_sha256(data).digest(), "big") >> (256 - out_bits)


@lru_cache(maxsize=256)
def hash2_layout(n_left: int, n_right: int) -> tuple[int, int, int, int]:
    """The encoding :func:`hash2` digests, for an ``n_left``-bit left and an
    ``n_right``-bit right operand, as ``(base, left_shift, right_shift,
    nbytes)``: the input is ``base | left << left_shift | right <<
    right_shift`` as ``nbytes`` big-endian bytes. ``base`` holds the 32-bit
    length prefix and the 1 that starts the 10* padding."""
    n_bits = 32 + n_left + n_right + 1
    pad = -n_bits % 8
    right_shift = pad + 1
    left_shift = right_shift + n_right
    base = n_left << (left_shift + n_left) | 1 << pad
    return base, left_shift, right_shift, (n_bits + pad) // 8


def hash2(spec: HashSpec, left: BitString | int, right: BitString | int) -> BitString | int:
    """Deterministic two-argument digest ``H(left, right)``, the one counted
    hash.

    The pair is encoded injectively: a 32-bit big-endian length prefix for
    ``left``, then ``left``'s bits, then ``right``'s bits, then 10* padding
    to a byte boundary. Appending a 1 bit then zeros keeps the bits -> bytes
    map injective, so the encoding stays injective over pairs of arbitrary
    lengths. :func:`hash2_layout` states that encoding once, per pair of
    widths, and there are two ways in:

    * ``hash2(spec, left, right)`` with two :class:`BitString` operands
      encodes them by the layout and returns the digest as a
      :class:`BitString`;
    * ``hash2(spec, encoded, nbytes)`` with the input already encoded by
      the layout, as an int, and its byte count, returns the digest as an
      int. A caller that hashes many inputs sharing an operand builds that
      operand's term once and ORs in the rest.

    Both count one hash and digest the same bytes. A production digest is
    the top ``output_len_bits`` bits of the SHA-256 digest; up to 64 of them
    are read from its first 8 bytes alone. Which digest applies is settled
    once, when the :class:`HashSpec` is built.
    """
    meter = _ACTIVE_METER.get()
    if meter is not None:
        meter.hash_calls += 1
    encoded = type(left) is int
    if encoded:
        data = left.to_bytes(right, "big")
    else:
        base, left_shift, right_shift, nbytes = hash2_layout(left._length, right._length)
        enc = base | left._value << left_shift | right._value << right_shift
        data = enc.to_bytes(nbytes, "big")
    shift = spec._sha_shift
    value = _unpack_u64(_sha256(data).digest())[0] >> shift if shift is not None else spec._digest(data)
    return value if encoded else _trusted(value, spec.output_len_bits)


# Width of the session counter ``i`` that H_i binds, and so of every stored
# record counter.
COUNTER_BITS = 32


def counter_hash(spec: HashSpec, i: int, left: BitString, right: BitString) -> BitString:
    """Session-bound digest ``H_i(left, right)``: the counter is folded into
    the first argument as a :data:`COUNTER_BITS`-bit prefix, so each session
    index selects an independent function at constant cost."""
    if i < 1:
        raise ValueError("session index must be >= 1")
    if i >> COUNTER_BITS:
        raise LengthError(f"session index {i} does not fit in {COUNTER_BITS} bits")
    n_left = left._length
    base, left_shift, right_shift, nbytes = hash2_layout(COUNTER_BITS + n_left, right._length)
    enc = base | (i << n_left | left._value) << left_shift | right._value << right_shift
    return _trusted(hash2(spec, enc, nbytes), spec.output_len_bits)


# ---------------------------------------------------------------------------
# Seedable randomness: counter mode over SHA-256.
# ---------------------------------------------------------------------------

_PRNG_DOMAIN = b"kimap-prng-v1"


@dataclass
class Prng:
    """Deterministic bit stream. Same ``(seed, stream_id)`` replays the same
    sequence; distinct ``stream_id`` values are independent streams."""

    seed: int
    stream_id: int = 0
    _counter: int = field(default=0, repr=False)
    _acc: int = field(default=0, repr=False)
    _acc_bits: int = field(default=0, repr=False)

    def randbelow(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            v = _draw(self, k)
            if v < n:
                return v

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream. Position
        ``i`` takes the draws ``randbelow(i + 1)`` would, each counted as
        one PRNG draw, in one loop over the stream's buffered bits.

        The positions run in descending runs of one draw width ``k``
        (``2**k - 1`` down to ``2**(k - 1)``), and each draw is the ``k``
        bits below the consumed ones, read with the run's mask. Consumed
        bits stay in the buffer until a refill or the end, so the stream
        ends in the state a loop of ``randbelow`` calls leaves."""
        draws = 0
        acc, acc_bits = self._acc, self._acc_bits
        top = len(items) - 1
        for k in range(max(top, 0).bit_length(), 0, -1):
            mask = (1 << k) - 1
            for i in range(min(top, mask), mask >> 1, -1):
                while True:
                    draws += 1
                    if acc_bits < k:
                        self._acc, self._acc_bits = acc & ((1 << acc_bits) - 1), acc_bits
                        _fill(self, k)
                        acc, acc_bits = self._acc, self._acc_bits
                    acc_bits -= k
                    j = (acc >> acc_bits) & mask
                    if j <= i:
                        break
                items[i], items[j] = items[j], items[i]
        self._acc, self._acc_bits = acc & ((1 << acc_bits) - 1), acc_bits
        meter = _ACTIVE_METER.get()
        if meter is not None:
            meter.prng_calls += draws


def prng_next(p: Prng, nbits: int) -> BitString:
    """Draw ``nbits`` pseudorandom bits, advancing the stream state."""
    if nbits < 1:
        raise ValueError("nbits must be >= 1")
    return _trusted(_draw(p, nbits), nbits)


def _draw(p: Prng, nbits: int) -> int:
    """The next ``nbits`` (>= 1) bits of the stream as an int: one counted
    PRNG draw."""
    meter = _ACTIVE_METER.get()
    if meter is not None:
        meter.prng_calls += 1
    if p._acc_bits < nbits:
        _fill(p, nbits)
    excess = p._acc_bits - nbits
    out = p._acc >> excess
    p._acc &= (1 << excess) - 1
    p._acc_bits = excess
    return out


def _fill(p: Prng, nbits: int) -> None:
    """Append stream blocks until at least ``nbits`` bits are buffered."""
    while p._acc_bits < nbits:
        block = _sha256(
            _PRNG_DOMAIN
            + (p.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
            + p.stream_id.to_bytes(8, "big")
            + p._counter.to_bytes(8, "big")
        ).digest()
        p._acc = (p._acc << 256) | int.from_bytes(block, "big")
        p._acc_bits += 256
        p._counter += 1
