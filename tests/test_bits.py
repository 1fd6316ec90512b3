"""Bitstring arithmetic, hash, and PRNG contracts."""

import copy
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kimap import bits
from kimap.bits import (
    BitString,
    HashSpec,
    LengthError,
    OpMeter,
    ParameterError,
    Prng,
    concat,
    counter_hash,
    hash2,
    hash2_layout,
    metered,
    prng_next,
    split,
    xor,
)
from kimap.bits import _toy_digest, _toy_head  # the toy mixer's digest and its head cache

TOY8 = HashSpec.toy(8)
TOY16 = HashSpec.toy(16)
PROD64 = HashSpec.production(64)


# -- strategies --------------------------------------------------------------

bitstrings = st.integers(min_value=0, max_value=256).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(lambda v: BitString(v, n)))

even_bitstrings = st.integers(min_value=0, max_value=128).flatmap(
    lambda h: st.integers(min_value=0, max_value=(1 << (2 * h)) - 1).map(lambda v: BitString(v, 2 * h)))


class TestBitString:
    def test_xor_identity(self):
        x = BitString(0b1011, 4)
        assert xor(x, BitString(0, 4)) == x

    def test_xor_self_inverse(self):
        x = BitString(0b1011, 4)
        assert xor(x, x) == BitString(0, 4)

    def test_xor_hand_computed(self):
        assert xor(BitString(0b1010, 4), BitString(0b0110, 4)) == BitString(0b1100, 4)

    def test_xor_length_mismatch(self):
        refused("xor-of-4-and-5-bits")

    def test_concat_identity_element(self):
        x = BitString(0b101, 3)
        assert concat(BitString(0, 0), x) == x
        assert concat(x, BitString(0, 0)) == x

    def test_concat_definition(self):
        assert concat(BitString(0b10, 2), BitString(0b01, 2)) == BitString(0b1001, 4)

    def test_split_definition(self):
        assert split(BitString(0b1001, 4)) == (BitString(0b10, 2), BitString(0b01, 2))

    def test_split_of_doubled(self):
        a = BitString(0b110, 3)
        assert split(concat(a, a)) == (a, a)

    def test_split_odd_rejected(self):
        refused("split-odd")

    def test_value_must_fit(self):
        refused("value-too-wide")

    @pytest.mark.parametrize("case", ["value-negative", "length-negative"])
    def test_negative_value_or_length_rejected(self, case):
        refused(case)

    def test_flip(self):
        assert BitString(0b000, 3).flip(0) == BitString(0b100, 3)
        assert BitString(0b111, 3).flip(2) == BitString(0b110, 3)

    @pytest.mark.parametrize("case", ["flip-past-the-end", "flip-negative"])
    def test_flip_out_of_range(self, case):
        refused(case)

    def test_equality_is_value_and_length(self):
        assert BitString(1, 4) != BitString(1, 5)
        assert hash(BitString(3, 8)) == hash(BitString(3, 8))

    @given(even_bitstrings)
    def test_split_concat_roundtrip(self, s):
        left, right = split(s)
        assert len(left) == len(right) == len(s) // 2
        assert concat(left, right) == s

    def test_split_concat_roundtrip_1000_random(self):
        prng = Prng(31, 0)
        for _ in range(1000):
            s = prng_next(prng, 2 * (1 + prng.randbelow(64)))
            assert concat(*split(s)) == s

    @given(bitstrings, bitstrings)
    def test_concat_split_roundtrip_equal_halves(self, a, b):
        if len(a) == len(b):
            assert split(concat(a, b)) == (a, b)

    @given(bitstrings, st.integers(0, 255))
    def test_xor_involution(self, a, raw):
        b = BitString(raw & ((1 << len(a)) - 1) if len(a) else 0, len(a))
        assert xor(xor(a, b), b) == a


class TestTextEncoding:
    def test_roundtrip(self):
        for text in ("9f3a:16", "0:1", "1:1", ":0", "f:4", "0ab:10"):
            assert BitString.from_text(text).to_text() == text

    def test_lowercase_padded(self):
        assert BitString(0xAB, 12).to_text() == "0ab:12"

    @given(raw=st.integers(0, (1 << 300) - 1), length=st.integers(0, 300), arg=st.integers(0, 2))
    @example(raw=5, length=0, arg=1)
    def test_text_format_is_to_text(self, raw, length, arg):
        """Values of one width are formatted as their bit strings are."""
        value = raw & ((1 << length) - 1)
        args = [None] * arg + [value]
        assert bits.text_format(length, arg).format(*args) == BitString(value, length).to_text()

    def test_length_not_inferable_from_hex(self):
        # same hex, different declared widths: distinct values
        assert BitString.from_text("1:1") != BitString.from_text("1:4")

    def test_missing_length_rejected(self):
        refused("text-without-length")

    @pytest.mark.parametrize("text", ["+1f:8", "0x1f:8", "1_f:8", " 1f:8", "1f: 8", "1f:8 ",
                                      "1f:+8", "1f:0_8"])
    def test_text_only_int_takes_is_rejected(self, text):
        """A sign, a 0x prefix, '_' separators or spaces, which to_text
        would drop, are refused rather than rewritten."""
        refused(f"text-{text}")

    def test_uppercase_rejected(self):
        refused("text-uppercase")


class TestHash2:
    def test_deterministic(self):
        a, b = BitString(0x3C, 8), BitString(0xA7, 8)
        assert hash2(TOY8, a, b) == hash2(TOY8, a, b)
        assert hash2(PROD64, a, b) == hash2(PROD64, a, b)

    def test_output_length(self):
        for spec in (TOY8, TOY16, PROD64):
            assert len(hash2(spec, BitString(1, 8), BitString(2, 8))) == spec.output_len_bits

    def test_pair_encoding_not_plain_concat(self):
        # H(a, b) must differ from H(a||b, empty): the pair boundary is bound
        # into the input, so argument ambiguity is not available to an attacker.
        prng = Prng(5, 0)
        hits = 0
        for _ in range(100):
            a = prng_next(prng, 8)
            b = prng_next(prng, 8)
            if hash2(TOY16, a, b) != hash2(TOY16, concat(a, b), BitString(0, 0)):
                hits += 1
        assert hits == 100

    def test_determinism_and_width_bulk(self):
        # 10,000 random inputs: fixed width, stable output
        prng = Prng(6, 0)
        for _ in range(10_000):
            a = prng_next(prng, 16)
            b = prng_next(prng, 16)
            d = hash2(TOY16, a, b)
            assert len(d) == 16
            assert d == hash2(TOY16, a, b)

    def test_toy_preimage_search_is_exhaustive(self):
        # the 8-bit toy domain is small enough to enumerate: brute force is
        # the designated oracle for inverting it elsewhere in the suite
        target = hash2(TOY8, BitString(0x21, 8), BitString(0x43, 8))
        found = [
            (a, b)
            for a in range(256)
            for b in range(256)
            if hash2(TOY8, BitString(a, 8), BitString(b, 8)) == target
        ]
        assert (0x21, 0x43) in found


class TestHash2Encoded:
    """The two ways into hash2 digest the same bytes: an input pre-encoded by
    hash2_layout, with its byte count, gives the int value of the BitString
    form's digest, and each way counts one hash."""

    @given(n_left=st.integers(1, 300), n_right=st.integers(1, 300), data=st.data(),
           toy=st.booleans(), out_bits=st.integers(1, 64))
    @example(n_left=1, n_right=1, data=None, toy=False, out_bits=64)      # 35 bits
    @example(n_left=7, n_right=3, data=None, toy=True, out_bits=16)       # 43 bits
    @example(n_left=96, n_right=128, data=None, toy=False, out_bits=64)   # sigma at 64
    @example(n_left=128, n_right=64, data=None, toy=False, out_bits=64)   # sigma' at 64
    @example(n_left=300, n_right=299, data=None, toy=True, out_bits=8)
    def test_encoded_int_matches_bitstring_form(self, n_left, n_right, data, toy, out_bits):
        def value(n):
            return data.draw(st.integers(0, (1 << n) - 1)) if data else (1 << n) - 1
        left, right = BitString(value(n_left), n_left), BitString(value(n_right), n_right)
        spec = HashSpec.toy(out_bits) if toy else HashSpec.production(out_bits)
        base, left_shift, right_shift, nbytes = hash2_layout(n_left, n_right)
        assert nbytes == (32 + n_left + n_right + 1 + 7) // 8
        with metered(OpMeter()) as m:
            want = hash2(spec, left, right)
            got = hash2(spec, base | left.value << left_shift | right.value << right_shift, nbytes)
        assert type(got) is int
        assert (got, out_bits) == (want.value, len(want))
        assert m.snapshot() == (2, 0, 0)


def sha256_truncated(data, out_bits):
    """The top ``out_bits`` bits of ``hashlib.sha256(data)``, as an int."""
    return int.from_bytes(hashlib.sha256(data).digest(), "big") >> (256 - out_bits)


class TestSha256Choice:
    """A production digest is SHA-256's whichever SHA-256 computes it: the
    interpreter's built-in, or hashlib.sha256 where there is none. Inputs
    of one block (at most 55 bytes) and of more are both checked."""

    OUT_BITS = (1, 63, 64, 65, 256)

    @given(data=st.binary(max_size=200), split_at=st.integers(0, 1600))
    @example(data=b"", split_at=0)
    @example(data=bytes(range(55)), split_at=200)
    @example(data=bytes(range(56)), split_at=7)
    @example(data=b"\xff" * 64, split_at=1600)
    @example(data=bytes(range(119)), split_at=0)
    @example(data=bytes(range(120)), split_at=480)
    def test_both_forms_equal_hashlib(self, data, split_at):
        """The encoded form digests ``data`` as it is. The BitString form,
        for an input of at least 5 bytes, digests operands whose encoding
        is ``data``'s size: the 32-bit length prefix, the left and right
        bits taken from ``data``, and a final 1 bit."""
        n = len(data)
        enc = int.from_bytes(data, "big")
        if n >= 5:
            width = 8 * n - 33  # the operand bits: no 0 bits of padding
            n_left = split_at % (width + 1)
            n_right = width - n_left
            payload = enc >> 1 & ((1 << width) - 1)
            left = BitString(payload >> n_right, n_left)
            right = BitString(payload & ((1 << n_right) - 1), n_right)
            encoding = (n_left << (8 * n - 32) | payload << 1 | 1).to_bytes(n, "big")
        for out_bits in self.OUT_BITS:
            spec = HashSpec.production(out_bits)
            assert hash2(spec, enc, n) == sha256_truncated(data, out_bits)
            if n >= 5:
                assert hash2(spec, left, right) == BitString(sha256_truncated(encoding, out_bits), out_bits)

    def test_builtin_chosen_when_the_interpreter_has_one(self):
        try:  # getattr: a dunder name in a class body would be mangled
            builtin = getattr(hashlib, "__get_builtin_constructor")("sha256")
        except ValueError:
            builtin = hashlib.sha256
        assert bits._sha256 is builtin

    @pytest.mark.parametrize("remove", [
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None",
        "import hashlib; del hashlib.__get_builtin_constructor",
    ], ids=["no-builtin-module", "no-builtin-constructor"])
    def test_fallback_without_a_builtin(self, remove):
        """An interpreter without its own SHA-256, or a hashlib without
        ``__get_builtin_constructor``, sends every input to hashlib.sha256
        and keeps every known answer: the production hash2 and counter_hash
        rows and the transcript (whose keys come from the PRNG) of
        tests/fixtures/known_answers.json, checked by the tests of
        test_known_answers.py in a process where the built-in cannot be
        had."""
        tests = Path(__file__).resolve().parent
        code = ("import sys\n"
                f"{remove}\n"
                "import hashlib, json\n"
                "from kimap import bits\n"
                "assert bits._sha256 is hashlib.sha256\n"
                "import test_known_answers as ka\n"
                "fixture = json.loads(ka.FIXTURE.read_text())\n"
                "ka.test_hash2_production_known_answers(fixture)\n"
                "ka.test_counter_hash_production_known_answers(fixture)\n"
                "ka.test_full_transcript_lambda8(fixture)\n"
                "print('fallback ok')\n")
        src = str(Path(bits.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(tests)])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "fallback ok\n"


def load_tool(name):
    """The module of ``tools/<name>.py``, loaded by its path."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The byte-at-a-time toy mixer, from the initial state, as the known-answer
# generator states it.
reference_toy_digest = load_tool("gen_known_answers").toy_digest


class TestToyMixer:
    """The toy digest starts from a cached state for its first bytes (hash2's
    length prefix) and absorbs the rest; it must equal the byte-at-a-time
    reference, whether that state comes from the cache or not."""

    @given(data=st.binary(min_size=0, max_size=80), out_bits=st.integers(1, 64))
    @example(data=b"", out_bits=1)
    @example(data=b"\x01", out_bits=64)
    @example(data=b"\x00\x00", out_bits=16)
    @example(data=b"\xff\x00\xff", out_bits=7)
    @example(data=b"\x00\x00\x00\x10", out_bits=16)
    @example(data=b"\x00\x00\x00\x10\xab", out_bits=33)
    def test_matches_reference(self, data, out_bits):
        want = reference_toy_digest(data, 64, out_bits)
        _toy_head.cache_clear()
        assert _toy_digest(out_bits, data) == want  # cold: the head is absorbed now
        assert _toy_digest(out_bits, data) == want  # warm: the head state is cached

    def test_head_cache_is_bounded(self):
        maxsize = _toy_head.cache_info().maxsize
        assert maxsize is not None
        for n_left in range(301):
            hash2(TOY16, BitString(0, n_left), BitString(1, 8))
            assert _toy_head.cache_info().currsize <= maxsize


class TestCounterHash:
    def test_deterministic(self):
        a, b = BitString(0x11, 8), BitString(0xEE, 8)
        assert counter_hash(TOY8, 2, a, b) == counter_hash(TOY8, 2, a, b)

    def test_counter_separates_sessions(self):
        prng = Prng(7, 0)
        for _ in range(100):
            a = prng_next(prng, 16)
            b = prng_next(prng, 16)
            assert counter_hash(TOY16, 1, a, b) != counter_hash(TOY16, 2, a, b)

    def test_index_must_be_positive(self):
        refused("counter_hash-index-0")

    def test_index_must_fit_32_bits(self):
        refused("counter_hash-index-2^32")


class TestPrng:
    def test_reproducible(self):
        a, b = Prng(42, 3), Prng(42, 3)
        assert [prng_next(a, 16) for _ in range(10)] == [prng_next(b, 16) for _ in range(10)]

    def test_streams_independent(self):
        for pair in range(20):
            a = prng_next(Prng(9, 2 * pair), 64)
            b = prng_next(Prng(9, 2 * pair + 1), 64)
            assert a != b

    @pytest.mark.parametrize("nbits", [1, 8, 64, 128])
    def test_output_length(self, nbits):
        assert len(prng_next(Prng(0, 0), nbits)) == nbits

    def test_nbits_must_be_positive(self):
        refused("prng_next-0-bits")

    @pytest.mark.parametrize("n", [0, -1])
    def test_randbelow_bound_must_be_positive(self, n):
        refused(f"randbelow-{n}")

    def test_randbelow_range_and_determinism(self):
        p, q = Prng(1, 1), Prng(1, 1)
        vals = [p.randbelow(7) for _ in range(200)]
        assert all(0 <= v < 7 for v in vals)
        assert vals == [q.randbelow(7) for _ in range(200)]

    def test_shuffle_is_permutation(self):
        items = list(range(10))
        Prng(4, 0).shuffle(items)
        assert sorted(items) == list(range(10))

    @pytest.mark.parametrize("n", [*range(71), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1024])
    def test_shuffle_draws_are_randbelow_draws(self, n):
        """The shuffle makes the draws a Fisher-Yates loop over randbelow
        makes, counts them alike, and leaves the stream in the state that
        loop does. Sizes cover each draw width's first and last position;
        the stream starts with 0, 3 or 246 bits buffered, so a refill lands
        at a run's first draw, inside a short run, or late in a long one."""
        for offset in (0, 253, 10):
            items, want = list(range(n)), list(range(n))
            with metered(OpMeter()) as m:
                stream = Prng(9, 3)
                if offset:
                    prng_next(stream, offset)
                stream.shuffle(items)
            with metered(OpMeter()) as ref:
                replay = Prng(9, 3)
                if offset:
                    prng_next(replay, offset)
                for i in range(n - 1, 0, -1):
                    j = replay.randbelow(i + 1)
                    want[i], want[j] = want[j], want[i]
            assert items == want, offset
            assert m.snapshot() == ref.snapshot(), offset
            assert stream == replay, offset


class TestMeter:
    def test_counts_only_inside_context(self):
        m = OpMeter()
        xor(BitString(1, 2), BitString(2, 2))  # outside: uncounted
        with metered(m):
            xor(BitString(1, 2), BitString(2, 2))
            hash2(TOY8, BitString(1, 4), BitString(2, 4))
            counter_hash(TOY8, 1, BitString(1, 4), BitString(2, 4))
            prng_next(Prng(0, 0), 8)
        assert (m.hash_calls, m.prng_calls, m.xor_calls) == (2, 1, 1)
        assert m.hash_equivalent == 3

    def test_nested_blocks_restore_the_outer_meter(self):
        outer, inner = OpMeter(), OpMeter()
        with metered(outer) as got:
            assert got is outer
            xor(BitString(1, 2), BitString(2, 2))
            with metered(inner) as got_inner:
                assert got_inner is inner
                xor(BitString(1, 2), BitString(2, 2))
                hash2(TOY8, BitString(1, 4), BitString(2, 4))
            xor(BitString(1, 2), BitString(2, 2))
        xor(BitString(1, 2), BitString(2, 2))  # outside both: uncounted
        assert outer.snapshot() == (0, 0, 2)
        assert inner.snapshot() == (1, 0, 1)

    def test_exception_restores_the_outer_meter(self):
        outer, inner = OpMeter(), OpMeter()
        with metered(outer):
            with pytest.raises(LengthError):
                with metered(inner):
                    xor(BitString(1, 2), BitString(1, 3))
            xor(BitString(1, 2), BitString(2, 2))
        with pytest.raises(RuntimeError):
            with metered(inner):
                raise RuntimeError("leaves the block")
        xor(BitString(1, 2), BitString(2, 2))  # outside both: uncounted
        assert outer.snapshot() == (0, 0, 1)
        assert inner.snapshot() == (0, 0, 0)

    @pytest.mark.parametrize("spec", [TOY8, PROD64])
    def test_hash2_counts_one_hash(self, spec):
        with metered(OpMeter()) as m:
            hash2(spec, BitString(1, 4), BitString(2, 4))
        assert m.snapshot() == (1, 0, 0)

    def test_randbelow_draws_are_prng_next_draws(self):
        """randbelow rejection-samples the stream prng_next reads, and each
        try is one counted PRNG draw; n = 1 draws nothing."""
        bounds = (1, 2, 3, 5, 100, 1000, 1, *range(2, 300))
        with metered(OpMeter()) as m:
            stream = Prng(5, 1)
            got = [stream.randbelow(n) for n in bounds]
        replay, want, draws = Prng(5, 1), [], 0
        for n in bounds:
            v = 0
            while n > 1:
                draws += 1
                v = prng_next(replay, (n - 1).bit_length()).value
                if v < n:
                    break
            want.append(v)
        assert got == want
        assert m.prng_calls == draws


class TestResultsFitTheirWidth:
    """hash2, xor, concat and split build their results without the
    constructor's range check; each result must still be a valid BitString."""

    @given(a=bitstrings, b=bitstrings, raw=st.integers(0, (1 << 256) - 1),
           width=st.integers(1, 256), toy=st.booleans())
    def test_value_fits_length(self, a, b, raw, width, toy):
        spec = HashSpec.toy(min(width, 64)) if toy else HashSpec.production(width)
        ab = concat(a, b)
        results = [hash2(spec, a, b), counter_hash(spec, 1 + raw % 1000, a, b), ab,
                   xor(a, BitString(raw >> (256 - len(a)), len(a))), *split(concat(a, a))]
        if len(ab) % 2 == 0:
            results += split(ab)
        for r in results:
            assert 0 <= r.value < 2 ** len(r)
        assert len(results[0]) == spec.output_len_bits


class TestHashSpecValidation:
    def test_unknown_variant(self):
        refused("hash-variant")

    @pytest.mark.parametrize("case", ["hash-width-0", "hash-width-257"])
    def test_output_width_bounds(self, case):
        refused(case)

    def test_toy_state_bounds(self):
        refused("toy-hash-wider-than-its-state")


# Every call the bits module refuses: (the call, given a fresh stream that it
# must leave as it was; its error class and its message). The one test that
# names a row makes its call, through :func:`refused`.
REFUSED_CALLS = {
    "value-too-wide": (lambda p: BitString(16, 4), LengthError,
                       "value 0x10 does not fit in 4 bits"),
    "value-negative": (lambda p: BitString(-1, 4), LengthError,
                       "value -0x1 does not fit in 4 bits"),
    "length-negative": (lambda p: BitString(0, -1), LengthError, "length must be >= 0"),
    "text-without-length": (lambda p: BitString.from_text("abcd"), ValueError,
                            "missing ':<len>' in bitstring text 'abcd'"),
    # a sign, a 0x prefix, '_' separators or spaces, which to_text would
    # drop, are refused rather than rewritten
    **{f"text-{text}": (lambda p, text=text: BitString.from_text(text), ValueError,
                        f"bitstring text {text!r} is not '<hex digits>:<decimal digits>'")
       for text in ("+1f:8", "0x1f:8", "1_f:8", " 1f:8", "1f: 8", "1f:8 ", "1f:+8", "1f:0_8")},
    "text-uppercase": (lambda p: BitString.from_text("3ACA:16"), ValueError,
                       "bitstring text '3ACA:16' is not in canonical form '3aca:16'"),
    "flip-past-the-end": (lambda p: BitString(0, 3).flip(3), IndexError,
                          "bit index 3 out of range for length 3"),
    "flip-negative": (lambda p: BitString(0, 3).flip(-1), IndexError,
                      "bit index -1 out of range for length 3"),
    "xor-of-4-and-5-bits": (lambda p: xor(BitString(0, 4), BitString(0, 5)), LengthError,
                            "xor of lengths 4 and 5"),
    "split-odd": (lambda p: split(BitString(0b101, 5)), LengthError, "cannot split odd length 5"),
    "counter_hash-index-0": (lambda p: counter_hash(TOY8, 0, BitString(0, 8), BitString(0, 8)),
                             ValueError, "session index must be >= 1"),
    "counter_hash-index-2^32": (lambda p: counter_hash(TOY16, 2**32, BitString(0, 16),
                                                       BitString(0, 16)),
                                LengthError, "session index 4294967296 does not fit in 32 bits"),
    "prng_next-0-bits": (lambda p: prng_next(p, 0), ValueError, "nbits must be >= 1"),
    # no draw is below a bound under 1, so randbelow refuses one before it
    # draws, rather than loop for ever
    "randbelow-0": (lambda p: p.randbelow(0), ValueError, "n must be positive"),
    "randbelow--1": (lambda p: p.randbelow(-1), ValueError, "n must be positive"),
    "hash-variant": (lambda p: HashSpec(8, "sponge"), ParameterError,
                     "unknown hash variant 'sponge'"),
    "hash-width-0": (lambda p: HashSpec.production(0), ParameterError,
                     "hash output width must be 1..256 bits, got 0"),
    "hash-width-257": (lambda p: HashSpec.production(257), ParameterError,
                       "hash output width must be 1..256 bits, got 257"),
    "toy-hash-wider-than-its-state": (lambda p: HashSpec.toy(65), ParameterError,
                                      "toy hash output width must be <= 64 bits, got 65"),
}


def refused(case):
    """Make the refused call of row ``case``: it raises its error with its
    message and leaves the stream it was given as it was."""
    call, error, message = REFUSED_CALLS[case]
    stream = Prng(0, 0)
    before = copy.deepcopy(stream)
    with pytest.raises(error) as err:
        call(stream)
    assert (type(err.value), str(err.value)) == (error, message)
    assert stream == before
