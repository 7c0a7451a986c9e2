"""One-call key draws and the header decode memo against their references.

Two helpers on the query path trade per-call work for a single cheaper
call, and each must give exactly what the old code gave:

* ``make_keys`` and ``pick_queries`` draw a key in one ``getrandbits``
  call; the keys must equal the byte-at-a-time draws they replaced and the
  generator must end in the same state, so every later draw (and so every
  workload, golden number and ledger digest) is unchanged;
* :meth:`DataStructureHeader.decode` memoizes ``bytes`` lines; it must
  equal an uncached decode field by field, share one instance across equal
  lines, decode a fresh header once the version word changes, and stay
  within its bound.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import header as header_mod  # noqa: E402
from repro.core.header import (  # noqa: E402
    HEADER_BYTES,
    VERSION_OFFSET,
    DataStructureHeader,
)
from repro.errors import DataStructureError  # noqa: E402
from repro.workloads.generator import make_keys, pick_queries  # noqa: E402


def _byte_draws(rng: random.Random, length: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(length))


def _one_call(rng: random.Random, length: int) -> bytes:
    """The draw ``make_keys`` and ``pick_queries`` make."""
    return rng.getrandbits(32 * length).to_bytes(4 * length, "little")[3::4]


def _reference_make_keys(count, length, *, seed):
    rng = random.Random(seed)
    keys, out = set(), []
    while len(out) < count:
        key = _byte_draws(rng, length)
        if key not in keys:
            keys.add(key)
            out.append(key)
    return out


def _reference_pick_queries(keys, count, *, miss_ratio, key_length, seed):
    rng = random.Random(seed)
    stream = [keys[rng.randrange(len(keys))] for _ in range(count)]
    n_miss = int(count * miss_ratio)
    for i in rng.sample(range(count), n_miss) if n_miss else []:
        stream[i] = _byte_draws(rng, key_length)
    return stream


# --------------------------------------------------------------------- #
# Key draws
# --------------------------------------------------------------------- #


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    lengths=st.lists(st.integers(min_value=0, max_value=130), max_size=8),
)
def test_one_call_draw_matches_byte_draws(seed, lengths):
    fast, slow = random.Random(seed), random.Random(seed)
    for length in [0] + lengths:  # length 0 draws nothing
        assert _one_call(fast, length) == _byte_draws(slow, length)
        assert fast.getstate() == slow.getstate()
    # Interleaved with other draws the streams stay in lockstep.
    assert fast.random() == slow.random()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    count=st.integers(min_value=1, max_value=40),
    length=st.integers(min_value=0, max_value=24),
    miss_ratio=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_generators_match_byte_draws(seed, count, length, miss_ratio):
    count = 1 if length == 0 else count  # one distinct empty key
    keys = make_keys(count, length, seed=seed)
    assert keys == _reference_make_keys(count, length, seed=seed)
    kwargs = dict(miss_ratio=miss_ratio, key_length=length, seed=seed + 1)
    assert pick_queries(keys, 3 * count, **kwargs) == _reference_pick_queries(
        keys, 3 * count, **kwargs
    )


# --------------------------------------------------------------------- #
# Header decode memo
# --------------------------------------------------------------------- #

lines = st.binary(min_size=HEADER_BYTES, max_size=HEADER_BYTES)


def _fields(header):
    return [getattr(header, f.name) for f in dataclasses.fields(header)]


@settings(max_examples=300, deadline=None)
@given(raw=lines, version=st.integers(min_value=0, max_value=2**64 - 1))
def test_decode_memo_matches_uncached_decode(raw, version):
    header = DataStructureHeader.decode(raw)
    assert _fields(header) == _fields(header_mod._decode(raw))
    # An equal line (another bytes object) returns the shared instance; a
    # bytearray takes the uncached path to an equal header.
    assert DataStructureHeader.decode(bytes(bytearray(raw))) is header
    assert DataStructureHeader.decode(bytearray(raw)) == header
    # A version-word write makes a new line and so a new header.
    written = (
        raw[:VERSION_OFFSET]
        + version.to_bytes(8, "little")
        + raw[VERSION_OFFSET + 8 :]
    )
    fresh = DataStructureHeader.decode(written)
    assert fresh.version == version
    if written != raw:
        assert fresh is not header
        assert _fields(fresh) == _fields(header_mod._decode(written))
    size = header_mod._decode_line.cache_info().currsize
    assert size <= header_mod._DECODE_MEMO_SIZE


def test_decode_memo_stays_bounded():
    bound = header_mod._DECODE_MEMO_SIZE
    for i in range(bound + 16):
        DataStructureHeader.decode(i.to_bytes(HEADER_BYTES, "little"))
    assert header_mod._decode_line.cache_info().currsize == bound


@pytest.mark.parametrize("kind", [bytes, bytearray])
def test_decode_of_a_short_line_raises(kind):
    with pytest.raises(DataStructureError):
        DataStructureHeader.decode(kind(HEADER_BYTES - 1))
