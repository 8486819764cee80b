import pytest

from latcensus.rng import SplitMix64


def test_rng_reproducible():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]
    # fixed spot values pin the stream across releases
    c = SplitMix64(0)
    first = c.next_u64()
    assert 0 <= first < 2**64
    assert first == SplitMix64(0).next_u64()


def test_randbelow_range_and_determinism():
    rng = SplitMix64(7)
    vals = [rng.randbelow(12) for _ in range(2000)]
    assert min(vals) == 0 and max(vals) == 11
    rng2 = SplitMix64(7)
    assert [rng2.randbelow(12) for _ in range(5)] == vals[:5]
    assert SplitMix64(1).randbelow(1) == 0
    with pytest.raises(ValueError):
        SplitMix64(1).randbelow(0)


def test_randbelow_streams_pinned():
    # draws recorded before multi-word sampling: n <= 2^64 keeps its stream;
    # the last four (n = 1, 2, 41 and the two-word 2^64 + 13), and the state
    # they leave, before the one-word path was inlined
    rng = SplitMix64(2026)
    got = [rng.randbelow(n) for n in (12, 10**6, 2**61 - 1, 2**64 - 59, 2**64, 3, 1, 2, 41, 2**64 + 13)]
    assert got == [7, 214301, 781126551686264979, 7097835237234771186, 14602530494585831241, 0,
                   0, 0, 5, 16179100566998700319]
    assert rng.next_u64() == 6182220553586467693


def test_randbelow_above_two_to_the_64():
    rng = SplitMix64(5)
    n = 10**20
    vals = [rng.randbelow(n) for _ in range(200)]
    assert all(0 <= v < n for v in vals)
    assert max(vals) > n // 2 and min(vals) < n // 2  # both halves are reached
    # two words per candidate, most significant first
    words = SplitMix64(5)
    first = (words.next_u64() << 64) | words.next_u64()
    assert first < 2**128 - 2**128 % n  # accepted at once
    assert vals[0] == first % n
    assert SplitMix64(3).randbelow(2**200) < 2**200


def test_randbelow_roughly_uniform():
    rng = SplitMix64(123)
    n, draws = 10, 20000
    counts = [0] * n
    for _ in range(draws):
        counts[rng.randbelow(n)] += 1
    for c in counts:
        assert abs(c - draws / n) < 5 * (draws / n) ** 0.5
