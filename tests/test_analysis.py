"""Analysis helpers: histograms, AES recovery, trace scoring."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.aes_recovery import (
    nibble_accuracy,
    recover_first_round_nibbles,
    recover_key_upper_nibbles,
    render_heatmap,
)
from repro.analysis.histogram import ascii_histogram, histogram, resolution_stats
from repro.analysis.traces import (
    binary_trace_accuracy,
    branch_trace_accuracy,
    coverage,
)
from repro.victims.aes_ttable import TABLE_BYTE_POSITIONS, TTableAes


class TestResolutionStats:
    def test_basic_fractions(self):
        stats = resolution_stats([0, 0, 1, 1, 1, 5, 200])
        assert stats.zero_fraction == pytest.approx(2 / 7)
        assert stats.single_fraction == pytest.approx(3 / 7)
        assert stats.under_10_fraction == pytest.approx(4 / 7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resolution_stats([])

    def test_histogram_buckets(self):
        buckets = histogram([0, 1, 1, 5, 20, 50, 500])
        assert buckets["0"] == 1
        assert buckets["1"] == 2
        assert buckets["2-9"] == 1
        assert buckets["10-31"] == 1
        assert buckets["32-99"] == 1
        assert buckets["100+"] == 1

    def test_ascii_histogram_mentions_counts(self):
        art = ascii_histogram([1, 1, 1, 0])
        assert "3" in art and "1" in art

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1))
    @settings(max_examples=50)
    def test_histogram_conserves_samples(self, samples):
        assert sum(histogram(samples).values()) == len(samples)


def synthetic_trace(aes, plaintext, *, smear=0):
    """Perfect per-access samples for one encryption, with an optional
    deterministic smear (next access visible one sample early)."""
    trace = aes.encrypt_trace(plaintext)
    samples = []
    for position, (rnd, table, index) in enumerate(trace.accesses):
        hits = [[False] * 16 for _ in range(4)]
        hits[table][index >> 4] = True
        if smear and position + 1 < len(trace.accesses):
            _, t2, i2 = trace.accesses[position + 1]
            hits[t2][i2 >> 4] = True
        samples.append(hits)
    return samples


def random_plaintexts(seed, n=5):
    import random as _random

    rng = _random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(16)) for _ in range(n)]


class TestAesRecovery:
    KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    PT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_perfect_trace_recovers_state_nibbles(self):
        aes = TTableAes(self.KEY)
        samples = synthetic_trace(aes, self.PT)
        recovered = recover_first_round_nibbles(samples)
        expected = aes.first_round_upper_nibbles(self.PT)
        # The FIPS plaintext's first-round nibbles are all distinct per
        # table, so a clean trace recovers them exactly.
        assert recovered == expected

    def test_majority_vote_recovers_key(self):
        aes = TTableAes(self.KEY)
        plaintexts = random_plaintexts(3)
        traces = [synthetic_trace(aes, pt) for pt in plaintexts]
        recovered = recover_key_upper_nibbles(traces, plaintexts)
        assert nibble_accuracy(recovered, self.KEY) >= 0.9

    def test_vote_overrides_smeared_traces(self):
        """Clean traces outvote smeared ones."""
        aes = TTableAes(self.KEY)
        plaintexts = random_plaintexts(9)
        traces = [
            synthetic_trace(aes, pt, smear=(i < 2))
            for i, pt in enumerate(plaintexts)
        ]
        recovered = recover_key_upper_nibbles(traces, plaintexts)
        accuracy = nibble_accuracy(recovered, self.KEY)
        assert accuracy >= 0.9

    def test_short_trace_gives_none(self):
        recovered = recover_first_round_nibbles(
            [[[False] * 16 for _ in range(4)]]
        )
        assert recovered == [None] * 16

    def test_nibble_accuracy_counts_correct(self):
        truth = bytes(range(16))
        guesses = [k >> 4 for k in truth]
        guesses[3] = (guesses[3] + 1) % 16
        guesses[7] = None
        assert nibble_accuracy(guesses, truth) == pytest.approx(14 / 16)

    def test_heatmap_dimensions(self):
        aes = TTableAes(self.KEY)
        samples = synthetic_trace(aes, self.PT)
        art = render_heatmap(samples, table=0, max_cols=40)
        assert art.count("\n") == 15

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            recover_key_upper_nibbles([[]], [b"x" * 16, b"y" * 16])

    @given(st.binary(min_size=16, max_size=16),
           st.binary(min_size=16, max_size=16))
    @settings(max_examples=20)
    def test_single_perfect_trace_mostly_recovers(self, key, pt):
        """Property: a noise-free trace recovers most nibbles for any
        key/plaintext.  (Consecutive equal first-round nibbles within a
        table are indistinguishable from the speculative-preview
        artifact per trace; the 5-trace vote removes them in the full
        attack.)"""
        aes = TTableAes(key)
        samples = synthetic_trace(aes, pt)
        recovered = recover_first_round_nibbles(samples)
        expected = aes.first_round_upper_nibbles(pt)
        correct = sum(
            1 for r, e in zip(recovered, expected) if r == e
        )
        assert correct >= 10


class TestTraceScoring:
    def test_coverage(self):
        assert coverage([1, None, 0], [1, 0, 0, 1]) == pytest.approx(0.5)

    def test_coverage_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            coverage([1], [])

    def test_binary_accuracy_over_recovered_only(self):
        recovered = [1, None, 0, 1]
        truth = [1, 1, 1, 1]
        assert binary_trace_accuracy(recovered, truth) == pytest.approx(2 / 3)

    def test_branch_accuracy_missing_counts_wrong(self):
        truth = [True, False, True]
        assert branch_trace_accuracy([True], truth) == pytest.approx(1 / 3)
