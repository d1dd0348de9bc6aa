import numpy as np
import pytest

from d2dreuse import Pattern, PatternSet, flip_neighborhood, hamming, initial_set, trim


class TestPattern:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            Pattern(0, 3)

    def test_hundred_and_one_servers(self):
        # masks are Python ints, so no server count is too large to pack
        bits = "1" + "0" * 63 + "1" + "0" * 35 + "1"
        p = Pattern.from_bitstring(bits)
        assert p.n_servers == 101 and p.bitstring() == bits
        assert p.active_set == (0, 64, 100)
        assert p.bits().sum() == 3
        v = PatternSet((p, Pattern.unit(100, 101)))
        assert [q.active_set for q in flip_neighborhood(v, 100)] == [(0, 64)]
        assert [q.active_set for q in flip_neighborhood(v, 99)] == [(0, 64, 99, 100), (99, 100)]

    def test_numpy_integer_indices_past_64_servers(self):
        # a numpy integer index must not shift in int64, where bit 70 is lost
        p = Pattern.from_active(np.array([0, 46, 70]), 71)
        assert p.active_set == (0, 46, 70)
        assert p.is_active(np.int64(70)) and p.is_active(np.int64(46)) and not p.is_active(np.int64(45))
        assert p.flip(np.int64(70)).active_set == (0, 46)
        assert p.flip(np.int64(69)).active_set == (0, 46, 69, 70)
        assert Pattern.unit(np.int64(70), 71).active_set == (70,)
        v = PatternSet((Pattern(1, 71),))
        assert [q.active_set for q in flip_neighborhood(v, np.int64(70))] == [(0, 70)]

    def test_bitstring_round_trip(self):
        p = Pattern.from_bitstring("10110")
        assert p.bitstring() == "10110"
        assert p.active_set == (0, 2, 3)

    def test_bitstring_matches_the_bit_loop_for_every_mask_up_to_twelve_servers(self):
        for n in range(1, 13):
            for mask in range(1, 1 << n):
                loop = "".join("1" if (mask >> k) & 1 else "0" for k in range(n))
                assert Pattern(mask, n).bitstring() == loop

    def test_equality_by_content(self):
        assert Pattern.from_bitstring("101") == Pattern.from_active([0, 2], 3)
        assert Pattern.from_bitstring("101") != Pattern.from_bitstring("110")

    def test_flip_to_zero_rejected(self):
        with pytest.raises(ValueError):
            Pattern.from_bitstring("010").flip(1)


class TestPatternSet:
    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            PatternSet(())
        with pytest.raises(ValueError):
            PatternSet((Pattern(1, 2), Pattern(1, 2)))

    def test_union_dedups_preserving_order(self):
        s = PatternSet((Pattern(1, 3), Pattern(2, 3)))
        s2 = s.union([Pattern(2, 3), Pattern(4, 3)])
        assert [p.mask for p in s2] == [1, 2, 4]


class TestInitialSet:
    def test_two_users(self):
        s = initial_set(2)
        assert {p.bitstring() for p in s} == {"110", "101"}

    def test_single_user(self):
        s = initial_set(1)
        assert [p.bitstring() for p in s] == ["11"]

    def test_size_is_user_count(self):
        for u in range(1, 8):
            assert len(initial_set(u)) == u

    def test_every_member_contains_bs_bit(self):
        for u in range(1, 6):
            assert all(p.is_active(0) for p in initial_set(u))


class TestHamming:
    def test_examples(self):
        a, b = Pattern.from_bitstring("110"), Pattern.from_bitstring("101")
        assert hamming(a, a) == 0
        assert hamming(a, b) == 2
        assert hamming(Pattern.from_bitstring("100"), Pattern.from_bitstring("111")) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming(Pattern(1, 2), Pattern(1, 3))


class TestFlipNeighborhood:
    def test_turns_server_on(self):
        v = PatternSet((Pattern.from_bitstring("110"),))
        assert [p.bitstring() for p in flip_neighborhood(v, 2)] == ["111"]

    def test_singleton_flip_excluded(self):
        v = PatternSet((Pattern.from_bitstring("100"),))
        assert flip_neighborhood(v, 0) == []

    def test_two_member_set(self):
        v = PatternSet((Pattern.from_bitstring("110"), Pattern.from_bitstring("101")))
        assert {p.bitstring() for p in flip_neighborhood(v, 1)} == {"100", "111"}

    def test_outputs_at_hamming_distance_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            masks = rng.choice(range(1, 32), size=4, replace=False)
            v = PatternSet(tuple(Pattern(int(m), 5) for m in masks))
            for n in range(5):
                for cand in flip_neighborhood(v, n):
                    assert any(hamming(cand, m) == 1 for m in v)


class TestTrim:
    def test_drops_negligible_shares(self):
        v = PatternSet(tuple(Pattern(m, 3) for m in (1, 2, 4)))
        kept = trim(v, [0.5, 0.5, 1e-6], 1e-4)
        assert [p.mask for p in kept] == [1, 2]

    def test_single_pattern_unchanged(self):
        v = PatternSet((Pattern(1, 1),))
        assert trim(v, [1.0], 1e-4).members == v.members

    def test_degenerate_keeps_largest_share(self):
        v = PatternSet((Pattern(1, 3), Pattern(2, 3)))
        kept = trim(v, [1e-5, 2e-5], 1e-4)
        assert [p.mask for p in kept] == [2]
        # tie goes to the lower index
        kept = trim(v, [1e-5, 1e-5], 1e-4)
        assert [p.mask for p in kept] == [1]

    def test_output_subset_and_mass_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            v = PatternSet(tuple(Pattern(m + 1, 4) for m in range(k)))
            x = rng.dirichlet(np.ones(k))
            kept = trim(v, x, 1e-4)
            assert set(p.mask for p in kept) <= set(p.mask for p in v)
            surviving = sum(xi for p, xi in zip(v, x) if p in kept)
            assert surviving >= 1 - k * 1e-4
