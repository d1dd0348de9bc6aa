import re
import tracemalloc

import numpy as np
import pytest

from d2dreuse import (
    PathLossParams,
    Pattern,
    RateTable,
    Scenario,
    build_gains,
    build_rate_table,
    dbm_to_watts,
    path_loss_db,
    rates_from_allocation,
)
from d2dreuse import model
from d2dreuse.cli import gen_scenario
from d2dreuse.model import EFFICIENCY_FLOOR, GainMatrix, pattern_efficiencies
from d2dreuse.oracle import all_patterns
from d2dreuse.patterns import flip_neighborhood, initial_set


def sinr(u: int, n: int, pattern: Pattern, gains: GainMatrix, powers_w: np.ndarray) -> float:
    """Scalar reference: SINR of the server-n to user-u link under a pattern."""
    if not pattern.is_active(n):
        return 0.0
    active = np.array(pattern.active_set, dtype=int)
    rx_power = powers_w[active] * gains.g[active, u]
    signal = powers_w[n] * gains.g[n, u]
    interference = rx_power.sum() - signal
    return float(signal / (gains.noise_power_w + interference))


def spectral_efficiency(u: int, n: int, pattern: Pattern, gains: GainMatrix, powers_w: np.ndarray) -> float:
    """Scalar reference: link efficiency in bits/s/Hz; zero while user u's
    own relay, server 1+u, transmits."""
    if pattern.is_active(1 + u):
        return 0.0
    val = float(np.log2(1.0 + sinr(u, n, pattern, gains, powers_w)))
    return val if val >= EFFICIENCY_FLOOR else 0.0


def simple_scenario(num_due=2, due_offsets=((10.0, 0.0), (0.0, 10.0)), walls=None):
    positions = np.vstack([[100.0, 100.0], [np.array([100.0, 100.0]) + o for o in due_offsets]])
    powers = np.concatenate([[30.0], np.full(num_due, 20.0)])
    return Scenario(num_due, positions, powers, walls=walls)


class TestUnits:
    def test_dbm_30_is_one_watt(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)

    def test_dbm_0_is_one_milliwatt(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_dbm_noise_psd(self):
        # 10^(-17.4)/1000, checked against an independent evaluation
        assert dbm_to_watts(-174.0) == pytest.approx(3.9810717055349695e-21, rel=1e-9)


class TestPathLoss:
    def test_one_meter_no_walls(self):
        assert path_loss_db(1.0, 0) == pytest.approx(35.3)

    def test_ten_meters(self):
        assert path_loss_db(10.0, 0) == pytest.approx(72.9)

    def test_walls_add_five_db_each(self):
        assert path_loss_db(10.0, 2) == pytest.approx(82.9)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0)
        with pytest.raises(ValueError):
            path_loss_db(-3.0)

    def test_strictly_increasing_in_distance_and_walls(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.uniform(1.0, 500.0)
            extra = rng.uniform(0.1, 100.0)
            assert path_loss_db(d + extra, 0) > path_loss_db(d, 0)
            assert path_loss_db(d, 3) > path_loss_db(d, 2)

    def test_arrays_match_scalar_calls(self):
        d = np.array([[1.0, 10.0, 37.5], [250.0, 2.0, 1.5]])
        walls = np.array([[0, 2, 1], [4, 0, 3]])
        pl = path_loss_db(d, walls)
        assert pl.shape == d.shape
        for idx in np.ndindex(d.shape):
            assert pl[idx] == path_loss_db(float(d[idx]), int(walls[idx]))
        with pytest.raises(ValueError):
            path_loss_db(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            path_loss_db(d, -walls)


class TestGains:
    def test_bs_gain_at_ten_meters(self):
        sc = simple_scenario(num_due=1, due_offsets=((10.0, 0.0),))
        g = build_gains(sc)
        assert g.g[0, 0] == pytest.approx(10 ** (-7.29))

    def test_noise_power_for_20mhz(self):
        sc = simple_scenario()
        g = build_gains(sc)
        # -174 dBm/Hz + 10 log10(2e7) Hz, converted independently
        assert g.noise_power_w == pytest.approx(7.962143e-14, rel=1e-6)

    def test_self_link_is_zero(self):
        sc = simple_scenario()
        g = build_gains(sc)
        for u in range(sc.num_due):
            assert g.g[1 + u, u] == 0.0

    def test_distance_clamp_reported(self):
        sc = simple_scenario(num_due=2, due_offsets=((0.5, 0.0), (0.0, 10.0)))
        g = build_gains(sc)
        assert (0, 0) in g.clamped_links
        assert np.isfinite(g.g).all()

    def test_clamped_links_in_server_then_user_order(self):
        # DUEs 1, 2 and 4 share a spot 0.5 m from the BS; DUE 3 is far away
        sc = simple_scenario(num_due=4, due_offsets=((0.5, 0.0), (0.5, 0.0), (30.0, 0.0), (0.3, 0.4)))
        d = np.linalg.norm(sc.positions[:, None, :] - sc.positions[None, 1:, :], axis=2)
        loop = [
            (n, u)
            for n in range(sc.num_servers)
            for u in range(sc.num_due)
            if n != 1 + u and d[n, u] < 1.0
        ]
        assert len(loop) == 9
        assert build_gains(sc).clamped_links == tuple(loop)


class TestSinr:
    def setup_method(self):
        self.sc = simple_scenario()
        self.gains = build_gains(self.sc)
        self.powers = self.sc.powers_w()

    def test_inactive_server_gives_zero(self):
        p = Pattern.from_bitstring("010")
        assert sinr(0, 0, p, self.gains, self.powers) == 0.0

    def test_no_interference_matches_snr(self):
        p = Pattern.from_bitstring("100")
        expected = self.powers[0] * self.gains.g[0, 0] / self.gains.noise_power_w
        assert sinr(0, 0, p, self.gains, self.powers) == pytest.approx(expected)

    def test_symmetric_interferers_give_unit_sinr(self):
        # two active servers with identical received power and negligible noise
        g = np.array([[1e-8], [1e-8], [0.0]])
        gains = GainMatrix(g=g, noise_power_w=1e-8 * 1.0 * 1e-12)
        powers = np.array([1.0, 1.0, 1.0])
        p = Pattern.from_bitstring("110")
        assert sinr(0, 0, p, gains, powers) == pytest.approx(1.0, abs=1e-9)

    def test_sinr_bounded_by_interference_free_snr(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            mask = int(rng.integers(1, 2 ** self.sc.num_servers))
            p = Pattern(mask, self.sc.num_servers)
            for n in range(self.sc.num_servers):
                for u in range(self.sc.num_due):
                    bound = self.powers[n] * self.gains.g[n, u] / self.gains.noise_power_w
                    val = sinr(u, n, p, self.gains, self.powers)
                    assert 0.0 <= val <= bound + 1e-15

    def test_adding_interferer_never_helps(self):
        p_small = Pattern.from_bitstring("100")
        p_big = Pattern.from_bitstring("101")
        for u in range(self.sc.num_due):
            assert sinr(u, 0, p_big, self.gains, self.powers) <= sinr(u, 0, p_small, self.gains, self.powers)


class TestSpectralEfficiency:
    def test_unit_sinr_is_one_bit(self):
        # BS and a second DUE's server interfere with equal received power
        g = np.array([[1e-8, 0.0], [0.0, 0.0], [1e-8, 0.0]])
        gains = GainMatrix(g=g, noise_power_w=1e-8 * 1e-12)
        powers = np.ones(3)
        p = Pattern.from_bitstring("101")
        assert spectral_efficiency(0, 0, p, gains, powers) == pytest.approx(1.0, abs=1e-9)

    def test_own_relay_active_silences_user(self):
        sc = simple_scenario()
        gains = build_gains(sc)
        p = Pattern.from_bitstring("110")  # BS + DUE 1's own server
        assert spectral_efficiency(0, 0, p, gains, sc.powers_w()) == 0.0

    def test_sinr_three_gives_two_bits(self):
        gains = GainMatrix(g=np.array([[3e-8], [0.0]]), noise_power_w=3e-8 / 3.0)
        powers = np.ones(2)
        p = Pattern.from_bitstring("10")
        assert spectral_efficiency(0, 0, p, gains, powers) == pytest.approx(2.0)


class TestPatternEfficiencies:
    def test_matches_scalar_reference_on_every_pattern(self):
        sc = gen_scenario(4, seed=6, walls_random=4)
        gains = build_gains(sc)
        powers = sc.powers_w()
        pats = all_patterns(sc.num_servers).members
        c = pattern_efficiencies(sc, gains, pats)
        assert c.shape == (sc.num_due, sc.num_servers, len(pats))
        worst, checked = 0.0, 0
        for i, p in enumerate(pats):
            for u in range(sc.num_due):
                for n in range(sc.num_servers):
                    ref = spectral_efficiency(u, n, p, gains, powers)
                    err = abs(c[u, n, i] - ref)
                    assert err <= 1e-12 * abs(ref), (p.bitstring(), u, n, c[u, n, i], ref)
                    if ref:
                        worst = max(worst, err / ref)
                    checked += 1
        assert checked == 31 * 4 * 5
        print(f"pattern_efficiencies: {checked} entries, worst relative error {worst:.2e}")

    @pytest.mark.parametrize("num_due, num_patterns", [(8, 511), (70, 100), (70, 1)])
    def test_blocks_equal_single_pattern_columns(self, num_due, num_patterns):
        # U = 8 fits 511 patterns in one partial block; at U = 70 (N = 71 > 64)
        # 100 patterns are several blocks and a remainder
        sc = gen_scenario(num_due, seed=5, walls_random=4)
        gains = build_gains(sc)
        n = sc.num_servers
        rng = np.random.default_rng(num_due)
        masks = {1 | 1 << (n - 1)}  # the BS and the last relay, bit 70 at U = 70
        if num_patterns > 1:
            masks.add((1 << n) - 1)  # every server on
        while len(masks) < num_patterns:
            masks.add(int.from_bytes(rng.bytes((n + 7) // 8), "little") % (1 << n) or 1)
        pats = [Pattern(m, n) for m in sorted(masks)]
        step = max(1, model._BLOCK_ENTRIES // (n * sc.num_due))
        assert num_patterns == 1 or num_patterns % step
        c = pattern_efficiencies(sc, gains, pats)
        assert c.shape == (sc.num_due, n, num_patterns)
        for k, p in enumerate(pats):
            assert np.array_equal(c[:, :, k], pattern_efficiencies(sc, gains, [p])[:, :, 0]), k
        powers = sc.powers_w()
        for k, p in enumerate(pats[:3]):
            on = p.bits().astype(bool)
            assert not c[:, ~on, k].any()
            assert not c[on[1:], :, k].any()
            for u, srv in zip(rng.integers(sc.num_due, size=20).tolist(), rng.integers(n, size=20).tolist()):
                ref = spectral_efficiency(u, srv, p, gains, powers)
                assert abs(c[u, srv, k] - ref) <= 1e-12 * abs(ref)

    def test_peak_memory_is_about_the_output(self):
        sc = gen_scenario(40, seed=92)
        gains = build_gains(sc)
        start = initial_set(sc.num_due)
        cands = start.union(p for n in range(sc.num_servers) for p in flip_neighborhood(start, n)).members
        step = max(1, model._BLOCK_ENTRIES // (sc.num_servers * sc.num_due))
        assert len(cands) >= 10 * step
        tracemalloc.start()
        try:
            c = pattern_efficiencies(sc, gains, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * c.nbytes, (peak, c.nbytes)


class TestRateTable:
    def setup_method(self):
        self.sc = simple_scenario()
        self.gains = build_gains(self.sc)

    def test_bs_only_pattern_has_zero_relay_columns(self):
        table = build_rate_table(self.sc, self.gains, [Pattern.from_bitstring("100")])
        assert np.all(table.c[:, 1:, 0] == 0)
        assert np.all(table.c[:, 0, 0] > 0)

    def test_transmitting_due_row_is_zero(self):
        table = build_rate_table(self.sc, self.gains, [Pattern.from_bitstring("110")])
        assert np.all(table.c[0, :, 0] == 0)

    def test_inactive_server_columns_are_zero(self):
        pats = [Pattern.from_bitstring("100"), Pattern.from_bitstring("101")]
        table = build_rate_table(self.sc, self.gains, pats)
        for i, p in enumerate(pats):
            for n in range(self.sc.num_servers):
                if not p.is_active(n):
                    assert np.all(table.c[:, n, i] == 0)

    def test_permutation_permutes_slices(self):
        pats = [Pattern.from_bitstring("100"), Pattern.from_bitstring("101"), Pattern.from_bitstring("110")]
        t1 = build_rate_table(self.sc, self.gains, pats)
        t2 = build_rate_table(self.sc, self.gains, pats[::-1])
        assert np.array_equal(t1.c[:, :, 0], t2.c[:, :, 2])
        assert np.array_equal(t1.c[:, :, 1], t2.c[:, :, 1])

    def test_numpy_integer_masks_give_the_same_table(self):
        pats = [Pattern(m, 3) for m in (1, 3, 5)]
        table = build_rate_table(self.sc, self.gains, [Pattern(np.int64(p.mask), 3) for p in pats])
        assert np.array_equal(table.c, build_rate_table(self.sc, self.gains, pats).c)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            build_rate_table(self.sc, self.gains, [Pattern.from_bitstring("100")] * 2)


def synthetic_table(c, bandwidth=2.0e7):
    c = np.asarray(c, dtype=float)
    n_servers = c.shape[1]
    pats = tuple(Pattern(i + 1, n_servers) for i in range(c.shape[2]))
    return RateTable(patterns=pats, c=c, bandwidth_hz=bandwidth)


class TestRatesFromAllocation:
    def test_zero_allocation(self):
        table = synthetic_table(np.zeros((2, 3, 1)))
        rates = rates_from_allocation(table, np.zeros((2, 3, 1)))
        assert np.all(rates.r_bar == 0) and np.all(rates.r_tilde == 0) and np.all(rates.r_eff == 0)

    def test_full_time_single_user(self):
        c = np.zeros((1, 2, 1))
        c[0, 0, 0] = 2.0
        table = synthetic_table(c)
        y = np.zeros((1, 2, 1))
        y[0, 0, 0] = 1.0
        rates = rates_from_allocation(table, y)
        assert rates.r_bar[0] == pytest.approx(40e6)
        assert rates.r_eff[0] == pytest.approx(40e6)

    def test_relay_chain_subtraction(self):
        # DUE 2 receives 30 Mbps from the BS and forwards 10 Mbps to DUE 1
        c = np.zeros((2, 3, 1))
        c[1, 0, 0] = 3.0  # BS -> DUE 2
        c[0, 2, 0] = 2.0  # DUE 2's server -> DUE 1
        table = synthetic_table(c)
        y = np.zeros((2, 3, 1))
        y[1, 0, 0] = 0.5
        y[0, 2, 0] = 0.25
        rates = rates_from_allocation(table, y)
        assert rates.r_eff[1] == pytest.approx(20e6)
        assert rates.r_eff[0] == pytest.approx(10e6)

    def test_linearity_in_y(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(0, 5, size=(2, 3, 2))
        table = synthetic_table(c)
        y = rng.uniform(0, 0.3, size=(2, 3, 2))
        r1 = rates_from_allocation(table, y)
        r2 = rates_from_allocation(table, 0.5 * y)
        assert np.allclose(r2.r_bar, 0.5 * r1.r_bar)
        assert np.allclose(r2.r_tilde, 0.5 * r1.r_tilde)
        assert np.allclose(r2.r_eff, 0.5 * r1.r_eff)


class TestScenarioSerialization:
    def test_round_trip(self, tmp_path):
        sc = simple_scenario(walls=np.array([[0, 1], [2, 0], [0, 0]]))
        path = tmp_path / "scenario.json"
        sc.save(path)
        sc2 = Scenario.load(path)
        assert sc2.num_due == sc.num_due
        assert np.array_equal(sc2.positions, sc.positions)
        assert np.array_equal(sc2.walls, sc.walls)
        assert sc2.pathloss == sc.pathloss

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(0, np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            Scenario(1, np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            Scenario(1, np.zeros((2, 2)), np.zeros(2), bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            Scenario(1, np.zeros((2, 2)), np.zeros(2), walls=np.array([[-1], [0]]))

    @pytest.mark.parametrize("change, message", [
        ({"positions_m": [[0.0, 0.0], [1.0]]}, "scenario positions_m must be an array of numbers"),
        ({"walls": [[0, 1.5], [2, 0], [0, 0]]}, "scenario walls must be an array of integers"),
        ({"pathloss": {"a": True}}, "scenario pathloss.a must be a number, got true"),
        ({"seed": [1]}, "scenario seed must be an integer, got [1]"),
        ({"num_bs": 2}, "scenario num_bs must be 1, got 2"),
        ({"num_bs": 1.0}, "scenario num_bs must be an integer, got 1.0"),
        ({"pathloss": 5}, "scenario section pathloss must be an object"),
    ])
    def test_from_dict_names_the_bad_key(self, change, message):
        doc = {**simple_scenario().to_dict(), **change}
        with pytest.raises(ValueError, match=re.escape(message)):
            Scenario.from_dict(doc)
