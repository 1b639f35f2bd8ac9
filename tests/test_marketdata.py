import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crossbt.marketdata import (
    BadCalendar,
    BadPrice,
    BadSpec,
    HoleInPanel,
    PriceMatrix,
    SynthSpec,
    descriptive_stats,
    generate_synthetic,
    load_prices_csv,
    load_sector_map,
    write_prices_csv,
    write_sector_map,
)

from oracles import max_drawdown_double_loop


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,X,Y\n1,10.0,20.0\n2,11.0,21.0\n3,12.0,22.0\n")
        pm = load_prices_csv(p)
        assert pm.n_days == 3
        assert pm.n_assets == 2
        assert pm.assets == ("X", "Y")
        assert pm.prices[1, 1] == 21.0

    def test_empty_cell_is_hole(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,X,Y\n1,10.0,20.0\n2,,21.0\n")
        with pytest.raises(HoleInPanel) as err:
            load_prices_csv(p)
        assert err.value.asset == "X"
        assert err.value.date == "2"

    def test_short_row_is_hole(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,X,Y\n1,10.0,20.0\n2,11.0\n")
        with pytest.raises(HoleInPanel):
            load_prices_csv(p)

    def test_zero_price_rejected(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,X,Y\n1,10.0,0.0\n2,11.0,21.0\n")
        with pytest.raises(BadPrice):
            load_prices_csv(p)

    def test_negative_and_nan_rejected(self, tmp_path):
        with pytest.raises(BadPrice):
            load_prices_csv(_write(tmp_path / "a.csv", "date,X\n1,-3.0\n2,1.0\n"))
        with pytest.raises(BadPrice):
            load_prices_csv(_write(tmp_path / "b.csv", "date,X\n1,nan\n2,1.0\n"))

    def test_extra_cells_rejected(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,X,Y\n1,10.0,20.0,30.0\n")
        with pytest.raises(ValueError):
            load_prices_csv(p)

    def test_unsorted_dates_rejected(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,X\n2,10.0\n1,11.0\n")
        with pytest.raises(BadCalendar):
            load_prices_csv(p)

    def test_duplicate_dates_rejected(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,X\n1,10.0\n1,11.0\n")
        with pytest.raises(BadCalendar):
            load_prices_csv(p)

    def test_iso_dates_accepted(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,X\n2024-01-02,10.0\n2024-01-03,11.0\n")
        pm = load_prices_csv(p)
        assert pm.dates == ("2024-01-02", "2024-01-03")

    def test_blank_header_ticker_named(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,A,B,\n1,10.0,20.0\n2,11.0,21.0\n")
        with pytest.raises(ValueError, match="header column 4 has no ticker"):
            load_prices_csv(p)

    def test_sector_listed_twice_named(self, tmp_path):
        s = _write(tmp_path / "s.csv", "ticker,sector\nA,X\nB,Y\nA,Z\n")
        with pytest.raises(ValueError, match="ticker 'A' listed twice"):
            load_sector_map(s)

    def test_blank_sector_named(self, tmp_path):
        s = _write(tmp_path / "s.csv", "ticker,sector\nA,X\nB, \n")
        with pytest.raises(ValueError, match="ticker 'B' has a blank sector"):
            load_sector_map(s)

    def test_ticker_without_sector_named(self, tmp_path):
        s = _write(tmp_path / "s.csv", "ticker,sector\nA\nB,Y\n")
        with pytest.raises(ValueError, match=f"^{re.escape(s)}: ticker 'A' has a blank sector$"):
            load_sector_map(s)

    def test_header_ticker_listed_twice_named(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,A,B,A\n1,10.0,20.0,30.0\n2,11.0,21.0,31.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(p)}: ticker 'A' listed twice in the header$"):
            load_prices_csv(p)

    def test_sector_sidecar(self, tmp_path):
        p = _write(tmp_path / "p.csv", "date,X,Y\n1,10.0,20.0\n2,11.0,21.0\n")
        s = _write(tmp_path / "s.csv", "ticker,sector\nX,tech\nY,energy\n")
        pm = load_prices_csv(p, s)
        assert pm.sectors == {"X": "tech", "Y": "energy"}


def test_roundtrip_full_precision(tmp_path, bucket_universe):
    path = tmp_path / "panel.csv"
    write_prices_csv(bucket_universe, str(path))
    reloaded = load_prices_csv(str(path))
    assert reloaded.dates == bucket_universe.dates
    assert reloaded.assets == bucket_universe.assets
    assert np.array_equal(reloaded.prices, bucket_universe.prices)


#: Each malformed row the loader fuzz writes, with the error that names it
#: and its message, given the row's date.
ROW_FAULTS = {
    "short": (HoleInPanel, "^missing price for asset 'A003' on date '{date}'$"),
    "long": (ValueError, ": row '{date}' has more cells than the header$"),
    "iso_date": (BadCalendar, "^dates not strictly increasing at "),
}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    bom=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    blanks=st.lists(st.integers(1, 26), max_size=3),
    fault=st.sampled_from([None, *ROW_FAULTS]),
    row=st.integers(1, 25),
)
def test_csv_loader_reads_the_panel_or_names_the_fault(tmp_path, bom, newline, blanks, fault, row):
    # A BOM, blank lines and either line ending load the written panel; a
    # short or long row, or an ISO date among integer dates, is named. With
    # 25 days the integer labels alone are out of order as text ("9" > "10").
    panel = generate_synthetic(SynthSpec(n_assets=4, n_days=25, seed=11))
    path = tmp_path / "prices.csv"
    write_prices_csv(panel, str(path))
    lines = path.read_text().splitlines()
    date, *cells = lines[row].split(",")
    lines[row] = ",".join({
        None: [date, *cells],
        "short": [date, *cells[:-1]],
        "long": [date, *cells, "1.0"],
        "iso_date": ["2020-01-01", *cells],
    }[fault])
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    path.write_text("\ufeff" * bom + newline.join(lines) + newline, encoding="utf-8", newline="")
    if fault is not None:
        error, message = ROW_FAULTS[fault]
        with pytest.raises(error, match=message.format(date=date)):
            load_prices_csv(str(path))
        return
    loaded = load_prices_csv(str(path))
    assert (loaded.dates, loaded.assets) == (panel.dates, panel.assets)
    assert np.array_equal(loaded.prices, panel.prices)


def test_sector_map_roundtrip(tmp_path, bucket_universe):
    path = tmp_path / "sectors.csv"
    write_sector_map(bucket_universe.sectors, str(path))
    assert load_sector_map(str(path)) == bucket_universe.sectors


class TestSynthetic:
    def test_deterministic_bitwise(self):
        spec = SynthSpec(n_assets=4, n_days=50, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.prices, b.prices)

    def test_zero_vol_zero_drift_constant(self):
        spec = SynthSpec(n_assets=3, n_days=40, seed=1, annual_vol=0.0, annual_drift=0.0)
        pm = generate_synthetic(spec)
        assert np.allclose(pm.prices, pm.prices[0], rtol=0, atol=0)

    def test_sampled_vol_matches_target(self):
        # Monte Carlo check against the generator's own parameters.
        spec = SynthSpec(n_assets=6, n_days=1258, seed=17, annual_vol=0.30)
        pm = generate_synthetic(spec)
        logret = np.diff(np.log(pm.prices), axis=0)
        realised = np.std(logret, axis=0, ddof=1) * math.sqrt(252)
        assert np.all(np.abs(realised - 0.30) < 0.04)

    def test_correlation_target_in_expectation(self):
        spec = SynthSpec(n_assets=10, n_days=3000, seed=3, correlation=0.5)
        pm = generate_synthetic(spec)
        logret = np.diff(np.log(pm.prices), axis=0)
        corr = np.corrcoef(logret.T)
        off = corr[np.triu_indices(10, k=1)]
        assert abs(off.mean() - 0.5) < 0.05

    def test_invariants_validated(self):
        with pytest.raises(BadSpec):
            SynthSpec(n_assets=1, n_days=10, seed=0)
        with pytest.raises(BadSpec):
            SynthSpec(n_assets=2, n_days=1, seed=0)
        with pytest.raises(BadSpec):
            SynthSpec(n_assets=2, n_days=10, seed=0, correlation=1.0)
        with pytest.raises(BadSpec):
            SynthSpec(n_assets=2, n_days=10, seed=0, annual_vol=-0.1)

    @pytest.mark.parametrize("key", ["n_assets", "n_days", "seed", "n_sectors"])
    @pytest.mark.parametrize("value", [4.0, 4.5, True, "4", None])
    def test_count_that_is_not_an_int_refused(self, key, value):
        # A float count would label sectors SEC0.0, ...; a bool would read as 1.
        args = {"n_assets": 4, "n_days": 10, "seed": 0, key: value}
        with pytest.raises(BadSpec, match=f"^synthetic.{key} must be an int, got {re.escape(repr(value))}$"):
            SynthSpec(**args)

    @pytest.mark.parametrize("args, message", [
        ({"annual_drift": {"SEC0": 0.1}},
         "synthetic.annual_drift must be a number or a map with every sector label, got {'SEC0': 0.1}"),
        ({"sectors": ("a", "a", "b", "c"), "annual_drift": {"a": 0.1, "b": 0.2, "SEC2": 0.0}},
         "synthetic.annual_drift must be a number or a map with every sector label, got "
         "{'a': 0.1, 'b': 0.2, 'SEC2': 0.0}"),
        ({"annual_vol": (0.2, 0.2, 0.2)}, "synthetic.annual_vol must be a number or one number per asset, "
         "got (0.2, 0.2, 0.2)"),
        ({"annual_vol": (0.2, -0.1, 0.2, 0.2)}, "synthetic.annual_vol must be >= 0, got (0.2, -0.1, 0.2, 0.2)"),
        ({"start_price": math.inf}, "synthetic.start_price must be finite, got inf"),
        ({"annual_drift": {"SEC0": math.nan}}, "synthetic.annual_drift must be finite, got nan"),
        ({"n_sectors": 0}, "synthetic.n_sectors must be >= 1, got 0"),
    ])
    def test_spec_refused_when_built(self, args, message):
        # The drift map and the vol list are read against the panel when the
        # spec is built, not when generate_synthetic asks for the vectors.
        with pytest.raises(BadSpec, match=f"^{re.escape(message)}$"):
            SynthSpec(**{"n_assets": 4, "n_days": 10, "seed": 0, **args})

    def test_sector_drift_mapping(self):
        spec = SynthSpec(
            n_assets=4,
            n_days=10,
            seed=0,
            sectors=("a", "a", "b", "b"),
            annual_drift={"a": 0.1, "b": 0.2},
            annual_vol=0.0,
        )
        pm = generate_synthetic(spec)
        # Drift-only paths: sector b grows faster.
        assert pm.prices[-1, 2] > pm.prices[-1, 0]


class TestDescriptiveStats:
    def test_one_year_doubling_is_100pct(self):
        # 253 prices = 252 daily steps of exactly one year.
        path = 100.0 + np.arange(253) * (100.0 / 252.0)
        other = np.full(253, 50.0) + np.arange(253) * 0.01
        pm = PriceMatrix(
            tuple(str(i) for i in range(1, 254)), ("U", "V"), np.column_stack([path, other])
        )
        stats = descriptive_stats(pm)
        # U doubles; V goes from 50 to 52.52, a 5.04% year.
        assert stats["mean_ann_return_pct"] == pytest.approx((100.0 + 5.04) / 2, abs=1e-9)

    def test_monotone_has_zero_drawdown(self):
        path = np.linspace(100, 150, 60)
        pm = PriceMatrix(
            tuple(str(i) for i in range(60)), ("U", "V"), np.column_stack([path, path * 0.5])
        )
        stats = descriptive_stats(pm)
        assert stats["mean_max_drawdown_pct"] == 0.0

    def test_identical_series_correlate_one(self, small_universe):
        base = small_universe.prices[:, 0]
        pm = PriceMatrix(small_universe.dates, ("U", "V"), np.column_stack([base, base]))
        stats = descriptive_stats(pm)
        assert stats["mean_pairwise_corr"] == pytest.approx(1.0, abs=1e-12)

    def test_drawdown_matches_double_loop(self, small_universe):
        pm = PriceMatrix(
            small_universe.dates[:50],
            small_universe.assets,
            small_universe.prices[:50],
            small_universe.sectors,
        )
        stats = descriptive_stats(pm)
        brute = [max_drawdown_double_loop(list(pm.prices[:, i])) for i in range(pm.n_assets)]
        assert stats["mean_max_drawdown_pct"] == pytest.approx(np.mean(brute), abs=1e-12)

    def test_sector_summary(self, bucket_universe):
        stats = descriptive_stats(bucket_universe)
        assert stats["n_assets"] == 36
        assert len(stats["sectors"]) == 6
        assert sum(v["n"] for v in stats["sectors"].values()) == 36
        assert -1.0 <= stats["min_pairwise_corr"] <= stats["max_pairwise_corr"] <= 1.0


def test_subset_preserves_order_and_sectors(bucket_universe):
    subset = bucket_universe.subset(["A005", "A002", "A010"])
    assert subset.assets == ("A005", "A002", "A010")
    assert np.array_equal(subset.prices[:, 1], bucket_universe.prices[:, 2])
    assert set(subset.sectors) == {"A005", "A002", "A010"}


def test_prices_are_read_only(tiny_panel):
    with pytest.raises(ValueError):
        tiny_panel.prices[0, 0] = 1.0


def test_every_construction_path_stores_read_only_c_order_prices(tmp_path, bucket_universe):
    """A dot over a price row rounds by the row's stride kind, so every
    matrix keeps its prices C-contiguous, whatever layout it was built from."""
    raw = np.exp(np.random.default_rng(3).normal(0.0, 0.1, size=(12, 7))) * 50.0
    dates, names = tuple(str(i) for i in range(12)), tuple(f"A{i}" for i in range(7))
    wide = np.ones((12, 14))
    wide[:, ::2] = raw
    path = tmp_path / "p.csv"
    write_prices_csv(PriceMatrix(dates, names, raw), str(path))
    built = {
        "C": PriceMatrix(dates, names, raw),
        "F": PriceMatrix(dates, names, np.asfortranarray(raw)),
        "strided": PriceMatrix(dates, names, wide[:, ::2]),
        "reversed": PriceMatrix(dates, names, raw[::-1].copy()[::-1]),
        "list": PriceMatrix(dates, names, raw.tolist()),
        "csv": load_prices_csv(str(path)),
        "synthetic": generate_synthetic(SynthSpec(n_assets=5, n_days=30, seed=1)),
    }
    panel = built["F"]
    for i in range(1, 8):
        built[f"subset{i}"] = panel.subset(panel.assets[::-1][:i])
    for b in range(6):
        built[f"bucket{b}"] = bucket_universe.subset(bucket_universe.assets[b::6])
    for name, pm in built.items():
        assert pm.prices.flags.c_contiguous, name
        assert not pm.prices.flags.writeable, name
    for name in ("F", "strided", "reversed", "list", "csv"):
        assert np.array_equal(built[name].prices, raw), name
    assert np.array_equal(built["subset3"].prices, raw[:, [6, 5, 4]])


class TestDateIndex:
    def test_maps_each_date_to_its_row(self, tiny_panel):
        assert dict(tiny_panel.date_index()) == {"1": 0, "2": 1, "3": 2}

    def test_cannot_be_mutated(self, tiny_panel):
        index = tiny_panel.date_index()
        with pytest.raises(TypeError):
            index["4"] = 3
        with pytest.raises(TypeError):
            del index["1"]
        assert dict(tiny_panel.date_index()) == {"1": 0, "2": 1, "3": 2}

    def test_subset_gets_its_own_index(self, bucket_universe):
        full = bucket_universe.date_index()
        sub = bucket_universe.subset(bucket_universe.assets[:3])
        assert sub.date_index() == full
        assert sub._date_positions is not bucket_universe._date_positions

    def test_matrix_still_pickles_after_indexing(self, tiny_panel):
        tiny_panel.date_index()
        again = pickle.loads(pickle.dumps(tiny_panel))
        assert dict(again.date_index()) == dict(tiny_panel.date_index())
        assert np.array_equal(again.prices, tiny_panel.prices)
