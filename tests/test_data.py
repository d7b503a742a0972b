import re

import numpy as np
import numpy.testing as npt
import pytest

from xbarlstm.data import (
    BUNDLED_DATASET,
    Normalizer,
    TimeSeries,
    WindowedSeries,
    denormalize,
    fit_normalizer,
    load_series,
    make_windows,
    normalize,
    rmse,
    split,
)


class TestLoadSeries:
    def test_bundled_file(self):
        series = load_series(BUNDLED_DATASET)
        assert len(series) == 144
        assert series.values[0] == 112
        assert series.values[-1] == 432
        assert series.values.min() == 104
        assert series.values.max() == 622

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_series(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "head.csv"
        p.write_text('"Month","Passengers"\n')
        with pytest.raises(ValueError, match="no data"):
            load_series(p)

    @pytest.mark.parametrize("first", ['"1949-01",112', '"1949-01", 112.5 ', "1949-01,nan"])
    def test_data_row_on_line_1_rejected(self, tmp_path, first):
        p = tmp_path / "headless.csv"
        p.write_text(f'{first}\n"1949-02",118\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 1: expected a header line, got a data row"):
            load_series(p)

    def test_non_numeric_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text('"Month","Passengers"\n"1949-01",112\n"1949-02",oops\n')
        with pytest.raises(ValueError, match="line 3"):
            load_series(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", " -Infinity", "NaN"])
    def test_non_finite_row_names_line(self, tmp_path, value):
        p = tmp_path / "bad.csv"
        p.write_text(f'"Month","Passengers"\n"1949-01",112\n"1949-02",{value}\n"1949-03",5\n')
        want = f"{p}: line 3: not a finite number: {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_series(p)

    def test_wrong_field_count_names_line(self, tmp_path):
        p = tmp_path / "bad2.csv"
        p.write_text('"Month","Passengers"\n"1949-01",112,7\n')
        with pytest.raises(ValueError, match="line 2"):
            load_series(p)

    def test_blank_trailing_lines_ignored(self, tmp_path):
        p = tmp_path / "trail.csv"
        p.write_text('"Month","Passengers"\n"1949-01",112\n\n\n')
        assert len(load_series(p)) == 1


class TestConstructorChecks:
    def test_empty_series(self):
        with pytest.raises(ValueError, match="time series is empty"):
            TimeSeries([])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_series(self, value):
        """load_series names the line first; a series built in code is
        checked here."""
        with pytest.raises(ValueError, match="time series contains non-finite values"):
            TimeSeries([1.0, value])

    def test_windows_disagree_with_look_back(self):
        with pytest.raises(ValueError, match=r"window array \(3, 2\) does not match look_back=1"):
            WindowedSeries(np.zeros((3, 2)), np.zeros(3), 1)

    def test_targets_disagree_with_windows(self):
        with pytest.raises(ValueError, match=r"3 windows but \(2,\) targets"):
            WindowedSeries(np.zeros((3, 1)), np.zeros(2), 1)


class TestNormalizer:
    def test_simple(self):
        n = fit_normalizer(TimeSeries(np.array([1.0, 2.0, 3.0])))
        out = normalize(TimeSeries(np.array([1.0, 2.0, 3.0])), n)
        npt.assert_array_equal(out.values, [0.0, 0.5, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.uniform(-50, 300, 60)
            series = TimeSeries(v)
            n = fit_normalizer(series)
            back = denormalize(normalize(series, n).values, n)
            npt.assert_allclose(back, v, rtol=0, atol=1e-12)

    def test_airline_endpoints(self):
        series = load_series(BUNDLED_DATASET)
        n = fit_normalizer(series)
        scaled = normalize(series, n).values
        assert scaled.min() == 0.0
        assert scaled.max() == 1.0

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="zero range"):
            fit_normalizer(TimeSeries(np.full(5, 7.0)))

    def test_degenerate_normalizer_rejected(self):
        with pytest.raises(ValueError):
            Normalizer(2.0, 2.0)


class TestMakeWindows:
    def test_tiny(self):
        w = make_windows(TimeSeries(np.array([1.0, 2.0, 3.0])), 1)
        assert len(w) == 2
        npt.assert_array_equal(w.x, [[1.0], [2.0]])
        npt.assert_array_equal(w.y, [2.0, 3.0])

    def test_airline_count(self):
        series = load_series(BUNDLED_DATASET)
        assert len(make_windows(series, 1)) == 143

    @pytest.mark.parametrize("look_back", [1, 2, 5])
    def test_contents_match_index_arithmetic(self, look_back):
        rng = np.random.default_rng(look_back)
        v = rng.uniform(0, 1, 37)
        w = make_windows(TimeSeries(v), look_back)
        assert len(w) == 37 - look_back
        for k in range(len(w)):
            for j in range(look_back):
                assert w.x[k][j] == v[k + j]
            assert w.y[k] == v[k + look_back]

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            make_windows(TimeSeries(np.array([1.0, 2.0])), 2)

    def test_bad_look_back(self):
        with pytest.raises(ValueError, match="look_back"):
            make_windows(TimeSeries(np.array([1.0, 2.0, 3.0])), 0)


class TestSplit:
    def test_airline_at_tutorial_fraction(self):
        series = load_series(BUNDLED_DATASET)
        w = make_windows(series, 1)
        train, test = split(0.67, w)
        assert len(train) == 95
        assert len(test) == 48

    def test_order_and_conservation(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0, 1, 50)
        w = make_windows(TimeSeries(v), 1)
        train, test = split(0.6, w)
        assert len(train) + len(test) == len(w)
        npt.assert_array_equal(np.concatenate([train.y, test.y]), w.y)
        npt.assert_array_equal(np.vstack([train.x, test.x]), w.x)

    @pytest.mark.parametrize("n,frac", [(10, 0.31), (143, 0.67), (7, 0.5)])
    def test_floor_sizes(self, n, frac):
        w = make_windows(TimeSeries(np.arange(n + 1, dtype=float)), 1)
        train, test = split(frac, w)
        assert len(train) == int(np.floor(n * frac))
        assert len(test) == n - len(train)

    def test_degenerate(self):
        w = make_windows(TimeSeries(np.array([1.0, 2.0, 3.0])), 1)
        with pytest.raises(ValueError, match="empty"):
            split(0.01, w)
        for frac in (0.0, 1.0, 1.5):  # the open interval's own ends are out of it
            with pytest.raises(ValueError, match=rf"train_fraction must be in \(0, 1\), got {frac}"):
                split(frac, w)

    def test_conservation_random_lengths(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            length = int(rng.integers(5, 200))
            look_back = int(rng.integers(1, min(4, length - 1) + 1))
            frac = float(rng.uniform(0.2, 0.8))
            w = make_windows(TimeSeries(rng.uniform(0, 1, length)), look_back)
            assert len(w) == length - look_back
            try:
                train, test = split(frac, w)
            except ValueError:
                continue  # degenerate split for this draw
            assert len(train) + len(test) == len(w)
            npt.assert_array_equal(np.vstack([train.x, test.x]), w.x)
            npt.assert_array_equal(np.concatenate([train.y, test.y]), w.y)


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_arithmetic(self):
        assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(12.5)) < 1e-15

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
        assert rmse(a, b) == rmse(b, a)

    def test_scales_linearly(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
        assert abs(rmse(3 * a, 3 * b) - 3 * rmse(a, b)) < 1e-12

    def test_denormalized_units(self):
        n = Normalizer(100.0, 600.0)
        # constant offset of 0.1 in normalized units = 50 passengers
        p = np.full(4, 0.5)
        t = np.full(4, 0.4)
        assert abs(rmse(p, t, denorm=n) - 50.0) < 1e-9
        assert abs(rmse(p, t) - 0.1) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty sequences"):
            rmse([], [])

    @pytest.mark.parametrize("shapes", [((2,), (3,)), ((4, 2), (3,)), ((2,), (4, 2)), ((2,), ()), ((4, 2), (3, 2)),
                                        ((4, 2), (4, 2))])
    def test_last_axis_mismatch(self, shapes):
        with pytest.raises(ValueError, match="mismatch"):
            rmse(np.zeros(shapes[0]), np.zeros(shapes[1]))

    def test_scalar_is_a_float(self):
        value = rmse(3.0, 1.0)
        assert value == 2.0 and type(value) is float
