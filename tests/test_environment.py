import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patina.environment import (
    Forcing,
    breakpoints,
    constant_chamber_forcing,
    cycle_forcing,
    forcing_at,
    load_timeseries,
    read_rows,
    so2_from_ppm,
    so2_from_ugm3,
)


def test_so2_conversions():
    assert so2_from_ppm(0.0, 40.0, 64.07) == 0.0
    # ideal-gas oracle: 200e-6 * 101325 * 64.07 / (8.314 * 313.15) g/m3
    assert so2_from_ppm(200.0, 40.0, 64.07) == pytest.approx(4.99e-7, rel=0.01)
    assert so2_from_ugm3(10.0) == pytest.approx(1.0e-11, rel=1e-12)


def test_so2_rejects_bad_input():
    for negative in (lambda: so2_from_ppm(-1.0, 40.0, 64.07), lambda: so2_from_ugm3(-1.0)):
        with pytest.raises(ValueError, match="SO2 concentration must be non-negative, got -1.0"):
            negative()
    with pytest.raises(ValueError, match="below absolute zero"):
        so2_from_ppm(1.0, -300.0, 64.07)
    # the temperature and the molar mass are required: no default disagrees
    # with the config's
    for missing in ((200.0,), (200.0, 40.0)):
        with pytest.raises(TypeError):
            so2_from_ppm(*missing)


def test_constant_chamber_forcing():
    f = constant_chamber_forcing(4.99e-7, 2.6e-4)
    for t in (0.0, 3.7, 1000.0):
        assert forcing_at(f, t) == 4.99e-7
    assert f.oxygen == 2.6e-4


def test_cycle_forcing_phases():
    f = cycle_forcing(4.99e-7, 2.6e-4, wet_hours=8.0, dry_hours=16.0)
    # 24 h period: t = 8.5 falls in the first dry phase, 24.5 in the next wet
    assert forcing_at(f, 8.5) == f.dry_so2 == 0.0
    assert forcing_at(f, 24.5) == 4.99e-7
    assert forcing_at(f, 7.999) == 4.99e-7
    # the oxygen is the same in both phases
    assert f.oxygen == 2.6e-4


def test_breakpoints_are_the_switches_and_samples_inside_the_horizon():
    assert list(breakpoints(constant_chamber_forcing(4.99e-7), 100.0)) == []
    cycles = cycle_forcing(4.99e-7, wet_hours=8.0, dry_hours=16.0)
    assert list(breakpoints(cycles, 48.0)) == [8.0, 24.0, 32.0]
    assert list(breakpoints(cycles, 50.0)) == [8.0, 24.0, 32.0, 48.0]
    # without a dry phase the SO2 never switches
    assert list(breakpoints(cycle_forcing(4.99e-7, wet_hours=8.0, dry_hours=0.0), 50.0)) == []
    series = Forcing([-1.0, 0.0, 0.5, 2.5, 4.0], [1e-11] * 5, 2.6e-4)
    assert list(breakpoints(series, 2.5)) == [0.5]
    assert list(breakpoints(series, 10.0)) == [0.5, 2.5, 4.0]
    # one sample is constant forcing wherever it lies: it breaks nowhere
    assert list(breakpoints(Forcing([5.0], [1e-11], 2.6e-4), 10.0)) == []
    # the switch times are those at which forcing_at changes value
    for t in breakpoints(cycles, 100.0):
        assert forcing_at(cycles, t * (1 - 1e-12)) != forcing_at(cycles, t * (1 + 1e-12))


@given(t=st.floats(min_value=0.0, max_value=1e6))
@example(t=8.0)
@example(t=24.0 * (1 - 1e-12))
def test_cycle_forcing_without_a_dry_phase_stays_wet(t):
    # the period is wet_hours, which validation keeps positive
    f = cycle_forcing(4.99e-7, 2.6e-4, wet_hours=8.0, dry_hours=0.0, dry_so2=1e-9)
    assert forcing_at(f, t) == 4.99e-7


def test_cycle_forcing_validation():
    with pytest.raises(ValueError, match="wet_hours"):
        Forcing([0.0], [1e-7], 2.6e-4,
                wet_hours=0.0, dry_hours=16.0)
    # a dry phase holds its one wet sample; a second would be ignored
    with pytest.raises(ValueError, match="one wet-phase sample, got 8.0 h and 2 samples"):
        Forcing([0.0, 1.0], [1e-7, 2e-7], 2.6e-4, wet_hours=8.0, dry_hours=16.0)


@pytest.mark.parametrize("forcing, constant", [
    (constant_chamber_forcing(4.99e-7), True),
    (Forcing([3.0], [1e-9], 2.6e-4), True),
    (cycle_forcing(4.99e-7, wet_hours=8.0, dry_hours=0.0, dry_so2=1e-9), True),
    (cycle_forcing(4.99e-7, wet_hours=8.0, dry_hours=16.0), False),
    (Forcing([0.0, 1.0], [5e-7, 5e-7], 2.6e-4), False),
], ids=["chamber", "one-sample", "cycles-without-dry", "cycles", "two-equal-samples"])
def test_constant_is_one_sample_without_a_dry_phase(forcing, constant):
    assert forcing.constant is constant


@pytest.mark.parametrize("key", ["wet_hours", "dry_hours", "dry_so2"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_cycle_forcing_rejects_non_finite_settings(key, value):
    with pytest.raises(ValueError, match=f"non-finite {key}"):
        cycle_forcing(1e-7, 2.6e-4, **{key: value})


def test_timeseries_interpolation_and_clamping():
    f = Forcing([0.0, 2.0], [0.0, 4e-7], 2.6e-4)
    assert forcing_at(f, 1.0) == pytest.approx(2e-7, rel=1e-12)
    # exact at sample times, clamped outside
    assert forcing_at(f, 0.0) == 0.0
    assert forcing_at(f, 2.0) == 4e-7
    assert forcing_at(f, 5.0) == 4e-7
    # the lookup gives the SO2 alone, a float; the oxygen is one constant
    assert all(type(forcing_at(f, t)) is float for t in (-1.0, 0.0, 1.0, 2.0, 5.0))
    assert f.oxygen == 2.6e-4


def test_forcing_validation():
    with pytest.raises(ValueError, match="non-monotone"):
        Forcing([0.0, 0.0], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="negative so2"):
        Forcing([0.0], [-1e-9], 0.0)
    with pytest.raises(ValueError, match="negative oxygen"):
        Forcing([0.0], [0.0], -1e-9)
    with pytest.raises(ValueError, match="no samples"):
        Forcing([], [], 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        Forcing([0.0], [0.0], 0.0, dry_hours=-1.0)
    with pytest.raises(ValueError, match="equal length"):
        Forcing([0.0, 1.0], [0.0], 0.0)
    with pytest.raises(ValueError, match="non-finite so2"):
        Forcing([0.0, 1.0], [0.0, np.nan], 0.0)
    for oxygen in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite oxygen"):
            Forcing([0.0], [0.0], oxygen)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 30))
def test_timeseries_lookup_equals_np_interp(data, n):
    # bisection must reproduce the np.interp reference to the last bit, on
    # random times, on every sample time and beyond both ends
    start = data.draw(st.floats(-1e4, 1e4))
    gaps = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    times = start + np.concatenate(([0.0], np.cumsum(gaps)))
    so2 = data.draw(st.lists(st.floats(0.0, 1e-6), min_size=n, max_size=n))
    f = Forcing(times, so2, 2.6e-4)
    inside = data.draw(st.lists(st.floats(times[0], times[-1]), max_size=20))
    for t in [*inside, *times.tolist(), times[0] - 1.0, times[-1] + 1.0]:
        assert forcing_at(f, t) == float(np.interp(t, times, f.so2))


@given(t=st.floats(min_value=0.0, max_value=500.0))
def test_forcing_at_non_negative(t):
    f = Forcing([0.0, 10.0, 20.0], [0.0, 4e-7, 1e-7], 2.6e-4)
    assert forcing_at(f, t) >= 0.0


def _write(tmp_path, text):
    p = tmp_path / "env.csv"
    p.write_text(text)
    return p


def test_env_sample_validation(tmp_path):
    # each row is checked as it is read: a finite time, with or without the
    # columns that are not read
    for text in ("time_hours,so2_ugm3\nnan,1\n",
                 "time_hours,so2_ugm3,temp_c,rh_percent\nnan,1,20,50\n"):
        with pytest.raises(ValueError, match="line 2: sample time_hours must be finite"):
            load_timeseries(_write(tmp_path, text))


def test_columns_after_so2_are_not_read(tmp_path):
    # a two-column file is the four-column one; text, a blank or an
    # out-of-range humidity in a further column is no error
    two = load_timeseries(_write(tmp_path, "time_hours,so2_ugm3\n0,10\n1,12\n"))
    for extra in ("temp_c,rh_percent\n0,10,20,50\n1,12,21,55\n",
                  "rh_percent,notes\n0,10,150,dry\n1,12,,\n"):
        p = _write(tmp_path, "time_hours,so2_ugm3," + extra)
        assert load_timeseries(p) == two


def test_timeseries_forcing_converts_units(tmp_path):
    f = load_timeseries(_write(tmp_path, "time_hours,so2_ugm3,temp_c,rh_percent\n"
                                         "0,10,20,50\n"))
    assert forcing_at(f, 0.0) == pytest.approx(1e-11, rel=1e-12)
    assert f.oxygen == 2.6e-4


def test_load_timeseries_ok(tmp_path):
    p = _write(tmp_path, "# station X\ntime_hours,so2_ugm3,temp_c,rh_percent\n"
                         "0,10,20,50\n1,12,21,55\n")
    f = load_timeseries(p)
    assert list(f.times) == [0.0, 1.0]
    assert (f.dry_hours, f.constant) == (0.0, False)
    assert forcing_at(f, 0.0) == pytest.approx(1e-11, rel=1e-12)
    assert forcing_at(f, 1.0) == pytest.approx(1.2e-11, rel=1e-12)


def test_load_timeseries_empty(tmp_path):
    p = _write(tmp_path, "")
    with pytest.raises(ValueError, match="no samples"):
        load_timeseries(p)
    p2 = _write(tmp_path, "time_hours,so2_ugm3,temp_c,rh_percent\n")
    with pytest.raises(ValueError, match="no samples"):
        load_timeseries(p2)


def test_load_timeseries_non_monotone(tmp_path):
    p = _write(tmp_path, "time_hours,so2_ugm3,temp_c,rh_percent\n"
                         "0,10,20,50\n0,12,21,55\n")
    with pytest.raises(ValueError, match="line 3: non-monotone time"):
        load_timeseries(p)


def test_load_timeseries_bad_rows(tmp_path):
    p = _write(tmp_path, "time_hours,so2_ugm3,temp_c,rh_percent\n0\n")
    with pytest.raises(ValueError, match="line 2: expected 2 fields, got 1"):
        load_timeseries(p)
    p2 = _write(tmp_path, "time_hours,so2_ugm3,temp_c,rh_percent\n0,ten,20,50\n")
    with pytest.raises(ValueError, match="line 2: malformed"):
        load_timeseries(p2)
    p3 = _write(tmp_path, "hours,so2,temp,rh\n0,10,20,50\n")
    with pytest.raises(ValueError, match="bad header"):
        load_timeseries(p3)
    # non-finite SO2, in the first data row and in a later one
    for row, line in (("0,nan,20,50\n", 2),
                      ("0,10,20,50\n1,nan,20,50\n", 3),
                      ("0,10,20,50\n1,-inf,20,50\n", 3)):
        p4 = _write(tmp_path, "time_hours,so2_ugm3,temp_c,rh_percent\n" + row)
        with pytest.raises(ValueError, match=f"line {line}: sample .* must be finite"):
            load_timeseries(p4)


def test_load_timeseries_negative_so2_names_its_line(tmp_path):
    p = _write(tmp_path, "time_hours,so2_ugm3,temp_c,rh_percent\n"
                         "0,10,20,50\n1,-1,20,50\n")
    with pytest.raises(ValueError, match="line 3: SO2 concentration must be non-negative"):
        load_timeseries(p)


# rows that fail two checks at once, after leading comment and blank lines
# (the header is line 4, the first data row line 5): each reports the first
# check in the loader's order -- field count, number, monotone time, finite
# time/so2, negative SO2 -- with its file line
@pytest.mark.parametrize("rows, message", [
    ("x\n", "line 5: expected 2 fields, got 1"),
    ("0,10,20,50\n0,ten,20,50\n", "line 6: malformed row '0,ten,20,50'"),
    ("0,10,20,50\n0,nan,20,50\n", "line 6: non-monotone time 0.0"),
    ("0,10,20,50\nnan,-1,20,50\n", "line 6: sample time_hours must be finite, got nan"),
    ("0,-inf,20,50\n", "line 5: sample so2_ugm3 must be finite, got -inf"),
], ids=["fields-number", "number-monotone", "monotone-finite", "finite-so2",
        "finite-sign"])
def test_load_timeseries_reports_the_first_failed_check(tmp_path, rows, message):
    text = "# station X\n\n# columns\ntime_hours,so2_ugm3,temp_c,rh_percent\n" + rows
    with pytest.raises(ValueError, match=message):
        load_timeseries(_write(tmp_path, text))


# comment and blank lines before the header and between data rows; a data
# row takes the file line given with it
INTERLEAVED_CSV = ("# station X\n"
                   "\n"
                   "   # indented comment\n"
                   "time_hours,so2_ugm3,temp_c,rh_percent\n"
                   "0,10,20,50\n"
                   "\n"
                   "# gap in the record\n"
                   "1,12.5,21,55\n"
                   "   \n"
                   "2.5,7,19,60\n")


def test_load_timeseries_skips_comments_and_blank_lines_anywhere(tmp_path):
    # the samples are those of a plain parse of the lines that are neither
    # blank nor comments
    f = load_timeseries(_write(tmp_path, INTERLEAVED_CSV))
    rows = [line.split(",") for line in INTERLEAVED_CSV.splitlines()
            if line.strip() and not line.lstrip().startswith("#")][1:]
    assert list(f.times) == [float(r[0]) for r in rows] == [0.0, 1.0, 2.5]
    assert list(f.so2) == [so2_from_ugm3(float(r[1])) for r in rows]


def test_load_timeseries_names_the_file_line_after_skipped_lines(tmp_path):
    # a bad row after blank and comment lines names its own line, and so
    # does a bad header after leading comments
    bad_row = INTERLEAVED_CSV + "\n# late comment\n3,ten,20,50\n"
    with pytest.raises(ValueError, match="line 13: malformed row '3,ten,20,50'"):
        load_timeseries(_write(tmp_path, bad_row))
    late_sign = INTERLEAVED_CSV.replace("1,12.5,21,55", "1,-12.5,21,55")
    with pytest.raises(ValueError, match="line 8: SO2 concentration must be non-negative"):
        load_timeseries(_write(tmp_path, late_sign))
    bad_header = INTERLEAVED_CSV.replace("time_hours,", "hours,")
    with pytest.raises(ValueError, match="line 4: bad header 'hours,"):
        load_timeseries(_write(tmp_path, bad_header))


def test_read_rows_parse_every_row_with_one_reader(tmp_path):
    # quotes are CSV quotes, and a row whose quoted field runs over a line
    # break is one row, numbered by its first line; columns after the
    # header's are not read
    text = ('# notes\n'
            'a,b\n'
            '\n'
            '"1.5",2\n'
            '3,4,"four\n'
            'five"\n'
            '# end\n'
            '6,7,x\n')
    assert list(read_rows(_write(tmp_path, text), ("a", "b"))) == [
        (4, (1.5, 2.0)),
        (5, (3.0, 4.0)),
        (8, (6.0, 7.0)),
    ]
