"""Boundary forcing: SO2 and oxygen concentrations at the patina surface.

The oxygen is one constant, ``Forcing.oxygen``; :func:`forcing_at` gives the
SO2, whose data decide the forcing's shape.  A dry phase (``dry_hours > 0``)
with one wet-phase sample is a cycle schedule between chamber and room
values.  Any other forcing is a sampled series, interpolated linearly in
time; one sample is constant forcing (corrosion-cabinet conditions,
``Forcing.constant``, where the exact solution applies), and hourly
monitoring data give one sample an hour.  The lookup bisects the sample
times and reproduces ``np.interp`` bit for bit at about half its per-call
cost.

SO2 comes from the ideal gas law at the caller's molar mass when given in
ppm, or a straight unit conversion when given in ug/m3.  Water takes no
part in the front motion, so an environment CSV needs only the columns
``time_hours,so2_ugm3``; further ones (temperature, humidity) are ignored.
:func:`text_lines` decodes every input file, :func:`read_rows` every CSV.

:func:`breakpoints` lists where the forcing breaks (cycle switches, sample
times; none for constant forcing), so that the time loop can end a step on each.
"""

from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

__all__ = [
    "Forcing",
    "AMBIENT_OXYGEN",
    "so2_from_ppm",
    "so2_from_ugm3",
    "constant_chamber_forcing",
    "cycle_forcing",
    "text_lines",
    "read_rows",
    "load_timeseries",
    "forcing_at",
    "breakpoints",
]

GAS_CONSTANT = 8.314462618          # J/(mol K)
STANDARD_PRESSURE = 101325.0        # Pa

# O2 mass per unit air volume near 40 C (ideal gas, 23% by mass), g/cm3.
AMBIENT_OXYGEN = 2.6e-4


def so2_from_ppm(ppm: float, temp_c: float, molar_mass: float) -> float:
    """SO2 mass concentration in g/cm3 of a volume mixing ratio in ppm of SO2
    of ``molar_mass`` g/mol, by the ideal gas law at ``temp_c`` and 1 atm."""
    if ppm < 0.0:
        raise ValueError(f"SO2 concentration must be non-negative, got {ppm}")
    t_kelvin = temp_c + 273.15
    if t_kelvin <= 0.0:
        raise ValueError(f"temperature below absolute zero: {temp_c} C")
    # g/m3 by the ideal gas law, then g/cm3
    return ppm * 1e-6 * STANDARD_PRESSURE * molar_mass / (GAS_CONSTANT * t_kelvin) * 1e-6


def so2_from_ugm3(ugm3: float) -> float:
    """SO2 mass concentration in g/cm3 of one in micrograms per cubic meter."""
    if ugm3 < 0.0:
        raise ValueError(f"SO2 concentration must be non-negative, got {ugm3}")
    return ugm3 * 1e-12


@dataclass(frozen=True)
class Forcing:
    """Time-dependent boundary concentrations, all in g/cm3, times in hours.

    SO2 is sampled as (time, so2) rows held in two parallel float64 arrays
    (``array('d')``, 8 bytes a sample where a list of floats takes 32),
    which ``forcing_at`` bisects; ``oxygen`` is one constant, no sample.
    With a dry phase (``dry_hours > 0``) the one row is the wet-phase SO2,
    held for ``wet_hours`` of each period and ``dry_so2`` for the rest.
    Otherwise the rows are interpolated linearly and clamped to the
    first/last row outside the sampled range, and a single row is constant
    forcing.
    """

    times: array
    so2: array
    oxygen: float
    wet_hours: float = 0.0
    dry_hours: float = 0.0
    dry_so2: float = 0.0

    def __post_init__(self):
        for name in ("times", "so2"):
            object.__setattr__(self, name, array("d", getattr(self, name)))
        object.__setattr__(self, "oxygen", float(self.oxygen))
        if not self.times:
            raise ValueError("no samples")
        if len(self.so2) != len(self.times):
            raise ValueError("sample arrays must have equal length")
        for name in ("times", "so2"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"non-finite {name} in samples")
        for name in ("oxygen", "wet_hours", "dry_hours", "dry_so2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} {getattr(self, name)}")
        if any(later <= earlier for earlier, later in zip(self.times, self.times[1:])):
            raise ValueError("non-monotone time")
        if min(self.so2) < 0.0:
            raise ValueError("negative so2 concentration in samples")
        if self.oxygen < 0.0:
            raise ValueError(f"negative oxygen concentration {self.oxygen}")
        if min(self.wet_hours, self.dry_hours) < 0.0:
            raise ValueError("wet_hours and dry_hours must be non-negative")
        if self.dry_hours > 0.0 and (self.wet_hours <= 0.0 or len(self.times) != 1):
            raise ValueError("a dry phase needs positive wet_hours and one wet-phase "
                             f"sample, got {self.wet_hours} h and {len(self.times)} samples")
        if self.dry_so2 < 0.0:
            raise ValueError("dry-phase concentrations must be non-negative")

    @property
    def constant(self) -> bool:
        """No dry phase and one sample: the forcing of the exact solution."""
        return self.dry_hours == 0.0 and len(self.times) == 1


def constant_chamber_forcing(so2: float, oxygen: float = AMBIENT_OXYGEN) -> Forcing:
    """Fixed chamber concentrations (g/cm3): a one-sample series."""
    return Forcing([0.0], [so2], oxygen)


def cycle_forcing(wet_so2: float, oxygen: float = AMBIENT_OXYGEN,
                  wet_hours: float = 8.0, dry_hours: float = 16.0,
                  dry_so2: float = 0.0) -> Forcing:
    """Wet/dry cycling: chamber SO2 for ``wet_hours``, room SO2 after.

    The room default is no SO2.  Oxygen is the same in both phases.
    Without a dry phase this is constant forcing.
    """
    return Forcing([0.0], [wet_so2], oxygen,
                   wet_hours=wet_hours, dry_hours=dry_hours, dry_so2=dry_so2)


TIMESERIES_HEADER = ("time_hours", "so2_ugm3")


def text_lines(path):
    """Lines of the UTF-8 file ``path``, BOM dropped; a non-UTF-8 line is a ValueError naming it."""
    # newline="": a line ends at LF, CRLF or a lone CR, and keeps its end.
    # surrogateescape keeps a byte that is not UTF-8 as a lone surrogate; a
    # line that is not all ASCII (a BOM, an accent, such a byte) is decoded
    # again from its own bytes, strictly, so that an error names its line
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line = line.encode("utf-8", "surrogateescape").decode(
                        "utf-8-sig" if lineno == 1 else "utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
            yield line


def read_rows(path, header: tuple[str, ...]):
    """(line number, floats of the first ``len(header)`` fields) of each data
    row of the CSV file ``path``, parsed a line at a time by one ``csv.reader``
    past blank and ``#`` lines; a row over several lines has the number of its
    first.  The first row must begin with ``header``; further columns are
    ignored.  A bad header, short row or non-number is a ValueError naming its line."""
    first = 0

    def kept():
        nonlocal first
        for lineno, line in enumerate(text_lines(path), start=1):
            if line.strip() and not line.lstrip().startswith("#"):
                first = first or lineno
                yield line

    n = len(header)
    rows = csv.reader(kept())
    fields = next(rows, None)
    if fields is not None and tuple(f.strip() for f in fields[:n]) != header:
        raise ValueError(f"{path}: line {first}: bad header {','.join(fields)!r}; "
                         f"expected {','.join(header)!r}")
    first = 0
    for fields in rows:
        lineno, first = first, 0
        if len(fields) < n:
            raise ValueError(f"{path}: line {lineno}: expected {n} fields, got {len(fields)}")
        try:
            values = tuple(map(float, fields[:n]))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed row {','.join(fields)!r}") from None
        yield lineno, values


def load_timeseries(path, oxygen: float = AMBIENT_OXYGEN) -> Forcing:
    """Read an environment CSV into a sampled-series Forcing.

    Expected header: ``time_hours,so2_ugm3``, further columns ignored (see
    ``read_rows``).  Non-monotone times, non-finite values and negative SO2
    are reported with their file line number.
    """
    times, so2 = array("d"), array("d")
    # read line by line: no list of the file's lines is held
    for lineno, (t, so2_ugm3) in read_rows(path, TIMESERIES_HEADER):
        try:
            if times and t <= times[-1]:
                raise ValueError(f"non-monotone time {t}")
            for name, value in zip(TIMESERIES_HEADER, (t, so2_ugm3)):
                if not math.isfinite(value):
                    raise ValueError(f"sample {name} must be finite, got {value}")
            so2.append(so2_from_ugm3(so2_ugm3))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        times.append(t)
    if not times:
        raise ValueError(f"{path}: no samples")
    return Forcing(times, so2, oxygen)


def forcing_at(forcing: Forcing, t_hours: float) -> float:
    """Boundary SO2 in g/cm3 at time ``t_hours``; the oxygen is ``forcing.oxygen``.

    A series' SO2 is found by bisection over the sample times and then
    follows the rule of ``np.interp`` to the last bit: the first sample
    before the first time, the last one after the last time, a sample's own
    value at its exact time, and ``slope*(t - t_j) + s_j`` with
    ``slope = (s_{j+1} - s_j)/(t_{j+1} - t_j)`` between samples j and j+1.
    """
    so2 = forcing.so2
    if forcing.dry_hours:
        phase = t_hours % (forcing.wet_hours + forcing.dry_hours)
        return so2[0] if phase < forcing.wet_hours else forcing.dry_so2
    times = forcing.times
    j = bisect_right(times, t_hours) - 1
    if j < 0:
        return so2[0]
    # each read of an array item builds a float, so each is read once
    t_j, s_j = times[j], so2[j]
    if t_j == t_hours or j == len(times) - 1:
        return s_j
    slope = (so2[j + 1] - s_j) / (times[j + 1] - t_j)
    return slope * (t_hours - t_j) + s_j


def breakpoints(forcing: Forcing, horizon_hours: float) -> array:
    """Times in (0, ``horizon_hours``), in hours and increasing, at which the
    forcing breaks, as a new float64 array that the caller may change.

    These are the switches of a cycle schedule, where SO2 jumps, and the
    sample times of a series, where its slope jumps; a one-sample series,
    constant forcing, has none.
    """
    if forcing.constant:
        return array("d")
    if not forcing.dry_hours:
        times = forcing.times
        return times[bisect_right(times, 0.0):bisect_left(times, horizon_hours)]
    period = forcing.wet_hours + forcing.dry_hours
    switches = []
    for k in range(math.ceil(horizon_hours / period)):
        switches += [k * period + forcing.wet_hours, (k + 1) * period]
    return array("d", (t for t in switches if t < horizon_hours))
