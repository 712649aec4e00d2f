"""Uniformly sampled multivariate time series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import integer, integers, number, reject, trusted


@dataclass(frozen=True)
class TimeSeries:
    """A trajectory sampled on a uniform time grid.

    ``values`` has one row per sample and one column per component. Sample m
    sits at time ``t0 + m * dt``; times are always reconstructed by
    multiplication so the grid stays exact for long runs.
    """

    dt: float
    values: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        reject(values.ndim != 2
               and f"values must be 2-D (samples x components), got shape {values.shape}",
               values.size == 0
               and f"series needs at least one sample and component, got {values.shape}",
               number("dt", self.dt, 0.0, open_low=True), number("t0", self.t0))
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_components(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)

    @property
    def duration(self) -> float:
        """Time spanned between the first and last sample."""
        return self.dt * (self.n_samples - 1)

    def segment(self, start: int, stop: int) -> "TimeSeries":
        """Samples ``start:stop`` as a series with the matching ``t0``.

        Its values are a read-only view of this series' values, not a copy.
        """
        n = self.n_samples
        reject(integer("start", start, 0) or integer("stop", stop, 0)
               or not start < stop <= n
               and f"segment [{start}:{stop}] out of range for {n} samples")
        start, stop = int(start), int(stop)
        return trusted(TimeSeries, dt=self.dt, values=self.values[start:stop],
                       t0=self.t0 + start * self.dt)

    def select(self, indices) -> "TimeSeries":
        """A series containing only the given component columns."""
        indices, n = list(indices), self.n_components
        reject(integers("indices", indices, 0)
               or max(indices, default=0) >= n
               and f"indices must all be < {n} components, got {indices}")
        return TimeSeries(self.dt, self.values[:, [int(i) for i in indices]], self.t0)

    def to_csv(self, path) -> None:
        """Write delimited text: time in the first column, components after.

        Values are printed with 17 significant digits so a reload recovers
        them bit-exactly.
        """
        data = np.column_stack([self.times, self.values])
        header = f"dt={self.dt!r} t0={self.t0!r}\ncolumns: t " + " ".join(
            f"c{j}" for j in range(self.n_components)
        )
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header)
