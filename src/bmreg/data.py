"""The observation container and the dataset CSV format.

A dataset is n pairs (t_i, x_i) with t_i in [0, 1] and x_i a manifold point.
The points pass Manifold.stack, the point rule that path knots share.
The CSV layout is a header ``t,coord1[,coord2,coord3]`` followed by one row
per observation in intrinsic coordinates (1 column on the circle, 2 on the
torus, 3 on the sphere).  Floats are written with repr precision so reload
is exact.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from bmreg.manifolds import Manifold, make_manifold


class EmptyDatasetError(ValueError):
    """Dataset with zero observations."""


@dataclass
class Dataset:
    """Stacked observations on one manifold."""

    manifold_kind: str
    ts: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        if self.ts.size == 0:
            raise EmptyDatasetError("dataset has no observations")
        self.points = self.manifold().stack(self.points)
        if self.ts.ndim != 1 or len(self.points) != len(self.ts):
            raise ValueError("ts and points must have matching leading length")
        if not (self.ts.min() >= 0.0 and self.ts.max() <= 1.0):  # NaN too
            raise ValueError("observation times must be finite and lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.ts)

    def manifold(self) -> Manifold:
        return make_manifold(self.manifold_kind)

    # -- CSV -------------------------------------------------------------

    def to_csv(self) -> str:
        coords = self.points.reshape(self.n, -1)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t"] + [f"coord{j + 1}" for j in range(coords.shape[1])])
        for t, row in zip(self.ts, coords):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
        return buf.getvalue()

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @staticmethod
    def from_csv(text: str, manifold_kind: str) -> "Dataset":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise EmptyDatasetError("empty dataset file")
        cols = math.prod(make_manifold(manifold_kind).point_shape)
        header = ["t"] + [f"coord{j + 1}" for j in range(cols)]
        if [h.strip() for h in rows[0]] != header:
            raise ValueError(f"expected header {','.join(header)}, got {','.join(rows[0])}")
        for line, row in enumerate(rows[1:], start=2):
            if row and len(row) != len(header):
                raise ValueError(f"line {line}: expected {len(header)} fields ({','.join(header)}), got {len(row)}")
        body = [r for r in rows[1:] if r]
        ts = np.array([float(r[0]) for r in body])
        points = np.array([[float(v) for v in r[1:]] for r in body])
        return Dataset(manifold_kind, ts, points)

    @staticmethod
    def load_csv(path: str, manifold_kind: str) -> "Dataset":
        with open(path, "r", newline="") as fh:
            return Dataset.from_csv(fh.read(), manifold_kind)
