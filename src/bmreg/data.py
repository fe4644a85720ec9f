"""The observation container and the dataset CSV format.

A dataset is n pairs (t_i, x_i) with t_i in [0, 1] and x_i a manifold point.
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


def _coord_columns(kind: str) -> int:
    """CSV coordinate columns of a manifold's points; ValueError on an unknown kind."""
    return math.prod(make_manifold(kind).point_shape)


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
        self.points = np.asarray(self.points, dtype=float)
        if self.ts.size == 0:
            raise EmptyDatasetError("dataset has no observations")
        if self.ts.ndim != 1 or len(self.points) != len(self.ts):
            raise ValueError("ts and points must have matching leading length")
        if not (np.all(np.isfinite(self.ts)) and np.all(np.isfinite(self.points))):
            raise ValueError("observation times and points must be finite")
        if np.min(self.ts) < 0.0 or np.max(self.ts) > 1.0:
            raise ValueError("observation times must lie in [0, 1]")
        shape = make_manifold(self.manifold_kind).point_shape
        cols, got = math.prod(shape), math.prod(self.points.shape[1:])
        if got != cols:
            raise ValueError(f"{self.manifold_kind} points need {cols} coordinates, got {got}")
        # (n, 1) circle points become (n,): every body broadcasts on (n, *point_shape)
        self.points = self.points.reshape(len(self.ts), *shape)
        # a sphere point's norm may be off 1 by at most 1e-6
        if self.manifold_kind == "sphere" and np.any(np.abs(np.linalg.norm(self.points, axis=1) - 1.0) > 1e-6):
            raise ValueError("sphere points must be unit vectors")

    @property
    def n(self) -> int:
        return len(self.ts)

    def manifold(self) -> Manifold:
        return make_manifold(self.manifold_kind)

    # -- CSV -------------------------------------------------------------

    def to_csv(self) -> str:
        cols = _coord_columns(self.manifold_kind)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t"] + [f"coord{j + 1}" for j in range(cols)])
        coords = self.points.reshape(self.n, cols)
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
        cols = _coord_columns(manifold_kind)
        header = ["t"] + [f"coord{j + 1}" for j in range(cols)]
        if [h.strip() for h in rows[0]] != header:
            raise ValueError(f"expected header {','.join(header)}, got {','.join(rows[0])}")
        body = [r for r in rows[1:] if r]
        if not body:
            raise EmptyDatasetError("dataset file has a header but no rows")
        ts = np.array([float(r[0]) for r in body])
        points = np.array([[float(v) for v in r[1:]] for r in body])
        if points.shape[1] != cols:
            raise ValueError("wrong coordinate count in dataset rows")
        return Dataset(manifold_kind, ts, points)

    @staticmethod
    def load_csv(path: str, manifold_kind: str) -> "Dataset":
        with open(path, "r", newline="") as fh:
            return Dataset.from_csv(fh.read(), manifold_kind)
