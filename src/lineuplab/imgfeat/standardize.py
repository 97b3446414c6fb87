"""Z-score standardization with an explicit zero-variance rule.

Means and standard deviations are population statistics over the training
rows. Dimensions with zero spread standardize to +0.0 for every input.
``transform`` allocates one output array of the input's shape and never
writes its input, so scoring a matrix holds the matrix and one
standardized copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lineuplab.errors import DataError


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray  # population; zero entries mark constant dimensions

    @property
    def dim(self) -> int:
        return self.mean.size

    def transform(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-1] != self.dim:
            raise DataError(f"expected {self.dim} dimensions, got {values.shape[-1]}")
        nonzero = self.std > 0.0
        out = values - self.mean
        out /= np.where(nonzero, self.std, 1.0)
        out[..., ~nonzero] = 0.0
        return out


def fit_standardizer(matrix: np.ndarray) -> Standardizer:
    """Learn per-dimension mean and population std from the rows of a matrix."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise DataError("a standardizer needs a non-empty 2-D training matrix")
    return Standardizer(mean=matrix.mean(axis=0), std=matrix.std(axis=0))
