"""Dataset containers: per-design feature matrices, labels and grouping.

The experiment protocol of the paper is *design-grouped*: the 14 designs are
split into 5 fixed groups; testing on a design excludes its whole group from
training.  These containers keep the design and group identity attached to
every sample so :mod:`repro.core.experiment` can enforce that protocol.

On disk a suite lives as one checkpoint per design (see
:func:`repro.core.pipeline.build_suite_dataset`), each written by
:meth:`SuiteDataset.save` as a one-design suite archive.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from ..layout.grid import cell_of_row, row_of_cell
from ..runtime.checkpoint import npz_bytes
from .names import NUM_FEATURES


@dataclass
class DesignDataset:
    """All samples of one design."""

    name: str
    group: int  # 0-based Table I group index
    X: np.ndarray  # (n, 387) float64
    y: np.ndarray  # (n,) int8
    grid_nx: int
    grid_ny: int

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or self.X.shape[1] != NUM_FEATURES:
            raise ValueError(
                f"{self.name}: X shape {self.X.shape} != (n, {NUM_FEATURES})"
            )
        if self.y.shape != (self.X.shape[0],):
            raise ValueError(f"{self.name}: y shape {self.y.shape} mismatches X")
        if self.X.shape[0] != self.grid_nx * self.grid_ny:
            raise ValueError(f"{self.name}: sample count != grid size")

    @property
    def num_samples(self) -> int:
        return self.X.shape[0]

    @property
    def num_hotspots(self) -> int:
        return int(self.y.sum())

    def sample_index(self, ix: int, iy: int) -> int:
        """Row index of the g-cell (ix, iy) (raster order)."""
        return row_of_cell(ix, iy, self.grid_nx, self.grid_ny)

    def cell_of_sample(self, row: int) -> tuple[int, int]:
        """G-cell (ix, iy) of sample row ``row``."""
        return cell_of_row(row, self.grid_nx, self.grid_ny)


@dataclass
class SuiteDataset:
    """The full suite: a list of per-design datasets in Table I order."""

    designs: list[DesignDataset]

    def __post_init__(self) -> None:
        names = [d.name for d in self.designs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate design names in suite")

    # -- queries -----------------------------------------------------------------

    def by_name(self, name: str) -> DesignDataset:
        for d in self.designs:
            if d.name == name:
                return d
        raise KeyError(f"design {name!r} not in suite")

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.designs]

    @property
    def num_samples(self) -> int:
        return sum(d.num_samples for d in self.designs)

    def stacked(
        self, exclude_groups: tuple[int, ...] = ()
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, y, groups) over all designs not in ``exclude_groups``.

        ``groups`` carries each sample's 0-based group index, the key the
        grouped cross-validation splits on.
        """
        keep = [d for d in self.designs if d.group not in exclude_groups]
        if not keep:
            raise ValueError("all groups excluded")
        X = np.vstack([d.X for d in keep])
        y = np.concatenate([d.y for d in keep]).astype(np.int8)
        groups = np.concatenate(
            [np.full(d.num_samples, d.group, dtype=np.int32) for d in keep]
        )
        return X, y, groups

    # -- persistence -----------------------------------------------------------------

    def save(self, file: BinaryIO, **extra: np.ndarray) -> None:
        """Write the suite, plus any ``extra`` arrays, as one compressed .npz.

        ``file`` is a writable binary file; the bytes depend only on the data
        (see :func:`~repro.runtime.checkpoint.npz_bytes`).  A design
        checkpoint of the suite store is a one-design suite written this way.
        """
        payload: dict[str, np.ndarray] = {
            **extra,
            "names": np.array(self.names),
            "groups": np.array([d.group for d in self.designs], dtype=np.int32),
            "grids": np.array(
                [[d.grid_nx, d.grid_ny] for d in self.designs], dtype=np.int32
            ),
        }
        for d in self.designs:
            payload[f"X_{d.name}"] = d.X
            payload[f"y_{d.name}"] = d.y
        file.write(npz_bytes(payload))

    @staticmethod
    def from_arrays(data: Mapping[str, np.ndarray]) -> SuiteDataset:
        """The suite held by the arrays of a :meth:`save` archive (extras ignored)."""
        names = [str(n) for n in data["names"]]
        groups = data["groups"]
        grids = data["grids"]
        return SuiteDataset(
            designs=[
                DesignDataset(
                    name=name,
                    group=int(groups[i]),
                    X=data[f"X_{name}"],
                    y=data[f"y_{name}"],
                    grid_nx=int(grids[i][0]),
                    grid_ny=int(grids[i][1]),
                )
                for i, name in enumerate(names)
            ]
        )
