"""Dataset container, file loaders, synthetic generators and fold plans.

All loaders produce the same `Dataset` shape: an (n, p) float matrix of
inputs and n targets inside [-1, 1]. Regression targets that arrive
outside that range are min-max rescaled at load time and the original
range is kept so predictions can be recalibrated.
"""

from __future__ import annotations

import csv
import gzip
import logging
import math
import struct
from array import array
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .features import NormalizationRecord, _all_finite, _check_shape, _count, _real, dct_features

__all__ = [
    "Dataset",
    "FoldPlan",
    "load_csv",
    "load_mnist_idx",
    "filter_pair",
    "gen_logic_gate",
    "gen_sinc",
    "gen_two_moons",
    "kfold_plan",
    "split",
    "LOGIC_GATES",
]

log = logging.getLogger(__name__)

MISSING_MARKERS = {"", "?", "NA"}

# Truth tables over inputs ((-1,-1), (-1,+1), (+1,-1), (+1,+1)),
# false -> -1 and true -> +1.
LOGIC_GATES = {
    "AND": (-1, -1, -1, 1),
    "OR": (-1, 1, 1, 1),
    "XOR": (-1, 1, 1, -1),
    "NAND": (1, 1, 1, -1),
    "NOR": (1, -1, -1, -1),
    "XNOR": (1, -1, -1, 1),
}


@dataclass(frozen=True)
class Dataset:
    """Inputs in R^p with targets in [-1, 1].

    `target_range` records the original (min, max) when targets were
    rescaled at load time, so regression outputs can be mapped back.
    `dropped_rows` counts rows removed for missing values.
    """

    inputs: np.ndarray
    targets: np.ndarray
    tag: str = ""
    target_range: tuple[float, float] | None = None
    dropped_rows: int = 0

    def __post_init__(self):
        X = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        _check_shape("inputs", X.shape)
        if y.shape != (X.shape[0],):
            raise ValueError(f"targets must have shape ({X.shape[0]},), got {y.shape}")
        if not (_all_finite(X) and _all_finite(y)):
            raise ValueError("dataset contains non-finite values")
        if y.min() < -1.0 or y.max() > 1.0:
            raise ValueError(
                f"targets must lie in [-1, 1], got range [{y.min()}, {y.max()}]; "
                "rescale at load time")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def p(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices) -> "Dataset":
        """Rows picked by integer indices or by a boolean mask."""
        idx = np.asarray(indices)
        # a mask becomes row numbers (indexing checks its length), and take
        # copies whole rows, several times faster than fancy indexing
        idx = np.arange(self.n)[idx] if idx.dtype == bool else idx.astype(int)
        return replace(self, inputs=self.inputs.take(idx, axis=0),
                       targets=self.targets.take(idx), dropped_rows=0)


def _parse_cell(cell: str, label_map: dict[str, float] | None) -> float | None:
    text = cell.strip()
    if text in MISSING_MARKERS:
        return None
    if label_map and text in label_map:
        return float(label_map[text])
    return float(text)


def _sniff_header(path, row, label_map) -> bool:
    """The first row is a header when it holds text and no number (missing
    markers aside); a row that mixes the two could be either."""
    text = []
    for cell in row:
        try:
            if _parse_cell(cell, label_map) is not None:
                text.append(False)
        except ValueError:
            text.append(True)
    if any(text) and not all(text):
        raise ValueError(f"{path}: row 1 mixes numbers and text; fix it or set has_header")
    return any(text)


def load_csv(path, target_column=-1, has_header: bool | None = None, *,
             label_map: dict[str, float] | None = None,
             drop_cols=(), drop_sparse_cols: float | None = None,
             scale_targets: bool | str = "auto") -> Dataset:
    """Load a numeric CSV into a Dataset.

    The target column may be given by index (negative counts from the
    end) or, when a header is present, by name. Cells equal to "?", "NA"
    or empty count as missing; rows containing a missing value are
    dropped and the count is reported. A ragged row, or a non-numeric or
    non-finite ("nan", "inf") cell in a kept column, raises ValueError.
    `drop_cols` removes columns (indices or header names) before the
    target is resolved; `drop_sparse_cols=t` additionally removes feature
    columns whose missing fraction exceeds t (the target column is exempt,
    so a missing target drops its row); at least one feature column
    must be left. `has_header=None` takes the first row for a header when
    none of its cells is a number, and raises ValueError when it mixes
    numbers and text. `scale_targets` is "auto" (rescale to [-1, 1] only
    when out of range), True or False.

    `label_map` translates categorical target strings, e.g.
    {"M": 1, "B": -1}.

    The file is read once. Of several defects the first row's is reported,
    a non-numeric cell before a non-finite one; a mixed first row or a bad
    column is reported before a ragged row below it.
    """
    with open(path, newline="") as fh:
        rows = filter(None, csv.reader(fh))
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: empty file")
        ncols = len(first)
        if has_header is None:
            has_header = _sniff_header(path, first, label_map)
        header = [h.strip() for h in first] if has_header else None

        def resolve(col, field: str) -> int:
            if isinstance(col, str):
                if header is None or col not in header:
                    raise ValueError(f"{path}: no column named {col!r}")
                return header.index(col)
            if isinstance(col, bool) or not isinstance(col, (int, np.integer)):
                raise ValueError(f"{path}: {field} must be a column index or name, got {col!r}")
            idx = int(col)
            if not -ncols <= idx < ncols:
                raise ValueError(f"{path}: column index {idx} out of range for "
                                 f"{ncols} columns")
            return idx % ncols

        dropped_cols = {resolve(c, "each drop_cols entry") for c in drop_cols}
        target_idx = resolve(target_column, "target_column")
        # one float and one flag byte (set for a missing marker) per cell,
        # and each column's first non-numeric cell as (row, 0, column, message)
        values, flags, bad = array("d"), bytearray(), {}
        maps = [label_map if j == target_idx else None for j in range(ncols)]
        for i, row in enumerate(rows if has_header else chain([first], rows), start=1):
            if len(row) != ncols:
                raise ValueError(f"{path}: ragged row with {len(row)} cells, expected {ncols}")
            for j, cell in enumerate(row):
                try:
                    value = _parse_cell(cell, maps[j])
                except ValueError as exc:
                    if j not in bad:
                        bad[j] = (i, 0, j, f"{path}: non-numeric cell: {exc}")
                    value = math.nan
                values.append(math.nan if value is None else value)
                flags.append(value is None)
    n = len(flags) // ncols
    if not n:
        raise ValueError(f"{path}: no data rows")
    table = np.frombuffer(values).reshape(n, ncols)
    gaps = np.frombuffer(flags, dtype=bool).reshape(n, ncols)
    if drop_sparse_cols is not None:
        sparse = np.count_nonzero(gaps, axis=0) / n > drop_sparse_cols
        dropped_cols |= {j for j in range(ncols) if sparse[j] and j != target_idx}
    if target_idx in dropped_cols:
        raise ValueError(f"{path}: target column {target_column!r} was dropped")
    keep = [j for j in range(ncols) if j not in dropped_cols]
    if len(keep) < 2:
        raise ValueError(f"{path}: no feature column left after the target and "
                         "the dropped columns")

    # the earliest defect of the kept columns, by (row, kind, column)
    defects = [bad[j] for j in keep if j in bad]
    for j in keep:
        nonfinite = ~(np.isfinite(table[:, j]) | gaps[:, j])
        if nonfinite.any():
            i = int(nonfinite.argmax()) + 1
            defects.append((i, 1, j, f"{path}: non-finite cell in data row {i}; mark "
                                     "a missing value with '?' or an empty cell"))
    if defects:
        raise ValueError(min(defects)[3])

    X = table.take([j for j in keep if j != target_idx], axis=1)  # C order, unlike X[:, list]
    y = table[:, target_idx].copy()
    missing = gaps[:, keep].any(axis=1)
    del table, gaps, values, flags
    dropped_rows = int(np.count_nonzero(missing))
    if dropped_rows == n:
        raise ValueError(f"{path}: all rows dropped for missing values")
    if dropped_rows:
        log.warning("%s: dropped %d row(s) with missing values", path, dropped_rows)
        X, y = X[~missing], y[~missing]

    target_range = None
    need_scale = scale_targets is True or (
        scale_targets == "auto" and (y.min() < -1.0 or y.max() > 1.0))
    if need_scale:
        target_range = (float(y.min()), float(y.max()))
        y = NormalizationRecord(None, None, *target_range).apply_target(y)

    return Dataset(inputs=X, targets=y, tag=str(path), target_range=target_range,
                   dropped_rows=dropped_rows)


# IDX magics: images are (count, rows, cols) bytes, labels (count,) bytes
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path, magic: int, what: str) -> np.ndarray:
    """One IDX file, gzipped or not, as a read-only uint8 array. The file
    holds a big-endian uint32 magic, whose low byte is the dimension count,
    one big-endian uint32 size per dimension, then the bytes; `what` names
    them in the truncation error."""
    head_size = 4 * (1 + (magic & 0xFF))
    with open(path, "rb") as probe:
        gzipped = probe.read(2) == b"\x1f\x8b"
    with (gzip.open if gzipped else open)(path, "rb") as fh:
        head = fh.read(head_size)
        if len(head) < head_size:
            raise ValueError(f"{path}: truncated IDX header")
        found, *shape = struct.unpack(f">{head_size // 4}I", head)
        if found != magic:
            raise ValueError(f"{path}: bad magic {found:#010x}, expected {magic:#010x}")
        size = math.prod(shape)
        raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"{path}: truncated {what} data ({len(raw)} of {size} bytes)")
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Read an IDX image/label file pair.

    Returns (images, labels): the file's pixel bytes as a read-only uint8
    array of shape (n, rows, cols), and the integer labels. filter_pair scales the
    pixels of the rows it selects to [0, 1]. Accepts gzipped files.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "pixel")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label")
    if len(labels) != len(images):
        raise ValueError(f"label count {len(labels)} does not match image count {len(images)}")
    return images, labels


# Images per dct_features call in filter_pair: the float pixels and the
# transform's two intermediates then take a few MiB, not three times
# the feature matrix.
_DCT_CHUNK = 256


def filter_pair(images, labels, a: int, b: int, *,
                dct_block: int | None = None) -> Dataset:
    """Binary dataset for one digit pair, with DCT feature rows.

    `images` holds pixel bytes (uint8), as load_mnist_idx returns them.
    Keeps only images labeled `a` or `b`; the lower digit maps to +1 and
    the higher to -1. Features are the flattened orthonormal DCT
    coefficients of each selected image scaled to [0, 1] (optionally
    only the top-left `dct_block` x `dct_block` low-frequency block),
    computed _DCT_CHUNK images at a time into the feature matrix.
    """
    a, b = _count("a", a, least=0), _count("b", b, least=0)
    if a == b:
        raise ValueError("digit pair must be distinct")
    if not (a <= 9 and b <= 9):
        raise ValueError(f"digits must be in 0..9, got {a} and {b}")
    images = np.asarray(images)
    if images.dtype != np.uint8:
        raise ValueError(f"images must hold pixel bytes (uint8), got {images.dtype}")
    labels = np.asarray(labels)
    mask = (labels == a) | (labels == b)
    if not mask.any():
        raise ValueError(f"no samples labeled {a} or {b}")
    lo = min(a, b)
    picked = np.flatnonzero(mask)
    feats = None
    for start in range(0, picked.size, _DCT_CHUNK):
        chunk = dct_features(images[picked[start:start + _DCT_CHUNK]] / 255.0, keep=dct_block)
        if feats is None:
            feats = np.empty((picked.size, chunk.shape[1]))
        feats[start:start + len(chunk)] = chunk
    targets = np.where(labels[mask] == lo, 1.0, -1.0)
    return Dataset(inputs=feats, targets=targets, tag=f"mnist-{a}v{b}")


def gen_logic_gate(gate: str) -> Dataset:
    """Four-row truth table of a two-input gate, encoded over {-1, +1}."""
    name = gate.upper()
    if name not in LOGIC_GATES:
        raise ValueError(f"unknown gate {gate!r}, expected one of {sorted(LOGIC_GATES)}")
    inputs = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
    targets = np.array(LOGIC_GATES[name], dtype=float)
    return Dataset(inputs=inputs, targets=targets, tag=name.lower())


def gen_sinc(n_train: int = 800, n_val: int = 100, n_test: int = 100,
             noise_sigma: float = 0.0, seed: int = 0):
    """Train/validation/test splits of y = sin(x)/x with optional white noise.

    x is sampled uniformly on [-10, 10]; sinc(0) = 1 by continuity. Noisy
    targets are clipped to [-1, 1] (relevant only for sigma large enough
    to push a sample past the peak).
    """
    for name, count in (("n_train", n_train), ("n_val", n_val), ("n_test", n_test)):
        _count(name, count)
    _real("noise_sigma", noise_sigma)
    rng = np.random.default_rng(_count("seed", seed, least=0))

    def make(n: int, part: str) -> Dataset:
        x = rng.uniform(-10.0, 10.0, n)
        y = np.sinc(x / np.pi)  # np.sinc(t) = sin(pi t)/(pi t)
        if noise_sigma > 0:
            y = np.clip(y + rng.normal(0.0, noise_sigma, n), -1.0, 1.0)
        return Dataset(inputs=x[:, None], targets=y, tag=f"sinc-{part}")

    return make(n_train, "train"), make(n_val, "val"), make(n_test, "test")


def gen_two_moons(n: int = 1000, noise: float = 0.07, seed: int = 0) -> Dataset:
    """Two interleaved half-circle arcs with isotropic Gaussian noise.

    The +1 moon is the upper unit arc (cos t, sin t), t in [0, pi]; the
    -1 moon is its reflection shifted to (1 - cos t, 0.5 - sin t) so the
    arcs interlock. Labels are balanced within one sample.
    """
    _count("n", n, least=2)
    _real("noise", noise)
    rng = np.random.default_rng(_count("seed", seed, least=0))
    n_up = n // 2
    n_dn = n - n_up
    t_up = rng.uniform(0.0, np.pi, n_up)
    t_dn = rng.uniform(0.0, np.pi, n_dn)
    upper = np.column_stack([np.cos(t_up), np.sin(t_up)])
    lower = np.column_stack([1.0 - np.cos(t_dn), 0.5 - np.sin(t_dn)])
    points = np.vstack([upper, lower])
    if noise > 0:
        points = points + rng.normal(0.0, noise, points.shape)
    targets = np.concatenate([np.ones(n_up), -np.ones(n_dn)])
    order = rng.permutation(n)
    return Dataset(inputs=points[order], targets=targets[order], tag="two-moons")


@dataclass(frozen=True)
class FoldPlan:
    """A k-way partition of the sample indices range(n)."""

    k: int
    folds: tuple[np.ndarray, ...]

    def __post_init__(self):
        _count("k", self.k, least=2)
        if len(self.folds) != self.k:
            raise ValueError("fold count does not match k")
        indices = np.sort(np.concatenate(self.folds))
        if not np.array_equal(indices, np.arange(indices.size)):
            raise ValueError("folds must partition range(n): an index is repeated, "
                             "missing or out of range")

    @property
    def n(self) -> int:
        return sum(f.size for f in self.folds)


def kfold_plan(n: int, k: int = 10, seed: int = 0, labels=None) -> FoldPlan:
    """Deterministic k-fold partition of range(n).

    Fold sizes differ by at most one. The folds are stratified exactly
    when `labels` (+1/-1) are given: each class is spread as evenly as
    possible, and leftover samples of the two classes are assigned from
    opposite ends of the fold list so total sizes still differ by at
    most one.
    """
    _count("k", k, least=2)
    _count("seed", seed, least=0)
    if k > _count("n", n):
        raise ValueError(f"k={k} exceeds the number of samples n={n}")
    rng = np.random.default_rng(seed)
    if labels is None:
        perm = rng.permutation(n)
        folds = tuple(np.sort(chunk) for chunk in np.array_split(perm, k))
        return FoldPlan(k=k, folds=folds)

    y = np.asarray(labels)
    if y.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {y.shape}")
    pos = np.array_split(rng.permutation(np.where(y > 0)[0]), k)
    neg = np.array_split(rng.permutation(np.where(y <= 0)[0]), k)
    folds = tuple(np.sort(np.concatenate([pos[i], neg[k - 1 - i]])) for i in range(k))
    return FoldPlan(k=k, folds=folds)


def split(dataset: Dataset, plan: FoldPlan, fold: int) -> tuple[Dataset, Dataset]:
    """(train, test) datasets for one fold of the plan; the test set is
    the fold itself and the train set its complement, in row order."""
    if _count("fold", fold, least=0) >= plan.k:
        raise ValueError(f"fold must be in [0, {plan.k}), got {fold}")
    if plan.n != dataset.n:
        raise ValueError(f"plan covers {plan.n} samples but dataset has {dataset.n}")
    train = np.ones(dataset.n, dtype=bool)
    train[plan.folds[fold]] = False
    return dataset.subset(train), dataset.subset(plan.folds[fold])
