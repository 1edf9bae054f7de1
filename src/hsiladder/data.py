"""Hyperspectral data pipeline: cubes, patches, PCA, semi-supervised splits.

Everything here is pure given (inputs, seed).  The combined pipeline is in
:func:`prepare_dataset`, which enforces the no-leakage rules in code: band
scaling and PCA are fit on training pixels only, and the labeled/unlabeled/
test index sets partition every pixel of the scene.  Pixels are indexed
row-major (pixel ``(r, c)`` of an h x w scene is row ``r * w + c``), and a
pixel whose ground truth is 0 carries label -1 and joins the unlabeled pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import cube_io
from .errors import ConfigError, DataError, as_index
from .rng import Rng


@dataclass
class HsiCube:
    """height x width x bands reflectance plus an integer label map
    (0 = unlabeled background, classes 1..num_classes, num_classes >= 1)."""

    reflectance: np.ndarray
    ground_truth: np.ndarray
    num_classes: int

    def __post_init__(self):
        r, g = self.reflectance, self.ground_truth
        if r.ndim != 3:
            raise DataError(f"reflectance must be (h, w, bands), got shape {r.shape}")
        if 0 in r.shape:
            raise DataError(f"reflectance has an empty axis, shape {r.shape}")
        if g.shape != r.shape[:2]:
            raise DataError(
                f"ground truth shape {g.shape} does not match image {r.shape[:2]}"
            )
        if not np.all(np.isfinite(r)):
            raise DataError("reflectance contains non-finite values")
        if not np.issubdtype(g.dtype, np.integer):
            raise DataError(f"ground truth must be an integer array, got {g.dtype}")
        self.num_classes = as_index("num_classes", self.num_classes, 1)
        if g.min() < 0:
            raise DataError("ground-truth labels must be >= 0")
        if g.max() > self.num_classes:
            raise DataError(
                f"ground truth contains label {int(g.max())} but only "
                f"{self.num_classes} classes are declared"
            )


class WindowReader:
    """The ``(n, w, w, c)`` window array of a :class:`PatchSet`, read on
    demand from the mirror-padded cube.

    ``reader[idx]`` indexes the rows as numpy indexes the first axis of an
    array (integers, negative or repeated, slices, boolean masks; an
    out-of-range index raises ``IndexError``) and gathers only those rows'
    windows into a fresh C-contiguous array.  ``np.asarray(reader, dtype)``
    gathers every row with :func:`gather_rows`;
    :meth:`~hsiladder.ladder.LadderNetwork.predict` reads a reader a chunk
    of rows at a time instead, so a map of every pixel never holds them all.
    No window exists until it is read, so n patches of an h x w scene hold
    ``(h + win - 1) * (w + win - 1) * c`` values of padded cube instead of
    ``n * win * win * c``.
    """

    def __init__(self, padded: np.ndarray, rows: np.ndarray, cols: np.ndarray, window: int):
        # (h, w, win, win, c): the window of pixel (r, c) is at [r, c]
        self._view = sliding_window_view(padded, (window, window), axis=(0, 1)).transpose(
            0, 1, 3, 4, 2
        )
        self._rows, self._cols = rows, cols
        self.shape = (len(rows), window, window, padded.shape[2])
        self.dtype = padded.dtype

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, idx) -> np.ndarray:
        rows, cols = self._rows[idx], self._cols[idx]
        # one advanced index gathers a fresh (k, win, win, c) array; two
        # integers would give a read-only view of the padded cube instead
        if np.ndim(rows) == 0:
            return self._view[rows, cols].copy()
        return self._view[rows, cols]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("windows are gathered on demand, so reading them copies")
        return gather_rows(self, np.arange(len(self)), self.dtype if dtype is None else dtype)


# Source bytes that ``gather_rows`` gathers and casts per step.  A sweep of
# 64 KiB-8 MiB on the benchmark's input pools was fastest at 256 KiB (8 MiB
# took 10-55% longer); see CHANGES.md.
GATHER_CHUNK_BYTES = 256 << 10


def gather_rows(rows, indices, dtype) -> np.ndarray:
    """``rows[indices].astype(dtype)`` for integer ``indices`` into an array
    or a :class:`WindowReader`, gathered and cast a chunk at a time, so a
    cast never holds a full-size copy in the source dtype."""
    indices = np.asarray(indices)
    out = np.empty((len(indices), *rows.shape[1:]), dtype=dtype)
    row_bytes = rows.dtype.itemsize * math.prod(rows.shape[1:])
    step = max(1, GATHER_CHUNK_BYTES // max(1, row_bytes))
    for i in range(0, len(indices), step):
        out[i : i + step] = rows[indices[i : i + step]]
    return out


@dataclass
class PatchSet:
    """One window per pixel of the scene, row-major, plus its (0-based)
    class index, -1 where the ground truth is 0 (unlabeled).

    ``patches`` reads each pixel's window from the mirror-padded cube when
    it is indexed (:class:`WindowReader`); the full ``(n, w, w, c)`` array is
    never built unless asked for with ``np.asarray``.
    """

    patches: WindowReader
    labels: np.ndarray  # (h * w,) in -1..K-1
    centers: np.ndarray  # (h * w, 2) row, col

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class PcaModel:
    mean: np.ndarray  # (c,)
    components: np.ndarray  # (c, k), orthonormal columns, descending variance
    explained_variance: np.ndarray  # (k,), non-increasing


@dataclass
class SemiSplit:
    """Disjoint index sets over a :class:`PatchSet`'s rows that cover every
    pixel; unlabeled (-1) pixels are only ever in ``unlabeled_train``."""

    labeled_train: np.ndarray
    unlabeled_train: np.ndarray
    test: np.ndarray

    def train_indices(self) -> np.ndarray:
        return np.concatenate([self.labeled_train, self.unlabeled_train])


# ---------------------------------------------------------------------------
# ingestion and scaling
# ---------------------------------------------------------------------------


def load_cube(data_path, gt_path, expected_classes: int, scale: bool = True) -> HsiCube:
    """Read reflectance + ground-truth HSICUBE1 files into a validated cube
    of ``expected_classes`` classes, an integer >= 1, else ``ConfigError``.

    With ``scale=True`` each band is min-max scaled to [0, 1] over the whole
    scene; pass ``scale=False`` when the split-aware :func:`scale_bands` will
    run later (as :func:`prepare_dataset` does).
    """
    data = cube_io.read_array(data_path)
    gt = cube_io.read_array(gt_path)
    if data.ndim != 3:
        raise DataError(f"{data_path}: expected a 3-d cube, got shape {data.shape}")
    if not np.issubdtype(gt.dtype, np.integer):
        raise DataError(f"{gt_path}: ground truth must be an integer array, got {gt.dtype}")
    for path, arr in ((data_path, data), (gt_path, gt)):
        if arr.size == 0:
            raise DataError(f"{path}: empty array of shape {arr.shape}")
    if data.dtype == np.float32:
        data = data.astype(np.float64)
    elif data.dtype != np.float64:
        raise DataError(f"{data_path}: reflectance must be float32 or float64, got {data.dtype}")
    cube = HsiCube(data, gt.astype(np.int64), as_index("expected_classes", expected_classes, 1))
    if scale:
        cube = scale_bands(cube)
    return cube


def scale_bands(cube: HsiCube, fit_coords: tuple[np.ndarray, np.ndarray] | None = None) -> HsiCube:
    """Band-wise min-max scaling to [0, 1].

    ``fit_coords`` restricts the min/max fit to those (rows, cols) pixels
    (the training pixels in the leakage-free pipeline); all other pixels are
    transformed with the fitted range and clipped to the [-0.5, 1.5] guard
    band.  Without ``fit_coords`` the fit uses the whole scene.
    """
    r = cube.reflectance
    fit = r if fit_coords is None else r[fit_coords]
    lo = fit.min(axis=tuple(range(fit.ndim - 1)))
    hi = fit.max(axis=tuple(range(fit.ndim - 1)))
    span = np.where(hi > lo, hi - lo, 1.0)
    # one full-size array, scaled in place (the dtype of ``(r - lo) / span``)
    scaled = np.subtract(r, lo, dtype=np.result_type(r, span))
    scaled /= span
    np.clip(scaled, -0.5, 1.5, out=scaled)
    return HsiCube(scaled, cube.ground_truth, cube.num_classes)


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def _pixel_labels(ground_truth: np.ndarray) -> np.ndarray:
    """Ground truth - 1 per pixel, row-major, so -1 marks an unlabeled pixel;
    cast first, since an unsigned ground truth would wrap."""
    return ground_truth.reshape(-1).astype(np.int64) - 1


def extract_patches(cube: HsiCube, window: int) -> PatchSet:
    """One window x window x bands patch per pixel of the scene, row-major,
    labeled or not; ``ConfigError`` unless ``window`` is an odd integer >= 1.

    Mirror padding (symmetric reflection including the border pixel) keeps
    border pixels; window 1 yields plain per-pixel spectra.  Only the padded
    cube is copied: the patches are read from it on demand.
    """
    if as_index("window", window, 1) % 2 == 0:
        raise ConfigError(f"window must be odd, got {window}")
    centers = np.indices(cube.ground_truth.shape).reshape(2, -1).T  # (h * w, 2) row, col
    pad = window // 2
    padded = np.pad(cube.reflectance, ((pad, pad), (pad, pad), (0, 0)), mode="symmetric")
    reader = WindowReader(padded, centers[:, 0], centers[:, 1], window)
    return PatchSet(reader, _pixel_labels(cube.ground_truth), centers)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def pca_fit(spectra: np.ndarray, k: int) -> PcaModel:
    """Eigendecomposition of the sample covariance of mean-centered spectra.

    Components are returned in descending eigenvalue order with a
    deterministic sign: each component's largest-magnitude entry is positive.
    ``k`` must be an integer in [1, bands] and there must be at least 2
    samples and as many as bands, else ``ConfigError``."""
    n, c = spectra.shape
    k = as_index("k", k, 1, c)
    if n < max(2, c):
        raise ConfigError(f"PCA needs at least {max(2, c)} samples (2, and one per band), got {n}")
    mean = spectra.mean(axis=0)
    centered = spectra - mean
    cov = centered.T @ centered / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    comps = evecs[:, order]
    evals = evals[order]
    biggest = np.argmax(np.abs(comps), axis=0)
    signs = np.sign(comps[biggest, np.arange(k)])
    signs[signs == 0] = 1.0
    return PcaModel(mean=mean, components=comps * signs, explained_variance=evals)


def pca_transform(model: PcaModel, spectra: np.ndarray) -> np.ndarray:
    return (spectra - model.mean) @ model.components


# Centered pixels that ``pca_reduce_cube`` holds at a time, in bytes.
PCA_BLOCK_BYTES = 1 << 20


def pca_reduce_cube(cube: HsiCube, model: PcaModel) -> HsiCube:
    """:func:`pca_transform` of every pixel, a block of rows at a time, so
    the full-band centered copy of the cube never exists."""
    h, w, c = cube.reflectance.shape
    flat = cube.reflectance.reshape(-1, c)
    reduced = np.empty(
        (len(flat), model.components.shape[1]),
        dtype=np.result_type(flat, model.mean, model.components),
    )
    step = max(1, PCA_BLOCK_BYTES // (flat.itemsize * c))
    for i in range(0, len(flat), step):
        reduced[i : i + step] = pca_transform(model, flat[i : i + step])
    return HsiCube(reduced.reshape(h, w, -1), cube.ground_truth, cube.num_classes)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


# The share of every class's labeled pixels drawn into the test set.
TEST_FRACTION = 0.25


def _stratified_test_counts(class_counts: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment: per-class test counts proportional to
    class size, summing exactly to round(TEST_FRACTION * total)."""
    total_test = int(round(TEST_FRACTION * class_counts.sum()))
    quotas = TEST_FRACTION * class_counts
    base = np.floor(quotas).astype(np.int64)
    # never negative: each quota is exact in binary, so the floors sum to at
    # most floor(TEST_FRACTION * total) <= total_test
    remainder = total_test - int(base.sum())
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[:remainder]] += 1
    return base


def make_split(labels: np.ndarray, n_per_class: int, seed: int = 0) -> SemiSplit:
    """Stratified draw of :data:`TEST_FRACTION` of each class as the test
    set first, then n labeled points per class from the remainder;
    everything else, the unlabeled (-1) points included, becomes the
    unlabeled pool.

    The test set is drawn before any labeled sampling, so runs at different
    ``n_per_class`` under one seed share a test set.  ``n_per_class`` must
    be an integer >= 1, else ``ConfigError``.  ``labels`` must be a 1-d
    integer vector, one class index or -1 per pixel, with at least one class
    index, else ``DataError``."""
    labels = np.asarray(labels)
    n_per_class = as_index("n_per_class", n_per_class, 1)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"labels must be a 1-d integer vector, got {labels.dtype} {labels.shape}")
    if (labels < -1).any():
        raise DataError(f"labels must be >= -1 (-1 marks an unlabeled pixel), got {labels.min()}")
    classes = np.unique(labels[labels >= 0])
    if classes.size == 0:
        raise DataError("no labeled pixels to split: every ground-truth label is 0 (unlabeled)")
    counts = np.array([(labels == c).sum() for c in classes])
    test_counts = _stratified_test_counts(counts)
    rng = Rng(seed)
    test_parts, rest_parts = [], []
    for c, t in zip(classes, test_counts):
        idx = np.nonzero(labels == c)[0]
        perm = idx[rng.gen.permutation(len(idx))]
        test_parts.append(perm[:t])
        rest_parts.append(perm[t:])
    labeled_parts, unlabeled_parts = [], [np.flatnonzero(labels < 0)]
    for c, rest in zip(classes, rest_parts):
        if len(rest) < n_per_class:
            raise DataError(
                f"class {int(c) + 1} has only {len(rest)} non-test points, "
                f"need {n_per_class} labeled"
            )
        pick = rng.gen.choice(len(rest), size=n_per_class, replace=False)
        chosen = np.zeros(len(rest), dtype=bool)
        chosen[pick] = True
        labeled_parts.append(rest[chosen])
        unlabeled_parts.append(rest[~chosen])
    return SemiSplit(
        labeled_train=np.sort(np.concatenate(labeled_parts)),
        unlabeled_train=np.sort(np.concatenate(unlabeled_parts)),
        test=np.sort(np.concatenate(test_parts)),
    )


# ---------------------------------------------------------------------------
# the leakage-free pipeline
# ---------------------------------------------------------------------------


@dataclass
class PreparedData:
    patches: PatchSet
    split: SemiSplit
    pca: PcaModel | None


def prepare_dataset(
    cube: HsiCube, window: int, pca_components: int | None, n_per_class: int, seed: int = 0
) -> PreparedData:
    """Split -> train-only band scaling -> train-only PCA -> patches.

    The split is computed on labels alone, so the scaling and PCA fits can
    be restricted to training pixels: every pixel but the test pixels,
    unlabeled ones included, which leaks no label.  That the split
    partitions the scene's pixels, and so that the fit set and the test set
    are disjoint, is checked here rather than assumed.
    """
    labels = _pixel_labels(cube.ground_truth)
    split = make_split(labels, n_per_class, seed)
    train_idx = split.train_indices()
    covered = np.sort(np.concatenate([train_idx, split.test]))
    if not np.array_equal(covered, np.arange(len(labels))):
        raise DataError("split does not partition the scene's pixels")
    fit_coords = np.unravel_index(train_idx, cube.ground_truth.shape)
    cube = scale_bands(cube, fit_coords=fit_coords)
    pca = None
    if pca_components is not None:
        train_spectra = cube.reflectance[fit_coords]
        pca = pca_fit(train_spectra, pca_components)
        cube = pca_reduce_cube(cube, pca)
    patches = extract_patches(cube, window)
    return PreparedData(patches=patches, split=split, pca=pca)
