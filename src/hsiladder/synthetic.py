"""Synthetic desk-scale hyperspectral scene for fast experiments.

Block-structured ground truth, one Gaussian spectral profile per class,
per-pixel brightness jitter (a nuisance factor), and additive sensor noise.
Small enough that full semi-supervised runs finish in seconds, hard enough
that a handful of labels per class does not saturate accuracy.
"""

from __future__ import annotations

import numpy as np

from .data import HsiCube
from .errors import ConfigError, as_index, as_real
from .rng import Rng


def make_synthetic_cube(
    seed: int,
    height: int = 48,
    width: int = 48,
    bands: int = 8,
    classes: int = 3,
    block: int = 8,
    noise: float = 0.35,
    brightness_jitter: float = 0.45,
) -> HsiCube:
    """A seeded scene; ``ConfigError`` names a size that is not an integer >= 1
    or a noise level that is not a finite real >= 0."""
    sizes = dict(height=height, width=width, bands=bands, classes=classes, block=block)
    for name, value in sizes.items():
        as_index(name, value, 1)
    for name, value in (("noise", noise), ("brightness_jitter", brightness_jitter)):
        as_real(name, value)
    rng = Rng(seed)
    bh = (height + block - 1) // block
    bw = (width + block - 1) // block
    n_blocks = bh * bw
    if n_blocks < classes:
        raise ConfigError(
            f"{n_blocks} blocks of block={block} cannot host classes={classes}; "
            "shrink the block size"
        )
    # cycle the classes over the blocks, then shuffle: every class appears
    flat = (np.arange(n_blocks) % classes) + 1
    block_map = flat[rng.gen.permutation(n_blocks)].reshape(bh, bw)
    gt = np.repeat(np.repeat(block_map, block, axis=0), block, axis=1)[:height, :width]

    centers = np.linspace(1.0, bands - 2.0, classes)
    band_axis = np.arange(bands, dtype=np.float64)
    profiles = np.stack(
        [np.exp(-((band_axis - c) ** 2) / (2.0 * 1.4**2)) for c in centers]
    )  # (classes, bands)

    brightness = np.exp(brightness_jitter * rng.normal(1.0, (height, width)))
    spectra = profiles[gt - 1]  # (h, w, bands)
    reflectance = brightness[:, :, None] * spectra + rng.normal(noise, (height, width, bands))
    return HsiCube(reflectance, gt.astype(np.int64), num_classes=classes)
