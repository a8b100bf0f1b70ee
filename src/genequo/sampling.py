"""Deterministic low-discrepancy direction sampling on spheres and cones."""

from __future__ import annotations

import numpy as np
from scipy.stats import norm, qmc

DEFAULT_SEED = 42


def sphere_directions(dim: int, count: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Return ``count`` unit vectors in R^dim from a scrambled Sobol sequence.

    Deterministic for a fixed (dim, count, seed).  For dim == 1 the only unit
    directions are -1 and +1, returned alternating.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs.reshape(-1, 1)
    n_pow2 = 1 << max(0, int(np.ceil(np.log2(count))))
    sobol = qmc.Sobol(d=dim, scramble=True, seed=seed)
    u = sobol.random(n_pow2)[:count]
    # Map to Gaussians, then radially project; clip avoids +-inf at 0 and 1.
    z = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    bad = norms < 1e-12
    if np.any(bad):
        z[bad] = 0.0
        z[bad, 0] = 1.0
        norms[bad] = 1.0
    return z / norms[:, None]


def cone_ray_directions(cone, count: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Unit directions inside a cone, from projected sphere samples.

    Rays that project to (numerically) zero are dropped; the result may hold
    fewer than ``count`` rows, but never zero rows for a nontrivial cone.
    """
    dirs = sphere_directions(cone.dim, count, seed=seed)
    projected = np.array([cone.project(d) for d in dirs])
    norms = np.linalg.norm(projected, axis=1)
    keep = norms > 1e-12
    if not np.any(keep):
        return np.zeros((0, cone.dim))
    return projected[keep] / norms[keep, None]
