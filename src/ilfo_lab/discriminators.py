"""Witness classes for integral probability metrics over states.

Two families:

* the box class {f : S -> [0, 1]} for tabular state spaces, whose best
  response has the closed form f*(s) = 1{d_pi(s) > d_e(s)} and attains
  the positive part sum_s max(0, d_pi(s) - d_e(s)),
* a random-Fourier-feature class {s -> <w, psi(s)> : |w| <= 1}, named by
  its feature map psi (an ``RffFeatureMap``) and an (m,) weight vector w
  in the unit ball; ``mmd_update`` gives the weights, the mean-feature
  difference projected onto that ball (an MMD witness).

Both classes are state-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import ConfigurationError, _frozen

Array = np.ndarray

PAIR_BLOCK = 1 << 16    # distances computed per block of rows


@dataclass(frozen=True)
class RffFeatureMap:
    """Frozen random Fourier features psi(s) = sqrt(2/m) cos(Omega s + b)."""

    omega: Array      # (m, d_s), rows ~ N(0, I / bandwidth^2)
    offsets: Array    # (m,), ~ Uniform[0, 2pi)
    bandwidth: float

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        off = np.asarray(self.offsets, dtype=float)
        if om.ndim != 2 or off.shape != (om.shape[0],):
            raise ConfigurationError("omega must be (m, d) with matching offsets")
        if not 0 < self.bandwidth < math.inf:
            raise ConfigurationError("bandwidth must be a finite number > 0")
        object.__setattr__(self, "omega", _frozen(om))
        object.__setattr__(self, "offsets", _frozen(off))

    @property
    def num_features(self) -> int:
        return self.omega.shape[0]

    def __call__(self, states) -> Array:
        """Featurize states on the last axis: (..., d) -> (..., m).

        A single (d,) state goes through as a (1, d) batch.
        """
        x = np.asarray(states, dtype=float)
        d = self.omega.shape[1]
        if x.ndim == 0 or x.shape[-1] != d:
            raise ConfigurationError(
                f"states must be (..., {d}), got shape {x.shape}")
        m = self.num_features
        feats = np.sqrt(2.0 / m) * np.cos(np.atleast_2d(x) @ self.omega.T
                                          + self.offsets)
        return feats[0] if x.ndim == 1 else feats


def box_witness(d_pi: Array, d_e: Array) -> Array:
    """Values of the box class's best response: f*(s) = 1 where d_pi puts
    strictly more mass than d_e, 0 elsewhere (ties get 0)."""
    return (d_pi > d_e).astype(float)


def tv_best_response(d_pi: Array, d_e: Array) -> float:
    """Value of the box class's best response ``box_witness(d_pi, d_e)``:
    sum_s max(0, d_pi(s) - d_e(s))."""
    p = np.asarray(d_pi, dtype=float)
    q = np.asarray(d_e, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ConfigurationError("marginals must be 1-D with equal length")
    return float(np.maximum(p - q, 0.0).sum())


def mmd_update(mean_pi: Array, mean_e: Array) -> Array:
    """Witness weights w = proj(mean_pi - mean_e), the projection onto the
    unit ball.

    The maximiser of <w, mean_pi - mean_e> over |w| <= 1 is
    (mean_pi - mean_e) / |mean_pi - mean_e|; the projection equals it
    only when |mean_pi - mean_e| >= 1, and inside the ball it is the
    difference itself (ROADMAP item 4).
    """
    diff = np.asarray(mean_pi, dtype=float) - np.asarray(mean_e, dtype=float)
    nrm = float(np.linalg.norm(diff))
    return diff if nrm <= 1.0 else diff * (1.0 / nrm)


def pairwise_distances(x: Array) -> Array:
    """Euclidean distances between the rows of ``x`` over the pairs
    i < j, in the order and to the bit of scipy's ``pdist``.

    Each distance adds the squared coordinate differences left to right
    from zero, then takes the square root.  Rows go in blocks of at most
    PAIR_BLOCK pairs: a block is a rectangle of its rows against every
    later row, whose upper triangle is kept.  Beyond the n(n-1)/2
    output, memory is one block's two float64 buffers, its mask and the
    gathered upper triangle.
    """
    n = x.shape[0]
    xt = np.ascontiguousarray(x.T)
    out = np.empty(n * (n - 1) // 2)
    rows = max(1, PAIR_BLOCK // max(n - 1, 1))
    acc_buf = np.empty(min(rows, n - 1) * (n - 1))
    diff_buf = np.empty_like(acc_buf)
    pos = 0
    for i0 in range(0, n - 1, rows):
        r, w = min(rows, n - 1 - i0), n - 1 - i0
        acc = acc_buf[:r * w].reshape(r, w)
        diff = diff_buf[:r * w].reshape(r, w)
        acc.fill(0.0)
        for col in xt:
            np.subtract(col[i0:i0 + r, None], col[None, i0 + 1:], out=diff)
            np.multiply(diff, diff, out=diff)
            acc += diff
        np.sqrt(acc, out=acc)
        upper = np.arange(w)[None, :] >= np.arange(r)[:, None]
        count = r * w - r * (r - 1) // 2
        out[pos:pos + count] = acc[upper]
        pos += count
    return out


def rff_featurize(states: Array, m: int, bandwidth,
                  rng: np.random.Generator) -> tuple[RffFeatureMap, Array]:
    """Draw a frozen feature map and featurize the reference batch.

    bandwidth="auto" uses the 0.1 quantile of pairwise distances over
    the batch, which then needs at least two points; a numeric bandwidth
    must be a finite number > 0.
    """
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise ConfigurationError("states must be (n, d) or (n,)")
    if bandwidth == "auto":
        if x.shape[0] < 2:
            raise ConfigurationError(
                "auto bandwidth needs >= 2 reference points")
        dists = pairwise_distances(x)
        bw = float(np.quantile(dists, 0.1))
        if bw <= 0:
            positive = dists[dists > 0]
            if positive.size == 0:
                raise ConfigurationError(
                    "auto bandwidth: reference batch has no spread")
            bw = float(positive.min())
    else:
        bw = float(bandwidth)
        if not 0 < bw < math.inf:
            raise ConfigurationError("bandwidth must be a finite number > 0")
    omega = rng.normal(0.0, 1.0 / bw, size=(m, x.shape[1]))
    offsets = rng.uniform(0.0, 2 * np.pi, size=m)
    fmap = RffFeatureMap(omega=omega, offsets=offsets, bandwidth=bw)
    return fmap, fmap(x)

