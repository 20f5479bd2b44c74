"""Witness classes for integral probability metrics over states.

Two families:

* the box class {f : S -> [0, 1]} for tabular state spaces, whose best
  response has the closed form f*(s) = 1{d_pi(s) > d_e(s)},
* a random-Fourier-feature class {s -> <w, psi(s)> : |w| <= zeta} whose
  best response is a projected mean-feature difference (an MMD witness).

Pair discriminators over (s, s') are supported by featurizing the
concatenated vector; everything below is state-only by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .envs import ConfigurationError, _frozen
from .expert import ExpertDataset

Array = np.ndarray

W_NORM_TOL = 1e-9


@dataclass(frozen=True)
class BoxDiscriminator:
    """Per-state witness values in [0, 1] over a finite state space."""

    values: Array

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ConfigurationError("box discriminator values must be 1-D")
        if np.any(vals < 0) or np.any(vals > 1):
            raise ConfigurationError("box discriminator values must lie in [0, 1]")
        object.__setattr__(self, "values", _frozen(vals))

    def __call__(self, s) -> float:
        return float(self.values[int(s)])


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
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")
        object.__setattr__(self, "omega", _frozen(om))
        object.__setattr__(self, "offsets", _frozen(off))

    @property
    def num_features(self) -> int:
        return self.omega.shape[0]

    def __call__(self, states) -> Array:
        """Featurize one state (d,) -> (m,) or a batch (n, d) -> (n, m).

        A 1-D input is a single state when the map takes d > 1 inputs,
        otherwise a batch of scalar states.
        """
        x = np.asarray(states, dtype=float)
        d = self.omega.shape[1]
        single = x.ndim == 0 or (x.ndim == 1 and d > 1)
        if x.ndim == 0:
            x = x.reshape(1, 1)
        elif x.ndim == 1:
            x = x.reshape(1, -1) if d > 1 else x.reshape(-1, 1)
        m = self.num_features
        feats = np.sqrt(2.0 / m) * np.cos(x @ self.omega.T + self.offsets)
        return feats[0] if single else feats


@dataclass(frozen=True)
class MmdDiscriminator:
    """Linear witness f(s) = <w, psi(s)> with |w|_2 <= zeta."""

    feature_map: RffFeatureMap
    w: Array
    zeta: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.feature_map.num_features,):
            raise ConfigurationError("w must match the feature dimension")
        if self.zeta <= 0:
            raise ConfigurationError("zeta must be positive")
        if np.linalg.norm(w) > self.zeta + W_NORM_TOL:
            raise ConfigurationError("w violates the norm constraint")
        object.__setattr__(self, "w", _frozen(w))

    def __call__(self, states):
        feats = self.feature_map(states)
        return feats @ self.w


def project_ball(w: Array, zeta: float) -> Array:
    nrm = float(np.linalg.norm(w))
    if nrm <= zeta:
        return np.asarray(w, dtype=float).copy()
    return np.asarray(w, dtype=float) * (zeta / nrm)


def box_witness(d_pi: Array, d_e: Array) -> Array:
    """Values of the box class's best response: f*(s) = 1 where d_pi puts
    strictly more mass than d_e, 0 elsewhere (ties get 0)."""
    return (d_pi > d_e).astype(float)


def tv_best_response(d_pi: Array, d_e: Array) -> tuple[BoxDiscriminator, float]:
    """Closed-form best response of the box class.

    f* is ``box_witness(d_pi, d_e)``; the attained value is
    sum_s max(0, d_pi(s) - d_e(s)).
    """
    p = np.asarray(d_pi, dtype=float)
    q = np.asarray(d_e, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ConfigurationError("marginals must be 1-D with equal length")
    value = float(np.maximum(p - q, 0.0).sum())
    return BoxDiscriminator(values=box_witness(p, q)), value


def mmd_update(disc: MmdDiscriminator, mean_pi: Array,
               mean_e: Array) -> MmdDiscriminator:
    """Best-response witness w <- proj(mean_pi - mean_e)."""
    diff = np.asarray(mean_pi, dtype=float) - np.asarray(mean_e, dtype=float)
    return MmdDiscriminator(feature_map=disc.feature_map,
                            w=project_ball(diff, disc.zeta), zeta=disc.zeta)


def rff_featurize(states: Array, m: int, bandwidth,
                  rng: np.random.Generator) -> tuple[RffFeatureMap, Array]:
    """Draw a frozen feature map and featurize the reference batch.

    bandwidth="auto" uses the 0.1 quantile of pairwise distances over
    the batch, which then needs at least two points.
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
        dists = pdist(x)
        bw = float(np.quantile(dists, 0.1))
        if bw <= 0:
            positive = dists[dists > 0]
            if positive.size == 0:
                raise ConfigurationError(
                    "auto bandwidth: reference batch has no spread")
            bw = float(positive.min())
    else:
        bw = float(bandwidth)
        if bw <= 0:
            raise ConfigurationError("bandwidth must be positive")
    omega = rng.normal(0.0, 1.0 / bw, size=(m, x.shape[1]))
    offsets = rng.uniform(0.0, 2 * np.pi, size=m)
    fmap = RffFeatureMap(omega=omega, offsets=offsets, bandwidth=bw)
    return fmap, fmap(x)


def _mean_value(disc, side) -> float:
    """Expected witness value under a marginal vector or a state batch."""
    if isinstance(side, ExpertDataset):
        side = side.flat_view()
    arr = np.asarray(side)
    if isinstance(disc, BoxDiscriminator):
        if arr.ndim == 1 and arr.dtype.kind == "f" and arr.shape == disc.values.shape:
            total = float(arr.sum())
            if abs(total - 1.0) <= 1e-6:
                return float(arr @ disc.values)
        # fall through: treat as sampled integer states
        return float(np.mean([disc(s) for s in arr]))
    vals = disc(arr)
    return float(np.mean(np.atleast_1d(vals)))


def ipm_eval(disc, d_pi, expert) -> float:
    """E_{d_pi}[f] minus the empirical expert mean of f, for fixed f.

    Each side may be a state-marginal vector (box class), a batch of
    sampled states, or an ExpertDataset (its flat decision-step view).
    """
    return _mean_value(disc, d_pi) - _mean_value(disc, expert)
