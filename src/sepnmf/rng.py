"""Seeded pseudo-random numbers for reproducible experiments.

The generator is splitmix64 used in counter mode: output i is
mix(seed + (i+1) * GOLDEN) over 64-bit wrapping arithmetic, so any block
of draws is a pure function of (seed, counter) and vectorizes cleanly.
Gaussians come from Box-Muller, Gamma variates from Marsaglia-Tsang, and
Dirichlet columns from normalized Gammas.
"""

import numpy as np

RNG_NAME = "splitmix64-v1"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based splitmix64 stream with a 64-bit seed."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def next_u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs; advances the counter by n."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix(self._seed + idx * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * _U53

    def uniform_open(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]; safe as a log or power argument."""
        return ((self.next_u64(n) >> np.uint64(11)).astype(np.float64) + 1.0) * _U53

    def normal(self, n: int) -> np.ndarray:
        """n standard Gaussians via Box-Muller (consumes 2*ceil(n/2) draws)."""
        pairs = (n + 1) // 2
        u1 = self.uniform_open(pairs)
        u2 = self.uniform(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normal(rows * cols).reshape(rows, cols)

    def gamma(self, alpha: float, n: int) -> np.ndarray:
        """n Gamma(alpha, 1) variates, Marsaglia-Tsang squeeze method.

        alpha < 1 uses the boost Gamma(alpha+1) * U^(1/alpha).
        """
        if alpha <= 0.0:
            raise ValueError(f"gamma shape must be positive, got {alpha}")
        boost = None
        a = alpha
        if a < 1.0:
            boost = self.uniform_open(n) ** (1.0 / a)
            a = a + 1.0
        d = a - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        out = np.empty(n)
        need = np.arange(n)
        while need.size:
            x = self.normal(need.size)
            v = (1.0 + c * x) ** 3
            u = self.uniform_open(need.size)
            ok = v > 0.0
            x2 = x * x
            with np.errstate(invalid="ignore", divide="ignore"):
                accept = ok & (
                    (u < 1.0 - 0.0331 * x2 * x2)
                    | (np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(np.where(ok, v, 1.0))))
                )
            out[need[accept]] = d * v[accept]
            need = need[~accept]
        if boost is not None:
            out = out * boost
        return out

    def dirichlet_columns(self, alpha: np.ndarray, n: int) -> np.ndarray:
        """n columns drawn from Dirichlet(alpha); shape (len(alpha), n)."""
        alpha = np.asarray(alpha, dtype=np.float64)
        g = np.empty((alpha.size, n))
        for i, a in enumerate(alpha):
            g[i] = self.gamma(float(a), n)
        return g / g.sum(axis=0)

    def permutation(self, m: int) -> np.ndarray:
        """Uniform permutation of range(m) by sorting random 64-bit keys."""
        keys = self.next_u64(m)
        return np.argsort(keys, kind="stable")
