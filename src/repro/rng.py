"""Deterministic random-number utilities.

All stochastic behaviour in the library flows through
:class:`numpy.random.Generator` objects derived here.  Components never
share a generator implicitly: a parent seed is split into independent
child streams by name, so adding a new consumer does not perturb the
values drawn by existing ones.

It also holds closed forms of the library draws synthesis makes once
per event: an exponentiated-Weibull variate and a weighted index.  Each
consumes the generator exactly as the library call does and returns
the same bits, without the library call's per-call overhead (array
conversion and validation); the tests compare them with those calls.
"""

from __future__ import annotations

import bisect
import hashlib
import math

import numpy as np

#: Default seed for the "canonical" corpus used by benches and examples.
DEFAULT_SEED = 2018


def child_seed(seed: int, name: str) -> int:
    """Derive a stable 63-bit child seed from ``seed`` and a stream name.

    The derivation hashes the ``(seed, name)`` pair, so streams for
    different names are statistically independent and insertion-order
    independent.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def child_generator(seed: int, name: str) -> np.random.Generator:
    """Return an independent generator for the named child stream."""
    return np.random.default_rng(child_seed(seed, name))


#: Coefficients of cephes' ``log1p``: ``log(1 + x) = x - x**2/2 +
#: x**3 P(x)/Q(x)`` for ``1/sqrt(2) <= 1 + x <= sqrt(2)`` (Q's leading
#: coefficient is 1).
_LOG1P_P = (4.5270000862445199635215e-5, 4.9854102823193375972212e-1,
            6.5787325942061044846969e0, 2.9911919328553073277375e1,
            6.0949667980987787057556e1, 5.7112963590585538103336e1,
            2.0039553499201281259648e1)
_LOG1P_Q = (1.5062909083469192043167e1, 8.3047565967967209469434e1,
            2.2176239823732856465394e2, 3.0909872225312059774938e2,
            2.1642788614495947685003e2, 6.0118660497603843919306e1)


def _log1p(x: float) -> float:
    """``log(1 + x)`` as cephes computes it (``scipy.special.log1p``).

    ``math.log1p`` and ``np.log1p`` differ from it by up to 2 ulp.  At
    ``x = -1`` the result is ``-inf`` and below it ``nan``, as C's
    ``log`` gives, where :func:`math.log` would raise.
    """
    z = 1.0 + x
    if z < 0.70710678118654752440 or z > 1.41421356237309504880:
        if z > 0.0:
            return math.log(z)
        return -math.inf if z == 0.0 else math.nan
    p = _LOG1P_P[0]
    for coefficient in _LOG1P_P[1:]:
        p = p * x + coefficient
    q = x + _LOG1P_Q[0]
    for coefficient in _LOG1P_Q[1:]:
        q = q * x + coefficient
    z = x * x
    return x + (-0.5 * z + x * (z * p / q))


def exponweib_variate(a: float, c: float, scale: float,
                      rng: np.random.Generator) -> float:
    """One exponentiated-Weibull variate (shapes ``a``, ``c``; ``scale``).

    Bit-identical to ``rvs(a, c, scale=scale, random_state=rng)`` of
    ``scipy.stats.exponweib``, and leaves ``rng`` in the same state: one
    uniform through the inverse CDF, with scipy's operations on
    scipy's operand types (a 0-d array, numpy scalars), so numpy picks
    the same ``power`` loop (which can differ from C ``pow`` in the
    last bit) and the logarithm rounds as cephes' ``log1p`` does.
    Callers validate that ``a``, ``c`` and ``scale`` are positive.
    """
    u = rng.uniform(size=())
    x = u ** np.float64(1.0 / a)
    y = np.float64(-_log1p(-float(x))) ** np.asarray(1.0 / c)
    return float(y * scale + 0.0)


def weighted_cdf(p) -> list[float]:
    """The table :func:`cdf_index` draws from, for weights ``p``.

    The cumulative sum ``Generator.choice(len(p), p=p)`` builds on
    every call, built once, as a list of floats.  ``p`` is checked as
    ``choice`` checks it: 1-D, finite, non-negative, summing to 1
    within ``sqrt(eps)``; anything else raises :class:`ValueError`.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if (p < 0).any():
        raise ValueError("probabilities must be non-negative")
    if abs(math.fsum(p) - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def cdf_index(cdf: list[float], rng: np.random.Generator) -> int:
    """Draw an index from a :func:`weighted_cdf` table.

    Returns what ``Generator.choice(len(p), p=p)`` returns and consumes
    the same single double: ``choice`` looks that double up with
    ``searchsorted(side="right")`` on the same non-decreasing table,
    which is :func:`bisect.bisect_right` on its values.
    """
    return bisect.bisect_right(cdf, rng.random())
