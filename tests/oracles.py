"""Reference implementations used only by the test suite.

Each function here is an independent, deliberately naive counterpart to a
fast path in the library. Tests compare the two implementations; nothing
under src/ imports this module.
"""
from __future__ import annotations

import cmath

import numpy as np
from scipy.optimize import linprog


def dft_two_sided(values):
    """Direct-summation DFT, O(N^2): X[k] = sum_l x[l] exp(-2pi i k l / N)."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ x.astype(np.complex128)


def one_sided_magnitudes(values):
    """(frequencies, magnitudes) over the nonnegative half of the spectrum."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    m = n // 2 + 1
    return np.arange(m) / n, np.abs(dft_two_sided(x)[:m])


def spectral_centroid(frequencies, magnitudes):
    """Magnitude-weighted mean frequency, written out longhand."""
    total = 0.0
    weighted = 0.0
    for f, mag in zip(frequencies, magnitudes, strict=True):
        total += float(mag)
        weighted += float(f) * float(mag)
    return weighted / total


def s4d_recurrence(poles, coefficients, step, length):
    """Unrolled state recurrence for a diagonal state-space kernel.

    Per mode: abar = exp(step * a), bbar = (abar - 1) / a, then
    x_0 = 1, y_l += Re(c * bbar * x_l), x_{l+1} = abar * x_l.
    Scalar arithmetic on purpose; no vectorized powers.
    """
    out = [0.0] * length
    for a, c in zip(poles, coefficients, strict=True):
        abar = cmath.exp(step * complex(a))
        bbar = (abar - 1.0) / complex(a)
        x = 1.0 + 0.0j
        for l in range(length):
            out[l] += (complex(c) * bbar * x).real
            x = abar * x
    return np.asarray(out, dtype=np.float64)


def hulls_intersect(set_a, set_b):
    """Do the convex hulls of two point sets share a point?

    Feasibility program: convex weights lam, mu with A^T lam = B^T mu,
    sum lam = 1, sum mu = 1, lam >= 0, mu >= 0. Feasible iff the hulls
    intersect. Deliberately a different formulation from the library's
    separating-margin program.
    """
    a = np.asarray(set_a, dtype=np.float64)
    b = np.asarray(set_b, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if b.ndim == 1:
        b = b[None, :]
    na, nb = a.shape[0], b.shape[0]
    d = a.shape[1]
    a_eq = np.zeros((d + 2, na + nb))
    a_eq[:d, :na] = a.T
    a_eq[:d, na:] = -b.T
    a_eq[d, :na] = 1.0
    a_eq[d + 1, na:] = 1.0
    b_eq = np.concatenate([np.zeros(d), [1.0, 1.0]])
    res = linprog(
        np.zeros(na + nb),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * (na + nb),
        method="highs",
    )
    return bool(res.success)


def nearest_labels(result, queries):
    """The probe's nearest-cluster labels, one exact ``norm`` row per query.

    The training points are stacked cluster by cluster and divided by the
    probe's power of two, as are the queries; argmin's first minimum picks
    the point, so a tie goes to the lower-indexed cluster.
    """
    from spectrobe.probe import _scaled
    from spectrobe.spectral import as_vector

    sizes = [len(c.member_indices) for c in result.clusters]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    x, shift = _scaled(np.stack([result.points[i].vector
                                 for c in result.clusters for i in c.member_indices]))
    labels = []
    with np.errstate(over="ignore"):  # an overflow ties all points, as unscaled rounding does
        for query in queries:
            q = as_vector(query, "query")
            if q.size != x.shape[1]:
                raise ValueError(f"query must be a vector of dimension {x.shape[1]}")
            nearest = owner[np.argmin(np.linalg.norm(x - np.ldexp(q, -shift), axis=1))]
            labels.append(result.clusters[nearest].label)
    return labels
