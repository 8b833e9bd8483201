"""Phase reduction and correctly rounded log-domain summation.

All magnitudes in this package are carried as natural logarithms so that
quantities such as e^{t*Re(lam)} and (n!)^beta never leave the representable
range of binary64.  A complex coordinate is a log-magnitude and a phase in
(-pi, pi]; a magnitude of exactly zero is encoded as -inf with a canonical
phase of 0.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")
TWO_PI = 2.0 * math.pi

# exp() underflows to 0.0 below roughly -745; used as an absolute floor when a
# relative tolerance is meaningless (sums that are themselves zero).
LOG_ABS_FLOOR = -745.0


def wrap_phase(phi):
    """Reduce an angle (scalar or array) to the canonical interval (-pi, pi].

    The map is the identity (bit for bit) on inputs already inside the
    interval, which keeps no-op symbol applications exact.
    """
    phi = np.asarray(phi, dtype=float)
    wrapped = math.pi - np.remainder(math.pi - phi, TWO_PI)
    return np.where((phi > -math.pi) & (phi <= math.pi), phi, wrapped)


def logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) without overflow; handles -inf identities exactly."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


# fsum is the faster sum below about 380 nonzero terms (2 vCPU: 256 terms
# 14 us against 19 us on the grid, 512 terms 29 us against 23 us); past
# _GRID_MAX_TERMS a piece sum of the grid could leave binary64's integers.
_GRID_MIN_TERMS = 384
_GRID_MAX_TERMS = 1 << 21
_TWO32 = 2.0**32


def logsumexp(values) -> float:
    """log(sum(e^v)) with max-shift and a correctly rounded sum: the float
    math.fsum gives for the shifted terms, bit for bit.

    A row of at most _GRID_MAX_TERMS terms, _GRID_MIN_TERMS of them nonzero
    after the shift, is summed exactly on the 2^-96 grid (_grid_sum).  A row
    whose rounding that leaves open, a row with a +inf entry, and every
    other row are summed by fsum over their nonzero terms (an exact 0
    changes nothing; `!= 0.0` keeps NaN, so a +inf entry still gives NaN).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return NEG_INF
    m = float(np.max(arr))
    if m == NEG_INF:
        return NEG_INF
    if math.isnan(m):
        raise ValueError("NaN in log-domain summation")
    x = np.exp(arr - m)
    s = None
    if (
        _GRID_MIN_TERMS <= x.size <= _GRID_MAX_TERMS
        and m != math.inf
        and np.count_nonzero(x) >= _GRID_MIN_TERMS
    ):
        s = _grid_sum(x)
    if s is None:
        s = math.fsum(x[x != 0.0].tolist())
    return m + math.log(s)


def _grid_sum(x: np.ndarray):
    """The correctly rounded sum of x (terms in [0, 1], the largest exactly
    1, at most 2^21 of them), or None where the rounding is not decided.

    Each term is cut at 2^-32, 2^-64 and 2^-96 into three integer pieces
    of at most 2^32 (scale by 2^32, floor, subtract: all exact), so each
    piece array sums to at most 2^53, exactly in any order; N is their
    total in units of 2^-96, at least 2^96.  The true sum is N + L units,
    where L, the sum of what is left below 2^-96, lies in (0, n) unless
    every leftover is 0.  N is rounded to its top 53 bits q, with rem the
    bits below and half half a unit of q: half to even when L = 0, down
    when rem + n <= half, up when rem >= half.  Between those the leftovers
    decide, and the caller falls back to fsum.
    """
    N, y = 0, x * _TWO32
    for _ in range(3):
        piece = np.floor(y)
        y -= piece
        N = (N << 32) + int(piece.sum())
        y *= _TWO32
    e = N.bit_length() - 53
    q, rem, half = N >> e, N & ((1 << e) - 1), 1 << (e - 1)
    if not y.any():
        up = rem > half or (rem == half and q & 1)
    elif rem + x.size <= half:
        up = False
    elif rem >= half:
        up = True
    else:
        return None
    return math.ldexp(q + up, e - 96)
