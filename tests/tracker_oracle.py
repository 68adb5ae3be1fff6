"""Row-by-row forms of the tracker's block passes, as an oracle: the
denoise and the decaying window of one state, each a loop over the modes
as the tracker ran them before it took a block at a time."""

import numpy as np

_ROUNDOFF = np.finfo(float).eps


def roundoff_floor(coeffs):
    """Magnitude below which a coefficient is roundoff of the largest."""
    return 100.0 * _ROUNDOFF * max(1.0, float(np.max(np.abs(coeffs))))


def denoised(coeffs):
    """One state's coefficients with the noise ramp at the top of the
    spectrum and every coefficient at roundoff set to zero: modes +-k are
    zeroed from k = N down while |c| at k is more than twice |c| at k - 1
    (the larger of +-k each), but not below k = N/2 + 1."""
    c = np.asarray(coeffs)
    n = (len(c) - 1) // 2
    mag = np.maximum(np.abs(c[n:]), np.abs(c[n::-1]))   # k = 0..n, both signs
    out = c.copy()
    k = n
    while k > n // 2 and mag[k] > 2.0 * mag[k - 1]:
        out[n + k] = 0.0
        out[n - k] = 0.0
        k -= 1
    return np.where(np.abs(out) > roundoff_floor(out), out, 0.0)


def decaying_range(log_mag, n):
    """(k_lo, k_hi) of one spectrum log|a_k|, k = 1..n: scan up from k = 1
    for new running minima and stop after 8 modes without one; k_hi is
    one below the last minimum, k_lo half of it, at least 8."""
    current = log_mag[0]
    k_hi, gap = 1, 0
    for k in range(2, n + 1):
        if log_mag[k - 1] < current:
            current, k_hi, gap = log_mag[k - 1], k, 0
        else:
            gap += 1
            if gap >= 8:
                break
    k_hi -= 1
    return max(8, k_hi // 2), k_hi
