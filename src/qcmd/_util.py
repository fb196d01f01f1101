"""Small numerical helpers: RNG streams and periodic-grid calculus."""

import numpy as np


def stream_rng(master_seed, index=0):
    """Counter-based RNG stream derived from (master seed, stream index).

    Streams with distinct indices are statistically independent and the
    result does not depend on scheduling order.
    """
    return np.random.Generator(np.random.Philox(key=None, counter=None,
                                                seed=np.random.SeedSequence((int(master_seed), int(index)))))


def periodic_grid(L, n):
    """Uniform grid on [0, L) with n >= 1 points, endpoint excluded."""
    if n < 1:
        raise ValueError(f"a periodic grid needs n >= 1 points, got {n}")
    return np.arange(n) * (L / n)


def periodic_integral(values, L):
    """Integral over one period of a sampled periodic function.

    The rectangle rule coincides with the trapezoid rule on a periodic
    uniform grid and is spectrally accurate for smooth integrands.
    """
    values = np.asarray(values)
    return values.sum(axis=0) * (L / values.shape[0])


def periodic_antiderivative(values, L):
    """Antiderivative of a sampled periodic function, zero at the first node.

    Spectral: the mean is integrated exactly as a linear ramp and the
    oscillatory part through its Fourier coefficients.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = values.mean()
    k = 2.0 * np.pi / L * np.fft.fftfreq(n, d=1.0 / n)
    coef = np.fft.fft(values - mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(k != 0.0, coef / (1j * k), 0.0)
    osc = np.fft.ifft(anti).real
    x = periodic_grid(L, n)
    return mean * x + osc - osc[0]


def wrap(x, L):
    """Map coordinates into [0, L)."""
    return np.mod(x, L)
