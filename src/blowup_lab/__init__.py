"""Spectral laboratory for point blow-up in the periodic semilinear heat
equation u_t = u_xx + u^2, computed in the reciprocal variable v = 1/u."""

__version__ = "0.1.0"
