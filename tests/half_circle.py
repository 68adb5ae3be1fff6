"""The half circle that integrator.integrate_path follows, as a clock
t(s) and its derivative dt/ds over s in [0, 1], written as the library
writes them: for tests that step along it with integrate itself, which
keeps every state's dense output, or with single steps."""

import numpy as np


def half_circle(center, radius):
    """(t(s), dt/ds) from center - radius to center + radius through
    Im t > 0."""

    def t_of_s(s):
        return center + radius * np.exp(1j * (np.pi * (1.0 - s)))

    def dt_ds(s):
        return -1j * np.pi * radius * np.exp(1j * (np.pi * (1.0 - s)))

    return t_of_s, dt_ds
