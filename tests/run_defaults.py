"""Model parameters at the run defaults of the command line
(cli._DEFAULTS), for tests that solve at them: the library itself keeps
no defaults for N or the tolerances."""

from blowup_lab import cli
from blowup_lab.integrator import IntegratorConfig

TOLERANCES = IntegratorConfig(rtol=cli._DEFAULTS["rtol"],
                              atol=cli._DEFAULTS["atol"])


def model_params(alpha, epsilon, **overrides):
    """ModelParams as the command line builds them: its defaults, with
    alpha, epsilon and the overrides (n_modes, rtol, atol) in their place."""
    return cli._params({**cli._DEFAULTS, "alpha": alpha, "epsilon": epsilon,
                        **overrides})
