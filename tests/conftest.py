import math

import numpy as np
import pytest

from rampforge import spec_from_mu

# Parameters used throughout the figure-style checks: a 1 kg block at 5 m/s
# with friction coefficient 0.5 under standard gravity.
FIG_MU = 0.5
FIG_V = 5.0
FIG_G = 9.81
FIG_M = 1.0

# Frozen reference values for the figure parameters, computed once with
# 40-digit arithmetic and rounded to double precision.
A_REF = 0.8774330743709175            # g / (v^2 sin delta)
S0_REF = 1.6452941168348778           # arcsinh(1/mu) / a
GAP_REF = 3.5804356427322764          # pi / a
LAMBDA_INF_REF = 8.774330743709175    # m g cos delta, N

# values every magnitude (g, v, m, a step, an arc length, fps, kappa, a span)
# must refuse: NaN fails a check that is not phrased to catch it
NOT_POSITIVE = [0.0, -1.0, math.nan, math.inf, -math.inf]


@pytest.fixture
def fig_spec():
    return spec_from_mu(FIG_MU, g=FIG_G, v=FIG_V, m=FIG_M)


@pytest.fixture
def rng():
    return np.random.default_rng(20250825)
