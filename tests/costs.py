"""The swarm's cost of one weight vector on one frame, for tests.

It scores through the production path, `pso._gram` and `pso._scores`, as a
one-particle swarm on a one-frame batch, whose statistics `_gram` returns
lanes last, so a test that checks it against an oracle checks the costs
the swarm ranks its particles by.
"""

import numpy as np

from alebench.pso import _gram, _scores


@np.errstate(over="ignore", invalid="ignore")
def swarm_cost(w, d, ale):
    """Mean |e[n]|^2 of frame d's residual under fixed weights w, from
    ale.warmup on, as the swarm scores it: c - 2w'p + w'Rw, or the residual
    power where that form cancels, and +inf where it overflows."""
    D = np.asarray(d, dtype=np.complex128)[None]
    w = np.asarray(w, dtype=np.float64)[:, None]
    return float(_scores(w, *_gram(D, ale), D, np.zeros(1, int), ale)[0])
