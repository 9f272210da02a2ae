"""Fixed-seed draws, recorded per stream version.

A change to what a (seed, rep) pair draws must bump
``lrd_sim.STREAM_VERSION``, which cache keys and sidecars record, so that
stale critical values are never served.  These values were recorded under
the version they are keyed by: a stream change without a bump fails the
comparison, and a bump fails until its values are recorded here.
"""

import numpy as np
import pytest

from lrdustat.hermite import kernel_table
from lrdustat.limit_law import limit_thm1
from lrdustat.lrd_sim import STREAM_VERSION, LrdParams, simulate_gaussian
from lrdustat.ustat import wilcoxon_kernel
from lrdustat.verify import normalized_sup_statistics

FINGERPRINTS = {
    6: {
        # simulate_gaussian(LrdParams(D=0.4, family=...), 64, seed=11) at
        # indices 0, 1, 31 and 63
        "fgn": [0.42205711594061324, 1.2212344195107845,
                -1.0734528641374688, 0.3091018514279388],
        "tweaked": [0.541951615893776, 1.1689090364403245,
                    -0.9137620418267094, 0.9702986187678859],
        # sups of limit_thm1 at G = 16, 4 replications, seed 13
        "rank-1": [0.4214082807873435, 1.0927529309892736,
                   0.30836488503498216, 0.48516019227503215],
        "bump": [1.3780444779502181, 0.643026078638276,
                 0.5688762307164327, 1.0761044524451695],
        "mixed-rank-2": [0.7309386338726047, 0.4032839159077213,
                         0.3157239752211152, 0.3341410182887238],
        # normalized_sup_statistics, Wilcoxon, D = 0.4, n = 128, seed 17
        "wilcoxon-n128": [0.14135299513836766, 0.17215771858546258,
                          0.11612799518357671, 0.10554976939608374],
    },
}

#: (entries, D, N_aux) of each law; the bump draws at its default N_aux
LAWS = {
    "rank-1": ({(1, 0): 1.0, (0, 1): -1.0}, 0.4, None),
    "bump": ({(2, 0): 1.0, (0, 2): 1.0}, 0.4, None),
    "mixed-rank-2": ({(2, 0): 0.5, (1, 1): -1.0, (0, 2): 0.25}, 0.3,
                     2 ** 12),
}


def recorded(name):
    assert STREAM_VERSION in FINGERPRINTS, (
        f"no draws recorded under stream version {STREAM_VERSION}")
    return FINGERPRINTS[STREAM_VERSION][name]


@pytest.mark.parametrize("family", ["fgn", "tweaked"])
def test_sampler(family):
    x = simulate_gaussian(LrdParams(D=0.4, family=family), 64, seed=11)
    np.testing.assert_allclose(x[[0, 1, 31, 63]], recorded(family),
                               rtol=1e-12)


@pytest.mark.parametrize("law", list(LAWS))
def test_limit_law_sups(law):
    entries, d, n_aux = LAWS[law]
    ens = limit_thm1(entries, d, grid_size=16, reps=4, N_aux=n_aux, seed=13)
    np.testing.assert_allclose(ens.sup_abs(), recorded(law), rtol=1e-12)


def test_normalized_sup_statistics():
    kernel = wilcoxon_kernel()
    sups = normalized_sup_statistics(kernel, kernel_table(kernel),
                                     LrdParams(D=0.4), 128, 4, seed=17)
    np.testing.assert_allclose(sups, recorded("wilcoxon-n128"), rtol=1e-12)
