"""Verdict properties over random netlists, checked against the pencil oracle.

Each net of ``random_oracle_net(seed)``, seeds 0-99, is probed with current
probes on its first two nodes, sampled on ``oracle_grid`` and scanned over
orders 2..12.  Its verdict must give the oracle's ``stable``, and the verdict's
``stable``, selected order and critical-pole count must not change when the
response is scaled by 1e30 or 1e-30 or the port order is reversed.

Known failures stay in the range as strict xfails naming their ROADMAP item;
the change that mends an item removes its marks.
"""

import functools

import numpy as np
import pytest

from fixtures import flat_response, oracle_grid, random_oracle_net
from pzid.errors import NumericError, UsageError
from pzid.freqresp import FrequencyGrid, FrequencyResponseSet
from pzid.netsim import current_probe, frequency_responses
from pzid.staban import _MARGIN_TOL_REL, auto_identify

SEEDS = range(100)
ORDERS = range(2, 13)
TRANSFORMS = ("x1e30", "x1e-30", "reversed")

ITEM_1 = ("ROADMAP item 1: no order persists on a rounding-level plateau, so the "
          "lowest-rms fallback picks another order")
FLAT_ITEM_1 = ("ROADMAP item 1: the lowest-rms order keeps a real RHP pole just above "
               "the band, and a real pole is never verified")
ITEM_8 = ("ROADMAP item 8: the model has no s*e term, and VF mimics port 2's growth "
          "like s with a far RHP pole")
ORACLE_XFAIL = {37: ITEM_8}
INVARIANCE_XFAIL = {30: ITEM_1, 37: ITEM_8}


def marked(seeds, xfails):
    return [pytest.param(s, marks=pytest.mark.xfail(reason=xfails[s], strict=True))
            if s in xfails else s for s in seeds]


@functools.cache
def probed_net(seed):
    """(responses on the first two nodes, oracle poles) of net ``seed``."""
    net, truth = random_oracle_net(seed)
    probes = [current_probe(node) for node in net.nodes[:2]]
    return frequency_responses(net, probes, oracle_grid(truth)), truth


def transformed(resps, how):
    if how == "reversed":
        return FrequencyResponseSet(resps.grid, resps.ports[::-1], resps.values[::-1])
    scale = {"x1": 1.0, "x1e30": 1e30, "x1e-30": 1e-30}[how]
    return FrequencyResponseSet(resps.grid, resps.ports, tuple(v * scale for v in resps.values))


@functools.cache
def verdict_summary(seed, how="x1"):
    """(stable, selected order, critical-pole count) of the transformed net."""
    verdict = auto_identify(transformed(probed_net(seed)[0], how), ORDERS)
    return verdict.stable, verdict.scan.model.order, len(verdict.critical_poles)


@pytest.mark.parametrize("seed", marked(SEEDS, ORACLE_XFAIL))
def test_verdict_agrees_with_the_oracle(seed):
    resps, truth = probed_net(seed)
    margin = _MARGIN_TOL_REL * float(np.max(resps.grid.omega))
    assert verdict_summary(seed)[0] == (not np.any(truth.real > margin))


@pytest.mark.parametrize("seed", marked(SEEDS, INVARIANCE_XFAIL))
def test_verdict_survives_scaling_and_port_reversal(seed):
    base = verdict_summary(seed)
    assert {how: verdict_summary(seed, how) for how in TRANSFORMS} == dict.fromkeys(
        TRANSFORMS, base)


@pytest.mark.parametrize("scale", [
    pytest.param(1e-30, marks=pytest.mark.xfail(reason=FLAT_ITEM_1, strict=True)),
    1.0,
    1e30,
    pytest.param(1e100, marks=pytest.mark.xfail(reason=FLAT_ITEM_1, strict=True)),
    pytest.param(1e150, marks=pytest.mark.xfail(reason=FLAT_ITEM_1, strict=True)),
])
def test_flat_response_is_stable_at_every_scale(scale):
    flat = flat_response()
    scaled = FrequencyResponseSet(flat.grid, flat.ports, (flat.values[0] * scale,))
    assert auto_identify(scaled, range(2, 7)).stable


class TestDegenerateGrids:
    @pytest.mark.parametrize("edit, message", [
        (lambda f: f[:3], "at least 4 points"),
        (lambda f: np.r_[f[:1], f[:-1]], "strictly increasing"),
        (lambda f: f[::-1], "strictly increasing"),
        (lambda f: f - f[1], "negative frequencies"),
        (lambda f: np.r_[f[:-1], np.nan], "non-finite"),
        (lambda f: np.r_[f[:-1], np.inf], "non-finite"),
    ])
    def test_unusable_grid_is_refused(self, edit, message):
        freqs = probed_net(0)[0].grid.freqs_hz
        with pytest.raises(ValueError, match=message):
            FrequencyGrid(edit(freqs.copy()))

    @pytest.mark.parametrize("seed", range(0, 100, 10))
    def test_grid_below_the_order_budget_is_a_usage_error(self, seed):
        net, truth = random_oracle_net(seed)
        resps = frequency_responses(net, [current_probe(n) for n in net.nodes[:2]],
                                    oracle_grid(truth, n=4))
        with pytest.raises(UsageError, match="exceeds the point budget of 4 samples"):
            auto_identify(resps, ORDERS)

    def test_overflowing_response_is_a_numeric_error(self):
        flat = flat_response()
        huge = FrequencyResponseSet(flat.grid, flat.ports, (flat.values[0] * 1e200,))
        with pytest.raises(NumericError, match="overflows"):
            auto_identify(huge, range(2, 7))
