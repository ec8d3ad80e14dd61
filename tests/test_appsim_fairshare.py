"""Unit tests for max-min fair-share rate computation."""

import numpy as np
import pytest

from repro.appsim.fairshare import maxmin_rates
from repro.errors import SimulationError


def arr(*xs):
    return np.asarray(xs, dtype=np.int64)


class TestBasics:
    def test_single_flow_gets_full_capacity(self):
        rates = maxmin_rates([arr(0, 1)], 10.0, n_links=2)
        assert rates[0] == pytest.approx(10.0)

    def test_equal_sharing_on_common_link(self):
        rates = maxmin_rates([arr(0), arr(0), arr(0)], 9.0, n_links=1)
        assert rates == pytest.approx([3.0, 3.0, 3.0])

    def test_disjoint_flows_independent(self):
        rates = maxmin_rates([arr(0), arr(1)], 5.0, n_links=2)
        assert rates == pytest.approx([5.0, 5.0])

    def test_classic_three_flow_line(self):
        # Line network A-B-C, capacity 1 per link.  Flow 0 uses both links;
        # flows 1 and 2 use one link each.  Max-min: f0=0.5, f1=f2=0.5.
        rates = maxmin_rates([arr(0, 1), arr(0), arr(1)], 1.0, n_links=2)
        assert rates == pytest.approx([0.5, 0.5, 0.5])

    def test_unequal_bottlenecks(self):
        # Flow 0 alone on link 1 after sharing link 0 with flow 1:
        # first fill: both rise to 0.5 (link 0 saturates).
        # Flow 0 keeps... no: flow 0 crosses link 0 too, so both freeze at
        # 0.5 and link 1 is left underused (max-min, not utilisation-max).
        rates = maxmin_rates([arr(0, 1), arr(0)], 1.0, n_links=2)
        assert rates == pytest.approx([0.5, 0.5])

    def test_heterogeneous_capacity(self):
        cap = np.array([1.0, 10.0])
        rates = maxmin_rates([arr(0), arr(1)], cap)
        assert rates == pytest.approx([1.0, 10.0])

    def test_max_min_property(self):
        # After water-filling, every flow's rate is limited by at least
        # one saturated link where it has a maximal rate among users.
        rng = np.random.default_rng(0)
        n_links = 12
        flows = [
            np.unique(rng.integers(0, n_links, size=rng.integers(1, 4)))
            for _ in range(20)
        ]
        cap = np.full(n_links, 4.0)
        rates = maxmin_rates(flows, cap)
        usage = np.zeros(n_links)
        for f, r in zip(flows, rates):
            usage[f] += r
        # Feasibility.
        assert (usage <= cap + 1e-6).all()
        # Bottleneck condition.
        for f, r in zip(flows, rates):
            ok = False
            for link in f:
                if usage[link] >= cap[link] - 1e-6:
                    max_on_link = max(
                        rates[j] for j, g in enumerate(flows) if link in g
                    )
                    if r >= max_on_link - 1e-6:
                        ok = True
                        break
            assert ok, f"flow with rate {r} has no bottleneck"


class TestEdgeCases:
    def test_empty_flow_list(self):
        assert maxmin_rates([], 1.0, n_links=3).size == 0

    def test_linkless_flow_unconstrained(self):
        rates = maxmin_rates([arr(), arr(0)], 2.0, n_links=1)
        assert rates[0] == np.inf
        assert rates[1] == pytest.approx(2.0)

    def test_scalar_capacity_requires_n_links(self):
        with pytest.raises(SimulationError, match="n_links"):
            maxmin_rates([arr(0)], 1.0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(SimulationError, match="positive"):
            maxmin_rates([arr(0)], np.array([0.0]))

    def test_many_flows_one_link_exact(self):
        n = 1000
        rates = maxmin_rates([arr(0)] * n, 1.0, n_links=1)
        assert rates == pytest.approx(np.full(n, 1e-3))


class TestBoundaryValidation:
    def test_negative_link_id_rejected(self):
        # A negative id must not wrap around to the last link.
        with pytest.raises(SimulationError, match="outside"):
            maxmin_rates([np.array([-1])], 1.0, n_links=2)

    def test_link_id_past_the_end_rejected(self):
        with pytest.raises(SimulationError, match="outside"):
            maxmin_rates([arr(0), arr(2)], 1.0, n_links=2)

    def test_capacity_size_must_match_n_links(self):
        with pytest.raises(SimulationError, match="n_links"):
            maxmin_rates([arr(0)], np.array([1.0, 2.0, 3.0]), n_links=2)

    def test_fractional_link_ids_rejected(self):
        with pytest.raises(SimulationError, match="integers"):
            maxmin_rates([np.array([0.5])], 1.0, n_links=2)
