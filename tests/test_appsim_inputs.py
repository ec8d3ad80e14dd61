"""Non-finite and mis-shaped inputs to the flow-level simulator.

Each case must end in the library's own ``SimulationError`` at the entry
point, not in a raw NumPy error, a silent ``inf`` result, or a misleading
failure deep in the water-fill.
"""

import numpy as np
import pytest

from repro.appsim import FlowSpec, maxmin_rates, run_flows
from repro.errors import SimulationError


def flow(nbytes, links, msg=0):
    return FlowSpec(0, 1, nbytes, np.asarray(links, dtype=np.int64), msg)


class TestFlowSize:
    @pytest.mark.parametrize("nbytes", [np.nan, np.inf, -np.inf])
    def test_non_finite_bytes_rejected(self, nbytes):
        with pytest.raises(SimulationError, match="bytes"):
            FlowSpec(0, 1, nbytes, [0], message_id=0)

    @pytest.mark.parametrize("nbytes", [np.nan, np.inf])
    def test_run_flows_rejects_a_size_set_after_construction(self, nbytes):
        f = flow(10.0, [0])
        f.nbytes = nbytes
        with pytest.raises(SimulationError, match="positive and finite"):
            run_flows([f], 1.0, n_links=1)


class TestLinkShape:
    def test_two_dimensional_links_rejected_by_flowspec(self):
        with pytest.raises(SimulationError, match="1-D"):
            FlowSpec(0, 1, 10.0, [[0, 1]], message_id=0)

    def test_scalar_links_rejected_by_flowspec(self):
        with pytest.raises(SimulationError, match="1-D"):
            FlowSpec(0, 1, 10.0, 3, message_id=0)

    def test_two_dimensional_links_rejected_by_maxmin(self):
        with pytest.raises(SimulationError, match="1-D"):
            maxmin_rates([np.array([[0, 1]])], 1.0, n_links=2)


class TestCapacity:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_link_capacity_rejected(self, bad):
        with pytest.raises(SimulationError, match="finite"):
            maxmin_rates([np.array([0]), np.array([1])], np.array([1.0, bad]))
        with pytest.raises(SimulationError, match="finite"):
            run_flows([flow(10.0, [0]), flow(10.0, [1])], np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scalar_capacity_rejected(self, bad):
        with pytest.raises(SimulationError, match="finite"):
            run_flows([flow(10.0, [0])], bad, n_links=1)
