"""SHA-256 pins of the flow-level simulator's completion times.

Three Table V/VI-style stencil cells on RRG(9,10,6): the digests cover
every flow's completion time bit for bit, so any change to the max-min
solver's floating-point operations, or to the event loop around it, shows
up here even when the tables (printed to three decimals) do not move.
"""

import hashlib

import pytest

from repro import Jellyfish
from repro.appsim import stencil_time

PINS = {
    ("2dnn", "linear", "redksp"):
        "db17d5865964d1b01142e3b1ca5ea5b3fb9cf4a478c58341f8539bafe71ae0a4",
    ("3dnndiag", "random", "ksp"):
        "2ec223ca0acfe510824f37407f5cdc77a15e6e4fe873346de35d9084866aa702",
    ("2dnndiag", "linear", "rksp"):
        "1669d8510b6f05ad4741fd4d8f6aa88ba47ba580c6c68caaaafcd5254548b375",
}


@pytest.fixture(scope="module")
def topo():
    return Jellyfish(9, 10, 6, seed=2)


@pytest.mark.parametrize("cell", sorted(PINS), ids="/".join)
def test_flow_completion_digest(topo, cell):
    stencil, mapping, scheme = cell
    r = stencil_time(topo, stencil, scheme, mapping=mapping, seed=0)
    digest = hashlib.sha256(r.flow_completion.tobytes()).hexdigest()
    assert digest == PINS[cell]
