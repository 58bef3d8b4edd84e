import os
from pathlib import Path

# One BLAS thread per call, fixed before numpy is first imported, as the
# benchmark does: test times then do not depend on BLAS's own threading, and
# the node pool (netsim.map_nodes) runs single-mode and distributed node jobs
# on the cores instead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from dwpe import room
from dwpe.dsp import WindowSpec


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_window():
    """16-sample frames with 75% overlap: fast and COLA-valid."""
    return WindowSpec(frame_len=16, hop=4)


@pytest.fixture
def default_window():
    return WindowSpec()


@pytest.fixture(scope="session")
def shipped_scenario():
    """The shipped 12-node room, read from its scenario file."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / "simulated_12node.json"
    return room.scenario_from_file(path)


@pytest.fixture(scope="session")
def small_scenario():
    """Three far-spread nodes, short RIRs: fast but real reverberation."""
    return room.RoomScenario(
        room_dims=(6.0, 5.0, 3.0), source_pos=(2.6, 2.4, 1.5),
        mic_positions=[(0.6, 1.8, 1.4), (5.4, 2.6, 1.4), (2.4, 0.6, 1.4)],
        t60=0.4, sample_rate=16000, rir_length=4096, name="small-3node",
    )
