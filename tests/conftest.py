import numpy as np
import pytest

from dpaimd.cli import reference_system_config
from dpaimd.privacy import NoiseKind, NoiseSpec


def noiseless_pair():
    return [NoiseSpec(kind=NoiseKind.NONE), NoiseSpec(kind=NoiseKind.NONE)]


@pytest.fixture(scope="session")
def short_reference_run():
    """Noiseless reference config, short horizon, dense trace, shared across test modules."""
    import dpaimd

    config = reference_system_config(noiseless_pair(), seed=20230601, steps=20_000)
    trace = dpaimd.run(config, dense=True)
    optimum = dpaimd.solve_optimum(config.agents, config.resources)
    return config, trace, optimum
