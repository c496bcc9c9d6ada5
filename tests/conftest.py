import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mrtfit import MrtParams, RfSquidParams

# best-fit values of the reference single-qubit dataset, used as regression
# targets throughout the suite
REF = dict(
    delta01_ghz=2.72e-3,
    delta03_ghz=29.8e-3,
    phi31_uphi0=2153.6,
    w_phi_uphi0=37.2,
    gamma_phi_uphi0=0.54,
    zeta_phi_uphi0=4.53,
    temperature_k=7.3e-3,
    ip_a=1.37e-6,
)

# a fit draw with a narrow relaxation core, below three grid steps, which
# is pinned rather than resolved; a renormalization by quadrature once
# stepped over this core and returned a negative mass, and a whole-table
# rescale at the grid clamp once put the total rate 6% off quadrature
NARROW_CORE = dict(delta01_ghz=1.6895e-3, delta03_ghz=4.3576e-2,
                   phi31_uphi0=2400.29, w_phi_uphi0=55.347,
                   gamma_phi_uphi0=0.083785, zeta_phi_uphi0=0.020241,
                   temperature_k=11.205e-3)

REF_CIRCUIT = dict(ic_a=2.30e-6, l_h=250e-12, c_f=110e-15, phi_cjj_x=-0.74)


@pytest.fixture
def ref_params() -> MrtParams:
    return MrtParams(**REF)


@pytest.fixture
def ref_circuit() -> RfSquidParams:
    return RfSquidParams(**REF_CIRCUIT)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
