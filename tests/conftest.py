from pathlib import Path

import hypothesis
import pytest

from mdighz import fock, gains
from mdighz.params import (ChannelModel, DetectorModel, SystemParams,
                           DecoyPlan, overall_efficiency, parse_config)

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None,
                                      derandomize=True)
hypothesis.settings.load_profile("ci")

QCC_CONFIG = """
channel.beta = 0.2
detector.eta_d = {eta_d}
detector.p_d = 1e-7
system.e_d = {e_d}
system.f = 1.16
source.kind = wcs
source.mu = 0.4
decoy.mu1 = 0.005
sweep.L_min = {l_min}
sweep.L_max = {l_max}
sweep.L_step = {l_step}
"""


def qcc_config(eta_d=0.40, e_d=0.0, l_min=0, l_max=250, l_step=1):
    return parse_config(QCC_CONFIG.format(eta_d=eta_d, e_d=e_d, l_min=l_min,
                                          l_max=l_max, l_step=l_step))


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def config_copy(tmp_path, name, *edits):
    """configs/<name>.cfg with each (old, new) text replaced, saved in tmp_path."""
    text = (CONFIG_DIR / f"{name}.cfg").read_text()
    for old, new in edits:
        text = text.replace(old, new)
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    return path


def naive_qss_error(params, mu, nu, omega):
    """Full-phase-average diagonal-basis error rate of plain weak coherent
    pulses (the plateau that kills unsliced secret sharing)."""
    eta = overall_efficiency(params.channel, params.detector)
    e, f = gains.mermin_outcome_gains((1, 1, 1), mu, nu, omega, eta, params.detector.p_d)
    z = gains.z_gain_components(mu, nu, omega, eta, params.detector.p_d)
    return gains.assemble_gain_set(z.a, z.b, z.c, z.d, e, f, params.e_d).e_x


def fock_gain_set(dists, eta, p_d, e_d=0.0, tail_budget=1e-12):
    """The GainSet of one triple of per-user photon-number distributions, on
    class components built for those three distributions alone."""
    triple = [(0, 1, 2)]
    comps = gains.fock_components(dists, triple, p_d, tail_budget)
    return gains.thinned_gain_sets(comps, dists, triple, fock.thinning_matrix(eta), e_d)[0]


def cutoff_km(points):
    """Largest distance with a positive two-decoy rate, as `mdighz qcc` reports."""
    return max((p.distance_km for p in points if p.rate > 0.0), default=None)


@pytest.fixture
def paper_detector():
    return DetectorModel(eta_d=0.40, p_d=1e-7)


@pytest.fixture
def paper_system(paper_detector):
    return SystemParams(channel=ChannelModel(beta=0.2, length_km=50.0),
                        detector=paper_detector, e_d=0.0, f=1.16)


@pytest.fixture
def paper_decoy():
    return DecoyPlan(mu2=0.4, mu1=0.005)
