import math

import pytest
from hypothesis import given, strategies as st

from mdighz import params
from mdighz.params import (ChannelModel, ConfigError, DetectorModel, PhasePlan,
                           SweepGrid, binary_entropy, overall_efficiency,
                           parse_config, serialize_config, transmission_efficiency)

from conftest import QCC_CONFIG

TEXT = QCC_CONFIG.format(eta_d=0.4, e_d=0.0, l_min=0, l_max=1, l_step=1)


class TestEfficiency:
    def test_zero_length_fiber(self):
        assert overall_efficiency(ChannelModel(0.7, 0.0), DetectorModel(0.4, 0)) == 0.4

    def test_ten_db_of_fiber(self):
        eta = overall_efficiency(ChannelModel(0.2, 50.0), DetectorModel(0.4, 0))
        assert eta == pytest.approx(0.04, rel=1e-12)

    def test_twenty_db_of_fiber(self):
        eta = overall_efficiency(ChannelModel(0.2, 100.0), DetectorModel(0.93, 0))
        assert eta == pytest.approx(0.0093, rel=1e-12)

    def test_transmission_only(self):
        assert transmission_efficiency(ChannelModel(0.2, 50.0)) == pytest.approx(0.1)

    @given(st.floats(0, 1), st.floats(0, 500), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_length_and_loss_linear_in_detector(self, beta, length, eta_d, scale):
        det = DetectorModel(eta_d, 0.0)
        base = overall_efficiency(ChannelModel(beta, length), det)
        assert overall_efficiency(ChannelModel(beta, length * 2), det) <= base + 1e-18
        assert overall_efficiency(ChannelModel(beta * 2, length), det) <= base + 1e-18
        scaled = overall_efficiency(ChannelModel(beta, length), DetectorModel(eta_d * scale, 0.0))
        assert scaled == pytest.approx(base * scale, abs=1e-15)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        # H(0.11), evaluated independently with 40-digit arithmetic
        assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, rel=1e-12)

    def test_slack_clamp(self):
        assert binary_entropy(-1e-16) == 0.0
        assert binary_entropy(1 + 1e-16) == 0.0
        with pytest.raises(ValueError):
            binary_entropy(-1e-9)
        with pytest.raises(ValueError):
            binary_entropy(1.001)

    def test_symmetry_on_dense_grid(self):
        for i in range(1, 2000):
            x = i / 2000.0
            assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12

    @given(st.floats(0, 1))
    def test_symmetry_property(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)


class TestInvariants:
    def test_detector_ranges(self):
        with pytest.raises(ConfigError):
            DetectorModel(eta_d=1.5, p_d=0.0)
        with pytest.raises(ConfigError):
            DetectorModel(eta_d=0.5, p_d=1.0)

    def test_asymmetric_rejected(self):
        # links are symmetric by construction; the old switch is an unknown key
        with pytest.raises(ConfigError, match="unknown key") as err:
            parse_config(TEXT + "channel.symmetric = false\n")
        assert err.value.key == "channel.symmetric"

    @pytest.mark.parametrize("length", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_distance_must_be_finite_and_nonnegative(self, length):
        with pytest.raises(ConfigError, match="channel.L"):
            ChannelModel(beta=0.2, length_km=length)

    def test_phase_plan(self):
        with pytest.raises(ConfigError):
            PhasePlan(k=0)
        assert PhasePlan(k=1).k == 1

    def test_sweep_grid(self):
        assert SweepGrid(0, 2, 1).distances() == [0.0, 1.0, 2.0]
        assert SweepGrid(10, 5, 1).distances() == []
        # step accumulates without drift
        assert len(SweepGrid(0, 250, 1).distances()) == 251

    @pytest.mark.parametrize("bounds", [(0, float("nan"), 1), (0, float("inf"), 1),
                                        (0, 10, float("nan")), (float("nan"), 10, 1)])
    def test_sweep_grid_rejects_non_finite(self, bounds):
        with pytest.raises(ConfigError, match="finite"):
            SweepGrid(*bounds)


class TestParseConfig:
    def test_minimal_qcc_accepted(self):
        cfg = parse_config(QCC_CONFIG.format(eta_d=0.4, e_d=0.0, l_min=0,
                                             l_max=250, l_step=1))
        assert cfg.source.mu == 0.4
        assert cfg.decoy.mu2 == 0.4  # defaults to the signal intensity
        assert cfg.decoy.mu1 == 0.005
        assert cfg.system.f == 1.16

    def test_swapped_decoy_levels_rejected(self):
        text = TEXT.replace("source.mu = 0.4", "source.mu = 0.005")
        text = text.replace("decoy.mu1 = 0.005", "decoy.mu1 = 0.4\ndecoy.mu2 = 0.005")
        with pytest.raises(ConfigError, match="mu2 must exceed mu1"):
            parse_config(text)

    def test_out_of_range_efficiency_rejected(self):
        text = QCC_CONFIG.format(eta_d=1.5, e_d=0.0, l_min=0, l_max=1, l_step=1)
        with pytest.raises(ConfigError, match="detector.eta_d"):
            parse_config(text)

    def test_unknown_key_rejected_with_line(self):
        text = "junk.key = 1\n" + TEXT
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="system.f"):
            parse_config("channel.beta = 0.2\ndetector.eta_d = 0.4\n"
                         "detector.p_d = 0\nsystem.e_d = 0\n"
                         "source.kind = wcs\nsource.mu = 0.4\ndecoy.mu1 = 0.1\n"
                         "decoy.mu2 = 0.4\n")

    def test_unknown_source_kind(self):
        with pytest.raises(ConfigError, match="source.kind"):
            parse_config(TEXT.replace("= wcs", "= laser"))

    def test_comments_and_blanks_ignored(self):
        parse_config("# a comment\n\n" + TEXT)

    def test_heralded_trigger_defaults(self):
        text = TEXT.replace("= wcs", "= heralded")
        assert parse_config(text).source.trigger == DetectorModel(0.4, 1e-7)
        cfg2 = parse_config(text + "source.trigger_eta_d = 0.8\n")
        assert cfg2.source.trigger.eta_d == 0.8

    @pytest.mark.parametrize("key", sorted(k for k, kind in params._KNOWN_KEYS.items()
                                           if kind is float))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, key, value):
        text = TEXT.replace("= wcs", "= heralded")  # accepts the trigger keys
        lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config("\n".join(lines + [f"{key} = {value}"]))
        assert err.value.key == key

    def test_roundtrip_identity(self):
        for kind, extra in (("wcs", "phase.K = 8\n"), ("heralded", ""), ("wcs_qnd", "")):
            text = QCC_CONFIG.format(eta_d=0.93, e_d=0.015, l_min=0, l_max=37,
                                     l_step=2.5).replace("= wcs", f"= {kind}") + extra
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg

    @given(st.floats(0.01, 1.0), st.floats(0.0, 0.01), st.floats(0.0, 0.5),
           st.floats(1.0, 2.0), st.floats(1e-4, 2.0))
    def test_roundtrip_property(self, eta_d, p_d, e_d, f, mu):
        text = (f"channel.beta = 0.19\ndetector.eta_d = {eta_d!r}\n"
                f"detector.p_d = {p_d!r}\nsystem.e_d = {e_d!r}\nsystem.f = {f!r}\n"
                f"source.kind = wcs\nsource.mu = {mu!r}\ndecoy.mu1 = {mu / 10!r}\n")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg
