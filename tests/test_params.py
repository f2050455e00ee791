import math
import re

import pytest
from hypothesis import given, strategies as st

from mdighz import params
from mdighz.cli import build_parser
from mdighz.params import (SOURCE_KINDS, ChannelModel, ConfigError, DetectorModel,
                           PhasePlan, SweepGrid, binary_entropy, overall_efficiency,
                           parse_config, serialize_config, transmission_efficiency)

from conftest import CONFIG_DIR, QCC_CONFIG

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
        assert SweepGrid(1, 1e6, 1).l_max == 1e6  # 10^6 distances, the most accepted

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

    @pytest.mark.parametrize("key, other", [("source.trigger_eta_d", "source.trigger_p_d"),
                                            ("source.trigger_p_d", "source.trigger_eta_d")])
    def test_trigger_key_on_other_source_names_itself(self, key, other):
        # the first trigger key of the document is named, with its line
        text = TEXT + f"{key} = 1e-7\n{other} = 0.5\n"
        with pytest.raises(ConfigError, match="only apply to heralded") as err:
            parse_config(text)
        assert (err.value.key, err.value.line) == (key, len(TEXT.splitlines()) + 1)

    @pytest.mark.parametrize("key, value, message", [
        ("source.trigger_eta_d", "1.5", "detector efficiency must be in [0, 1]"),
        ("source.trigger_p_d", "1", "dark-count probability must be in [0, 1)"),
    ])
    def test_out_of_range_trigger_names_its_own_key(self, key, value, message):
        # the trigger is a DetectorModel, whose invariants name the main
        # detector's keys; the error names the trigger key and its line
        text = (CONFIG_DIR / "qss_heralded_eta40.cfg").read_text() + f"{key} = {value}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert (err.value.message, err.value.key, err.value.line) == (
            message, key, len(text.splitlines()))

    @pytest.mark.parametrize("key", sorted(k for k, (kind, _, _) in params.CONFIG_KEYS.items()
                                           if kind is float))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, key, value):
        text = TEXT.replace("= wcs", "= heralded")  # accepts the trigger keys
        lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config("\n".join(lines + [f"{key} = {value}"]))
        assert err.value.key == key

    @pytest.mark.parametrize("l_max, l_step", [(250, 1e-300), (250, 5e-324), (1e300, 1),
                                               (1e6, 1)])
    def test_endless_sweep_grid_rejected(self, l_max, l_step):
        # a million and one distances or more; parsing must not build the grid
        text = QCC_CONFIG.format(eta_d=0.4, e_d=0.0, l_min=0, l_max=l_max, l_step=l_step)
        with pytest.raises(ConfigError, match="sweep grid") as err:
            parse_config(text)
        assert err.value.key == "sweep.L_step"

    @pytest.mark.parametrize("l_min, l_max, l_step", [(0, 0, 5e-324), (0, 0, 1e-300),
                                                      (1e300, 1e300, 1)])
    def test_step_lost_in_rounding_rejected(self, l_min, l_max, l_step):
        # a step below the 1e-9 end slack, or lost when added to l_min, never
        # ended the distance loop although the range is empty
        with pytest.raises(ConfigError, match="sweep grid") as err:
            SweepGrid(l_min, l_max, l_step)
        assert err.value.key == "sweep.L_step"

    def test_roundtrip_identity(self):
        for kind, extra in (("wcs", "phase.K = 8\n"), ("heralded", ""), ("wcs_qnd", "")):
            text = QCC_CONFIG.format(eta_d=0.93, e_d=0.015, l_min=0, l_max=37,
                                     l_step=2.5).replace("= wcs", f"= {kind}") + extra
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg

    @given(st.data())
    def test_roundtrip_property(self, data):
        # every required key, each optional key present or absent, in any order
        kind = data.draw(st.sampled_from(SOURCE_KINDS))
        mu = data.draw(st.floats(1e-4, 2.0))
        draws = {
            "channel.beta": st.floats(0.0, 1.0), "channel.L": st.floats(0.0, 500.0),
            "detector.eta_d": st.floats(0.01, 1.0), "detector.p_d": st.floats(0.0, 0.01),
            "system.e_d": st.floats(0.0, 0.5), "system.f": st.floats(1.0, 2.0),
            "source.kind": st.just(kind), "source.mu": st.just(mu),
            "source.trigger_eta_d": st.floats(0.0, 1.0),
            "source.trigger_p_d": st.floats(0.0, 0.01),
            "decoy.mu2": st.floats(mu / 9, 4.0), "decoy.mu1": st.just(mu / 10),
            "phase.K": st.integers(1, 10**6), "sweep.L_min": st.floats(0.0, 100.0),
            "sweep.L_max": st.floats(0.0, 300.0), "sweep.L_step": st.floats(0.5, 10.0),
        }
        assert list(draws) == list(params.CONFIG_KEYS)

        def applies(key):  # trigger keys only on a heralded source
            return not key.startswith("source.trigger_") or kind == "heralded"

        chosen = [key for key in draws if key in params.REQUIRED_KEYS
                  or applies(key) and data.draw(st.booleans(), label=key)]
        lines = [f"{key} = {data.draw(draws[key], label=key)}" for key in chosen]
        cfg = parse_config("\n".join(data.draw(st.permutations(lines))))
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys == [key for key in params.CONFIG_KEYS
                        if applies(key) and (key != "phase.K" or key in chosen)]

    # the manifest digest hashes these bytes: a heralded config with the trigger
    # defaults, and a weak-coherent one with phase.K
    SERIALIZED = {
        "qss_heralded_eta40": (
            "channel.beta = 0.2\nchannel.L = 0.0\ndetector.eta_d = 0.4\n"
            "detector.p_d = 1e-07\nsystem.e_d = 0.015\nsystem.f = 1.16\n"
            "source.kind = heralded\nsource.mu = 0.005\nsource.trigger_eta_d = 0.4\n"
            "source.trigger_p_d = 1e-07\ndecoy.mu2 = 0.005\ndecoy.mu1 = 0.0005\n"
            "sweep.L_min = 0.0\nsweep.L_max = 200.0\nsweep.L_step = 1.0\n"),
        "qss_pps_eta40": (
            "channel.beta = 0.2\nchannel.L = 0.0\ndetector.eta_d = 0.4\n"
            "detector.p_d = 1e-07\nsystem.e_d = 0.0\nsystem.f = 1.16\n"
            "source.kind = wcs\nsource.mu = 0.11\ndecoy.mu2 = 0.11\ndecoy.mu1 = 0.005\n"
            "phase.K = 8\nsweep.L_min = 0.0\nsweep.L_max = 200.0\nsweep.L_step = 1.0\n"),
    }

    @pytest.mark.parametrize("name", sorted(SERIALIZED))
    def test_serialized_bundled_config(self, name):
        text = (CONFIG_DIR / f"{name}.cfg").read_text()
        assert serialize_config(parse_config(text)) == self.SERIALIZED[name]


class TestConfigSchema:
    """The README and `--help` list the keys of `CONFIG_KEYS`."""

    README = (CONFIG_DIR.parent / "README.md").read_text()

    def test_readme_table_lists_every_key(self):
        table = self.README.split("| key | meaning |", 1)[1].split("\n\n", 1)[0]
        cells = [row.split("|")[1] for row in table.splitlines()[2:]]
        keys = [key for cell in cells for key in re.findall(r"`([^`]+)`", cell)]
        assert keys == list(params.CONFIG_KEYS)

    def test_readme_required_keys(self):
        sentence = re.search(r"Required keys: ((?:`[^`]+`,?\s*)+)\.", self.README)[1]
        assert tuple(re.findall(r"`([^`]+)`", sentence)) == params.REQUIRED_KEYS

    def test_help_required_keys(self):
        epilog = build_parser().epilog
        listed = epilog.split("Required keys: ", 1)[1].split(". ", 1)[0]
        assert tuple(listed.split(", ")) == params.REQUIRED_KEYS
