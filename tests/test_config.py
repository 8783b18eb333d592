"""INI parsing: strict keys, round trips, seed overrides."""

from dataclasses import fields, replace

import pytest

from feedopt import config
from feedopt.config import ConfigError, ValidationSettings
from feedopt.scenario import ScenarioConfig


def write(tmp_path, text):
    path = tmp_path / "study.ini"
    path.write_text(text)
    return path


def test_default_ini_round_trips(tmp_path):
    path = write(tmp_path, config.default_ini())
    scen, val = config.load_config(path)
    assert scen == ScenarioConfig()
    assert val == ValidationSettings()


def test_dump_config_formats(tmp_path):
    text = config.default_ini()
    assert "ell = auto" in text          # None renders as auto
    assert "max_obs = auto" in text
    assert "p_values = 0.4, 0.6, 0.8, 1" in text
    assert "box_one = -10, -6, 6, 10" in text
    # echo of a loaded file reproduces the same text
    path = write(tmp_path, text)
    scen, val = config.load_config(path)
    assert config.dump_config(scen, val) == text


# a value other than the default for every field, each accepted on its own
NON_DEFAULT = {
    ScenarioConfig: {
        "n_ders": 4, "n_pcc": 3, "n_loads": 1,
        "beta": 2.5, "a_range_one": (0.2, 0.4), "a_range_two": (0.6, 0.9),
        "b_range": (-1.0, 2.0), "switch_steps": (100, 200, 300),
        "ref_base": 30.0, "ref_amplitude": 5.5, "ref_period": 480,
        "dist_base": 10.0, "dist_amplitude": 2.0, "dist_period": 1000,
        "trace_decay": 0.25, "obs_noise_sigma": 0.05,
        "box_ranges": ((-1.0, 0.0, 1.0, 2.0), (2.0, 3.0, 4.0, 5.0), (-5.0, -4.0, 4.0, 5.0)),
        "box_period": 100,
        "alpha": 0.125, "p_values": (0.3, 0.9),
        "eps_kind": "bounded-uniform", "eps_scale": 0.2, "eps_theta": 1.5,
        "xi_kind": "gaussian", "xi_scale": 0.3, "xi_theta": 0.5,
        "meas_kind": "weibull-tail", "meas_scale": 0.4, "meas_theta": 2.5,
        "gp_sigma_f2": 3.0, "gp_ell": 0.75, "gp_noise_var": 0.02,
        "gp_seed_obs": 9, "eval_period": 60, "gp_max_obs": 40,
        "horizon": 9000, "n_experiments": 3, "modes": ("gp",), "seed": 1234,
    },
    ValidationSettings: {
        "instance": "scenario", "n_inputs": 3, "n_steps": 80, "p": 0.4,
        "alpha": 0.05, "error_scale": 0.2, "drift": 0.1,
        "n_trials_mean": 100, "n_trials_hp": 1500,
        "deltas": (0.2,), "check_times": (10, 20), "moment_zetas": (0.7,),
        "moment_ps": (0.5, 0.6), "moment_ts": (3,), "moment_ks": (2, 3),
        "moment_samples": 200000, "sampler_samples": 300000, "closure_dim": 2, "seed": 5,
    },
}


def test_every_field_round_trips_alone(tmp_path):
    # a field the INI tables miss would come back as its default
    for cls, values in NON_DEFAULT.items():
        assert set(values) == {f.name for f in fields(cls)}
        for name, value in values.items():
            assert getattr(cls(), name) != value
            configs = {ScenarioConfig: ScenarioConfig(), ValidationSettings: ValidationSettings()}
            configs[cls] = replace(configs[cls], **{name: value})
            path = write(tmp_path, config.dump_config(*configs.values()))
            assert config.load_config(path) == tuple(configs.values()), name


def test_partial_file_overrides_only_named_keys(tmp_path):
    path = write(
        tmp_path,
        """
[algorithm]
alpha = 0.25
p_values = 0.5, 1.0

[suite]
horizon = 6000
n_experiments = 2

[gp]
ell = 1.5
""",
    )
    scen, val = config.load_config(path)
    assert scen.alpha == 0.25
    assert scen.p_values == (0.5, 1.0)
    assert scen.horizon == 6000
    assert scen.gp_ell == 1.5
    assert scen.beta == ScenarioConfig().beta  # untouched default
    assert val == ValidationSettings()


def test_horizon_and_switch_steps_are_cross_checked(tmp_path):
    # shortening the run without moving the preference switches is a typo,
    # not a study
    path = write(tmp_path, "[suite]\nhorizon = 200\n")
    with pytest.raises(ConfigError, match="switch steps"):
        config.load_config(path)


def test_box_keys_merge_with_defaults(tmp_path):
    path = write(tmp_path, "[constraints]\nbox_two = 1, 2, 3, 4\n")
    scen, _ = config.load_config(path)
    defaults = ScenarioConfig().box_ranges
    assert scen.box_ranges[0] == defaults[0]
    assert scen.box_ranges[1] == (1.0, 2.0, 3.0, 4.0)
    assert scen.box_ranges[2] == defaults[2]


def test_validation_section(tmp_path):
    path = write(
        tmp_path,
        "[validation]\nn_trials_mean = 200\ndeltas = 0.2, 0.05\ninstance = scenario\n",
    )
    _, val = config.load_config(path)
    assert val.n_trials_mean == 200
    assert val.deltas == (0.2, 0.05)
    assert val.instance == "scenario"


def test_unknown_section_and_key_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[costz\]"):
        config.load_config(write(tmp_path, "[costz]\nbeta = 1\n"))
    with pytest.raises(ConfigError, match="unknown key 'betta'"):
        config.load_config(write(tmp_path, "[costs]\nbetta = 1\n"))
    with pytest.raises(ConfigError, match=r"unknown key 'pp' in section \[validation\]"):
        config.load_config(write(tmp_path, "[validation]\npp = 0.5\n"))


def test_default_section_is_rejected(tmp_path):
    # configparser would merge [DEFAULT] keys into every section, so the
    # second file would set the study seed to 5
    for text in ("[DEFAULT]\nseed = 5\n", "[DEFAULT]\nseed = 5\n\n[suite]\nn_experiments = 2\n"):
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            config.load_config(write(tmp_path, text))


def test_malformed_values(tmp_path):
    with pytest.raises(ConfigError, match="expected a number"):
        config.load_config(write(tmp_path, "[costs]\nbeta = strong\n"))
    with pytest.raises(ConfigError, match="expected an integer"):
        config.load_config(write(tmp_path, "[suite]\nhorizon = 1.5\n"))
    with pytest.raises(ConfigError, match="expected an integer"):
        config.load_config(write(tmp_path, "[validation]\ncheck_times = 1, 2.5\n"))
    with pytest.raises(ConfigError, match="expected an integer"):
        config.load_config(write(tmp_path, "[gp]\nmax_obs = 1.5\n"))
    with pytest.raises(ConfigError, match="four comma-separated"):
        config.load_config(write(tmp_path, "[constraints]\nbox_one = 1, 2\n"))
    with pytest.raises(ConfigError, match="two comma-separated"):
        config.load_config(write(tmp_path, "[costs]\nb_range = 1, 2, 3\n"))
    with pytest.raises(ConfigError, match="malformed config"):
        config.load_config(write(tmp_path, "beta = 1\n"))  # key before any section


def test_dataclass_rejections_surface_as_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="horizon"):
        config.load_config(write(tmp_path, "[suite]\nhorizon = 0\n"))
    with pytest.raises(ConfigError, match="synthetic or scenario"):
        config.load_config(write(tmp_path, "[validation]\ninstance = lab\n"))
    with pytest.raises(ConfigError, match="validation p"):
        ValidationSettings(p=1.5)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        config.load_config(tmp_path / "nope.ini")


def test_inline_comments_are_stripped(tmp_path):
    path = write(tmp_path, "[costs]\nbeta = 2.0  # stronger tracking\n")
    scen, _ = config.load_config(path)
    assert scen.beta == 2.0


def test_with_seed():
    scen, val = ScenarioConfig(), ValidationSettings()
    s2, v2 = config.with_seed(scen, val, 123)
    assert s2.seed == 123 and v2.seed == 123
    assert scen.seed == 7  # originals untouched
    s3, v3 = config.with_seed(scen, val, None)
    assert s3 is scen and v3 is val


def test_auto_values_parse_back_to_none(tmp_path):
    path = write(tmp_path, "[gp]\nell = auto\nmax_obs = none\nnoise_var = AUTO\n")
    scen, _ = config.load_config(path)
    assert scen.gp_ell is None
    assert scen.gp_max_obs is None
    assert scen.gp_noise_var is None
