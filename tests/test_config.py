import pytest

from photonlab import config
from photonlab.cli import EXIT_CONFIG_ERROR, main
from photonlab.config import ConfigError, TOLERANCE_DEFAULTS, default_verify_config, parse_config


def err(text):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    return info.value


def test_packet3d_defaults():
    cfg = parse_config("[packet3d]\n")
    assert cfg.kind == "packet3d"
    assert cfg.units == "natural" and cfg.output == "."
    p = cfg.packet
    assert (p.n_k, p.dk, p.sigma, p.n_x, p.dimension) == (16, 0.25, 0.5, 32, 3)
    assert p.k0 == (0.0, 0.0, 4.0)
    assert p.pol == 1
    assert (cfg.times.start, cfg.times.stop, cfg.times.steps) == (0.0, 6.0, 2)
    assert cfg.tolerances == TOLERANCE_DEFAULTS


def test_overrides_and_comments():
    text = """# full packet configuration
[packet3d]  # scenario
n_k = 8
dk = 0.5
k0 = (0, 0, 2.5)   # on the grid
sigma = 0.3
lambda = -1
n_x = 24
units = si
"""
    cfg = parse_config(text)
    p = cfg.packet
    assert (p.n_k, p.dk, p.sigma, p.n_x) == (8, 0.5, 0.3, 24)
    assert p.k0 == (0.0, 0.0, 2.5)
    assert p.pol == -1
    assert cfg.units == "si"
    assert parse_config(text) == cfg


def test_polarization_enum():
    cfg = parse_config("[packet3d]\nlambda = par\n")
    assert cfg.packet.pol == "par"
    e = err("[packet3d]\nlambda = 2\n")
    assert "expected +1, -1, or par" in str(e)


def test_triple_grammar():
    e = err("[packet3d]\nk0 = 0, 0, 4\n")
    assert "expected a triple (a,b,c)" in str(e)
    e = err("[packet3d]\nk0 = (1, 2)\n")
    assert "exactly three components" in str(e)
    e = err("[packet3d]\nk0 = (a, b, c)\n")
    assert "expected a number" in str(e)


@pytest.mark.parametrize("text, key", [
    ("[packet3d]\ndk = inf\n", "dk"),
    ("[gauge]\ngauge_strength = nan\n", "gauge_strength"),
    ("[packet3d]\nk0 = (0, 0, -inf)\n", "k0"),
    ("[lifecycle1d]\n[emitter]\nwidth = inf\n", "width"),
    ("[lifecycle1d]\n[detector]\nstrength = nan\n", "strength"),
    ("[fock]\n[tolerances]\nfock_commutator = inf\n", "fock_commutator"),
])
def test_numbers_must_be_finite(text, key):
    # plain numbers, triples, auto/matched-or-number keys and tolerances alike
    e = err(text)
    assert e.field_name == key
    assert "expected a finite number" in str(e)


def test_syntax_error_reports_position():
    e = err("[packet3d]\nn_k = 8\ngarbage\n")
    assert e.line == 3
    assert "key = value" in str(e)


def test_entry_before_header():
    e = err("n_k = 8\n[packet3d]\n")
    assert e.line == 1
    assert "before any [section] header" in str(e)


def test_unknown_section_and_key():
    e = err("[packet3d]\n\n[extras]\nn = 1\n")
    assert "unknown section [extras]" in str(e)
    assert e.line == 3
    e = err("[packet3d]\nbogus_key = 1\n")
    assert "unknown key 'bogus_key'" in str(e)
    assert e.line == 2 and e.field_name == "bogus_key"


def test_duplicates_rejected():
    e = err("[packet3d]\nn_k = 8\n[packet3d]\nn_k = 9\n")
    assert "duplicate section" in str(e)
    e = err("[packet3d]\nn_k = 8\nn_k = 9\n")
    assert "duplicate key 'n_k'" in str(e)


def test_exactly_one_scenario_section():
    e = err("")
    assert "exactly one scenario section" in str(e)
    e = err("[packet3d]\n\n[fock]\n")
    assert "exactly one scenario section" in str(e)


def test_named_field_checks():
    assert err("[packet3d]\nsigma = 0\n").field_name == "sigma"
    assert err("[packet3d]\nn_k = 1\n").field_name == "n_k"
    assert err("[packet3d]\ndk = -0.25\n").field_name == "dk"
    assert err("[packet3d]\nn_x = 1\n").field_name == "n_x"
    e = err("[packet3d]\nn_k = 16\nn_x = 15\n")
    assert "n_x must exceed n_k - 1" in str(e)


def test_k0_zero_mode_rejected():
    # the grid centers on k0, so an odd count at zero puts k = 0 on the lattice
    e = err("[packet3d]\nn_k = 15\nk0 = (0, 0, 0)\n")
    assert e.field_name == "k0"
    e = err("[helicity]\nn_k = 15\nk0 = (0, 0, 0)\n")
    assert e.field_name == "k0"


def test_1d_scenarios_need_axial_k0():
    e = err("[helicity]\nk0 = (0.5, 0, 2)\n")
    assert "1D scenarios need k0 = (0, 0, kz)" in str(e)


def test_medium_bounds():
    e = err("[medium1d]\nepsilon_rel = 0.5\n")
    assert "epsilon_rel must be ≥ 1" in str(e)
    e = err("[medium1d]\nmu_rel = 0.5\n")
    assert "mu_rel must be ≥ 1" in str(e)
    cfg = parse_config("[medium1d]\nepsilon_rel = 4\n")
    assert cfg.medium.epsilon_rel == 4.0 and cfg.medium.mu_rel == 1.0


def test_boost_schema():
    cfg = parse_config("[boost]\n")
    assert cfg.beta == 0.3
    assert cfg.packet.n_k == 16 and cfg.packet.n_x == 17
    e = err("[boost]\nbeta = 1.0\n")
    assert "beta must satisfy" in str(e)
    # boost has no box sampling or time window keys
    e = err("[boost]\nn_x = 64\n")
    assert "unknown key 'n_x'" in str(e)


def test_gauge_defaults():
    cfg = parse_config("[gauge]\n")
    assert cfg.packet.n_k == 8 and cfg.packet.k0 == (0.0, 0.0, 1.0)
    assert cfg.gauge_strength == 1.0
    assert cfg.t_stop == 6.0 and cfg.times is None


def test_time_window_validation():
    e = err("[packet3d]\nt_steps = 0\n")
    assert "t_steps must be >= 1" in str(e)
    e = err("[packet3d]\nt_start = 2\nt_stop = 1\n")
    assert "t_stop must exceed t_start" in str(e)


def test_tolerance_overrides():
    cfg = parse_config("[fock]\n\n[tolerances]\nfock_commutator = 1e-10\n")
    assert cfg.tolerances["fock_commutator"] == 1e-10
    assert cfg.tolerances["norm_unity"] == TOLERANCE_DEFAULTS["norm_unity"]
    e = err("[fock]\n\n[tolerances]\nbogus = 1\n")
    assert "unknown key 'bogus' in [tolerances]" in str(e)
    e = err("[fock]\n\n[tolerances]\nnorm_unity = 0\n")
    assert "tolerances must be > 0" in str(e)


def test_event_sections_gated_to_lifecycle():
    e = err("[packet3d]\n\n[emitter]\ncenter = 0\n")
    assert "[emitter] only applies to the lifecycle1d scenario" in str(e)


def test_lifecycle_defaults():
    cfg = parse_config("[lifecycle1d]\n")
    assert cfg.line.n_z == 2048 and cfg.line.z_min == -5.0 and cfg.line.z_max == 25.0
    assert (cfg.times.start, cfg.times.stop, cfg.times.steps) == (0.0, 20.0, 400)
    em = cfg.emitter
    assert (em.center, em.time, em.width, em.duration, em.strength) == \
        (0.0, 0.0, "auto", "auto", 1.0)
    det = cfg.detector
    assert (det.center, det.time, det.width, det.duration, det.strength) == \
        (10.0, "auto", "matched", "matched", "matched")


def test_lifecycle_detector_disable():
    cfg = parse_config("[lifecycle1d]\n\n[detector]\nenabled = false\n")
    assert cfg.detector is None
    e = err("[lifecycle1d]\n\n[detector]\nenabled = maybe\n")
    assert "expected one of {true, false}" in str(e)


def test_event_validation():
    e = err("[lifecycle1d]\n\n[emitter]\nwidth = -1\n")
    assert "emitter width must be > 0" in str(e)
    e = err("[lifecycle1d]\n\n[emitter]\nstrength = 1.5\n")
    assert "strength must lie in (0, 1]" in str(e)
    cfg = parse_config("[lifecycle1d]\n\n[detector]\nstrength = 0.5\ntime = 14.0\n")
    assert cfg.detector.strength == 0.5 and cfg.detector.time == 14.0


def test_lifecycle_geometry_validation():
    e = err("[lifecycle1d]\nz_min = 5\nz_max = -5\n")
    assert "z_max must exceed z_min" in str(e)
    e = err("[lifecycle1d]\nn_z = 1\n")
    assert "n_z must be >= 2" in str(e)


def test_units_enum():
    e = err("[packet3d]\nunits = imperial\n")
    assert "expected one of {natural, si}" in str(e)


@pytest.mark.parametrize("quote", ['"', "'"])
def test_quoted_output_path_rejected(quote):
    e = err(f"[fock]\noutput = {quote}/some/dir{quote}\n")
    assert e.field_name == "output"
    assert "expected an unquoted directory path" in str(e)
    # a quote inside the path, or an unmatched one, is part of the name
    assert parse_config(f"[fock]\noutput = some{quote}dir\n").output == f"some{quote}dir"
    assert parse_config(f"[fock]\noutput = {quote}dir\n").output == f"{quote}dir"


def test_fock_bounds():
    cfg = parse_config("[fock]\n")
    assert cfg.n_states == 32
    e = err("[fock]\nn_states = 1\n")
    assert "n_states must be >= 2" in str(e)


def test_verify_config():
    cfg = default_verify_config()
    assert cfg.kind == "verify" and cfg.inject_dispersion_error == 0.0
    assert cfg == parse_config("[verify]\n")
    e = err("[verify]\ninject_dispersion_error = -0.1\n")
    assert "must be >= 0" in str(e)


def test_echo_lines_are_deterministic_and_complete():
    text = "[packet3d]\nlambda = +1\n"
    lines = parse_config(text).echo_lines()
    assert lines == parse_config(text).echo_lines()
    assert lines[0] == "scenario = packet3d"
    assert any(line.startswith("packet:") and "lambda = +1" in line for line in lines)
    tol_lines = [line for line in lines if line.startswith("tolerance ")]
    assert len(tol_lines) == len(TOLERANCE_DEFAULTS)
    assert tol_lines == sorted(tol_lines)


# small boxes and lines, so that a run per key takes milliseconds; [boost]
# keeps its default n_k, at which the boosted packet stays on its grid
KEY_SWEEP_BASES = {"packet3d": {"n_k": "4", "n_x": "8"}, "gauge": {"n_k": "4", "n_x": "8"},
                   "lifecycle1d": {"n_z": "512", "t_steps": "100"}}

# one value per key, other than its default and its base value above
KEY_SWEEP_VALUES = {
    "units": "si", "inject_dispersion_error": "0.05", "n_k": "6", "dk": "0.3",
    "k0": "(0, 0, 3)", "sigma": "0.4", "lambda": "-1", "n_x": "20", "t_start": "0.5",
    "t_stop": "3", "t_steps": "3", "gauge_strength": "0.5", "beta": "0.2",
    "epsilon_rel": "3", "mu_rel": "1.5", "n_z": "300", "z_min": "-4", "z_max": "24",
    "n_states": "8", "enabled": "false", "center": "1", "time": "0.5", "width": "0.2",
    "duration": "0.2", "strength": "0.5",
}


def test_every_key_changes_the_run_or_is_refused(tmp_path):
    # a key that only echoes itself in the report header tells a reader that
    # it shaped the run; each one must change some other output or be refused.
    # Both kinds run through the CLI, the one path from a config to its outputs
    def outputs(kind, section=None, key=None):
        name = kind if key is None else f"{section}-{key}"
        sections = {kind: {"output": str(tmp_path / name), **KEY_SWEEP_BASES.get(kind, {})}}
        if key is not None:
            sections.setdefault(section, {})[key] = KEY_SWEEP_VALUES[key]
        text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       for s, keys in sections.items())
        path = tmp_path / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        command = "verify" if kind == "verify" else "run"
        if main([command, "--config", str(path)]) == EXIT_CONFIG_ERROR:
            return None
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        # the header is the block from "# configuration" to the first blank line
        title, _, rest = files.pop("report.txt").partition(b"# configuration\n")
        return files, title + rest.split(b"\n\n", 1)[1]

    dead = []
    for kind, keys in config._SECTION_KEYS.items():
        sections = [(kind, keys)]
        if kind == "lifecycle1d":
            sections += [("emitter", config._EMITTER_KEYS), ("detector", config._DETECTOR_KEYS)]
        base = outputs(kind)
        for section, keyset in sections:
            for key in keyset:
                # output is a path: where the run goes, not what it computes
                if key != "output" and outputs(kind, section, key) == base:
                    dead.append(f"[{section}] {key}")
    assert dead == []
