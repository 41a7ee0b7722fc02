"""CLI behavior: outputs, determinism, schemas, exit codes, config files."""

import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from vwave.cli import _OPTIONS, _SUBCOMMANDS, build_parser, main, read_config, resolve_options


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _validator(name: str) -> jsonschema.Draft202012Validator:
    from referencing import Registry, Resource

    root = resources.files("vwave") / "schemas"
    store = {}
    for f in root.iterdir():
        if f.name.endswith(".json"):
            sch = json.loads(f.read_text(encoding="utf-8"))
            store[sch["$id"]] = sch
    registry = Registry().with_resources(
        (uid, Resource.from_contents(sch)) for uid, sch in store.items()
    )
    schema = store[f"vwave/{name}.json"]
    return jsonschema.Draft202012Validator(schema, registry=registry)


def test_state_json_values_and_schema(capsys):
    code, out = run_cli(capsys, "state", "--z", "1", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["energy_hartree"] == -0.125
    assert payload["radius_bohr"] == 8.0
    assert payload["wavenumber"] == 0.5
    _validator("state").validate(payload)


def test_free_json_schema(capsys):
    code, out = run_cli(capsys, "free", "--v", "2.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["wavelength"] * payload["mass"] * payload["v"] == pytest.approx(
        2.0 * 3.141592653589793, rel=1e-12
    )
    _validator("free").validate(payload)


def test_wave_json_schema_and_columns(capsys):
    code, out = run_cli(capsys, "wave", "--z", "1", "--n", "1", "--samples", "300")
    assert code == 0
    payload = json.loads(out)
    _validator("wave").validate(payload)
    code, out = run_cli(
        capsys, "wave", "--z", "1", "--n", "1", "--samples", "300", "--format", "csv"
    )
    assert out.splitlines()[0] == "r,r_over_ro,u_plus,u_minus,R"


def test_nodes_json_schema(capsys):
    code, out = run_cli(capsys, "nodes", "--z", "1", "--n", "2", "--samples", "400")
    assert code == 0
    payload = json.loads(out)
    _validator("nodes").validate(payload)
    kinds = [nd["kind"] for nd in payload["nodes"]]
    assert kinds.count("trajectory_surface") == 1


def test_superpose_json_schema(capsys):
    code, out = run_cli(
        capsys,
        "superpose", "--z", "1", "--states", "1,2", "--weights", "1,1",
        "--samples", "300", "--t-samples", "4",
    )
    assert code == 0
    _validator("superpose").validate(json.loads(out))


def test_verify_json_schema_and_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "--z", "1", "--n-max", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    _validator("verify").validate(payload)


def test_verify_rejects_unchecked_n_max(capsys):
    code = main(["verify", "--z", "1", "--n-max", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n_max must be between 1 and 3, got 10" in captured.err


def test_nodes_reports_too_coarse_grid(capsys):
    code = main(["nodes", "--z", "1", "--n", "20"])
    captured = capsys.readouterr()
    assert code == 2
    assert "(Z=1, n=20)" in captured.err and "samples" in captured.err


def test_import_loads_no_scipy():
    import subprocess
    import sys

    probe = "import sys, vwave, vwave.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_byte_identical_reruns(capsys):
    _, a = run_cli(capsys, "wave", "--z", "1", "--n", "2", "--samples", "300")
    _, b = run_cli(capsys, "wave", "--z", "1", "--n", "2", "--samples", "300")
    assert a == b


def test_figures_outputs(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "figures", "--z", "1", "--out-dir", str(tmp_path), "--samples", "400"
    )
    assert code == 0
    for n in (1, 2, 3):
        text = (tmp_path / f"figure_n{n}.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "r_over_ro,R_normalized"
        vals = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        amps = [abs(v) for _, v in vals]
        assert max(amps) == pytest.approx(1.0, rel=1e-12)
        signs = [v > 0 for _, v in vals if v != 0.0]
        flips = sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)
        if n == 1:
            assert flips == 1
            crossing = next(
                 r for (r, v), (r2, v2) in zip(vals, vals[1:]) if (v > 0) != (v2 > 0)
            )
            assert crossing == pytest.approx(1.0, abs=5e-3)
        else:
            assert flips > 1


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z = 1\nn = 2  # comment\nformat = json\n")
    _, from_cfg = run_cli(capsys, "state", "--config", str(cfg))
    assert json.loads(from_cfg)["radius_bohr"] == 8.0
    _, overridden = run_cli(capsys, "state", "--config", str(cfg), "--n", "3")
    assert json.loads(overridden)["radius_bohr"] == 18.0


def test_malformed_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    code, _ = run_cli(capsys, "state", "--config", str(cfg))
    assert code == 2


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("z = 1\nsmaples = 5000\n")
    code = main(["wave", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'smaples'" in captured.err


@pytest.mark.parametrize(
    "line",
    ["format = xml", "normalize = yes", "samples = many", "v = nan", "r_max = inf",
     "t_max = -inf", "weights = 1,nan", "branches = 0"],
)
def test_config_rejects_bad_value(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = main(["wave", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert repr(line.split(" = ")[0]) in captured.err


def test_config_keys_of_other_subcommands_allowed(tmp_path, capsys):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(
        "z = 2\nn = 1\nsamples = 500\nt-samples = 4\nn_max = 1\nv = 2.0\nnormalize = on\n"
    )
    code, out = run_cli(capsys, "state", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["energy_hartree"] == -2.0
    # nodes takes no --normalize flag, but a shared file may still set it
    code, out = run_cli(capsys, "nodes", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["atom"] == {"n": 1, "z": 2}


def test_exclusion_is_not_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nodes", "--z", "1", "--n", "2", "--exclusion", "0.1"])
    assert exc.value.code == 2
    cfg = tmp_path / "old.cfg"
    cfg.write_text("exclusion = 1e-3\n")
    code = main(["nodes", "--config", str(cfg)])
    assert code == 2
    assert "'exclusion'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["state", "--z", "3", "--n", "7"], "state_z3_n7.json"),
        (["state", "--z", "3", "--n", "7", "--format", "csv"], "state_z3_n7.csv"),
        (["free", "--v", "1.3", "--mass", "2", "--branches", "4"],
         "free_v1.3_mass2_branches4.json"),
    ],
)
def test_golden_outputs(capsys, argv, golden):
    # exact stdout of the closed-form formulas; plain float arithmetic, so
    # the bytes are the same on every platform
    code, out = run_cli(capsys, *argv)
    assert code == 0
    expected = (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")
    assert out == expected


def test_read_config_types(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("samples = 500\nr-max = 2.5\n")
    parsed = read_config(cfg)
    assert parsed["samples"] == 500
    assert parsed["r_max"] == 2.5


def test_invalid_grid_options_exit_2(capsys):
    code, _ = run_cli(capsys, "wave", "--z", "1", "--n", "1", "--samples", "100")
    assert code == 2
    code, _ = run_cli(capsys, "wave", "--z", "1", "--n", "1", "--r-max", "1.2")
    assert code == 2


def test_all_zero_weights_exit_2(capsys):
    code = main(["superpose", "--states", "1,2", "--weights", "0,0", "--t-samples", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "all zero" in captured.err


def test_out_file(tmp_path, capsys):
    out = tmp_path / "state.json"
    code, printed = run_cli(capsys, "state", "--z", "2", "--n", "1", "--out", str(out))
    assert code == 0
    assert printed == ""
    assert json.loads(out.read_text())["energy_hartree"] == -2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["nodes", "--normalize", "on"],
        ["superpose", "--normalize", "on"],
        ["figures", "--normalize", "on"],
        ["figures", "--format", "csv"],
        ["figures", "--out", "figures.csv"],
        ["verify", "--format", "csv"],
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, capsys, argv):
    # --out-dir keeps what a wrongly accepted figures call writes out of the tree
    extra = ["--out-dir", str(tmp_path)] if argv[0] == "figures" else []
    with pytest.raises(SystemExit) as exc:
        main(argv + extra)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert argv[1] in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["wave", "--r-max", "nan"],
        ["free", "--v", "nan"],
        ["free", "--mass", "inf"],
        ["free", "--t", "-inf"],
        ["free", "--branches", "-3"],
        ["free", "--branches", "0"],
        ["superpose", "--t-max", "nan"],
        ["superpose", "--weights=1,nan"],
    ],
)
def test_non_finite_or_out_of_range_numbers_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert argv[1].split("=")[0] in captured.err


# one value per option, each different from its default
_SAMPLE_VALUES = {
    "z": "2", "n": "3", "n_max": "2", "v": "1.5", "mass": "2", "branches": "4",
    "t": "0.5", "states": "2,3", "weights": "-1,0.5", "t_max": "3", "t_samples": "5",
    "r_max": "2.5", "samples": "500", "normalize": "on", "format": "csv",
    "out": "result.txt", "out_dir": "figs",
}


@pytest.mark.parametrize(
    "command,key",
    [(cmd, key) for cmd, (_, _, keys) in _SUBCOMMANDS.items()
     for key in keys if key != "config"],
)
def test_flag_and_config_values_agree(tmp_path, command, key):
    flag, value = key.replace("_", "-"), _SAMPLE_VALUES[key]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    parser = build_parser()
    from_flag = resolve_options(parser.parse_args([command, f"--{flag}={value}"]))[key]
    from_cfg = resolve_options(parser.parse_args([command, "--config", str(cfg)]))[key]
    assert from_flag == from_cfg
    assert type(from_flag) is type(from_cfg)
    assert from_flag != resolve_options(parser.parse_args([command]))[key]


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_help_shows_each_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key in _SUBCOMMANDS[command][2]:
        flag = "--" + key.replace("_", "-")
        assert flag in text
        if _OPTIONS[key].default is not None:
            assert f"(default: {_OPTIONS[key].default})" in text
