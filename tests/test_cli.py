"""CLI behavior: outputs, determinism, schemas, exit codes, config files."""

import json
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
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


def test_verify_passes_at_z_392(capsys):
    assert main(["verify", "--z", "392"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_rejects_unchecked_n_max(capsys):
    code = main(["verify", "--z", "1", "--n-max", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n_max must be between 1 and 3, got 10" in captured.err


def test_nodes_reports_every_node_at_n12(capsys):
    # n - 1 plain zeros and the surface at r_o
    assert main(["nodes", "--z", "1", "--n", "12", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    kinds = [row.split(",")[2] for row in rows]
    assert kinds.count("plain_zero") == 11 and kinds.count("trajectory_surface") == 1


def test_import_loads_no_scipy():
    import subprocess
    import sys

    probe = "import sys, vwave, vwave.cli, vwave.verify; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _modules_after(*argv):
    """Modules loaded by a fresh interpreter that imports vwave.cli and runs argv."""
    import subprocess
    import sys

    probe = (
        f"import sys, vwave.cli\nargv = {list(argv)!r}\n"
        "if argv:\n    vwave.cli.main(argv)\n"
        "print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_verify_loads_no_scipy():
    assert not {m for m in _modules_after("verify", "--n-max", "1") if m.startswith("scipy")}


@pytest.mark.parametrize("argv", [
    ["nodes", "--z", "1", "--n", "3"],
    ["wave", "--z", "1", "--n", "2", "--samples", "300"],
    ["superpose", "--states", "1,2"],
    ["verify", "--n-max", "1"],
], ids=lambda argv: argv[0])
def test_numeric_subcommands_load_no_numpy_polynomial(argv):
    assert not {m for m in _modules_after(*argv) if m.startswith("numpy.polynomial")}


def test_cli_import_loads_no_numpy():
    loaded = _modules_after()
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("vwave")} == {
        "vwave", "vwave.cli", "vwave.output", "vwave.units"}


def _blas_threads_after(probe, preset=None):
    """OPENBLAS_NUM_THREADS and the process's OS thread count (None off Linux) after
    a fresh interpreter runs probe, the variable preset to preset or unset."""
    import os
    import subprocess

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe += (
        "\nimport os\ntask = '/proc/self/task'\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'),"
        " len(os.listdir(task)) if os.path.isdir(task) else None)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()[-1].split()


_RUN_NODES = "import vwave.cli\nvwave.cli.main(['nodes', '--z', '1', '--n', '3'])"


def test_cli_runs_blas_with_one_thread():
    setting, threads = _blas_threads_after(_RUN_NODES)
    assert setting == "1"
    if sys.platform.startswith("linux"):
        assert threads == "1"


def test_user_blas_thread_setting_wins():
    assert _blas_threads_after(_RUN_NODES, preset="2")[0] == "2"


def test_process_that_loaded_numpy_keeps_its_blas_setting():
    # OpenBLAS read the environment when numpy loaded: setting it now would
    # only mislead the child processes
    assert _blas_threads_after("import numpy\n" + _RUN_NODES)[0] == "None"


@pytest.mark.parametrize("argv", [
    ["state", "--z", "2", "--n", "3"],
    ["state", "--format", "csv"],
    ["free", "--v", "1.5", "--branches", "3"],
])
def test_state_and_free_run_without_numpy(argv):
    assert "numpy" not in _modules_after(*argv)


def test_wave_loads_only_its_chain():
    loaded = _modules_after("wave", "--z", "1", "--n", "2", "--samples", "300")
    assert {"numpy", "vwave.series", "vwave.wronskian"} <= loaded
    assert not {"vwave.verify", "vwave.nodes", "vwave.free_motion", "scipy"} & loaded


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


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["superpose", "--z", "2", "--states", "1,3", "--weights=1,-1"],
         "superpose_z2_states1_3_weights1_-1.json"),
        (["superpose", "--states", "2,5,9"], "superpose_states2_5_9.json"),
    ],
)
def test_superpose_golden_outputs(capsys, argv, golden):
    # node tracking passes through exp and eigh, whose last bits may differ
    # between platforms: everything but the node radii must match exactly,
    # and each radius within 1e-12 relative
    code, out = run_cli(capsys, *argv)
    assert code == 0
    got = json.loads(out)
    want = json.loads((Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8"))
    assert got.keys() == want.keys()
    for key in want.keys() - {"slices", "tracks"}:
        assert got[key] == want[key], key
    assert [(sl.keys(), sl["t"], sl["degenerate"], len(sl["radii"])) for sl in got["slices"]] == [
        (sl.keys(), sl["t"], sl["degenerate"], len(sl["radii"])) for sl in want["slices"]]
    assert [[p["t"] for p in tr] for tr in got["tracks"]] == [
        [p["t"] for p in tr] for tr in want["tracks"]]
    for name, radii in (("slices", lambda d: [r for sl in d["slices"] for r in sl["radii"]]),
                        ("tracks", lambda d: [p["r"] for tr in d["tracks"] for p in tr])):
        np.testing.assert_allclose(radii(got), radii(want), rtol=1e-12, atol=0.0, err_msg=name)


def test_verify_golden_output(capsys):
    # names, thresholds, verdicts and the two closed-form values must match
    # exactly; the residuals pass through exp and eigh, so they match within
    # 1e-9 relative, and shooting_vs_wronskian sits at rounding (about 3e-15)
    # from n = 2 on, so it matches within 1e-13
    code, out = run_cli(capsys, "verify", "--z", "7")
    assert code == 0
    got = json.loads(out)
    want = json.loads((Path(__file__).parent / "golden" / "verify_z7.json").read_text(
        encoding="utf-8"))
    assert {k: v for k, v in got.items() if k != "checks"} == {
        k: v for k, v in want.items() if k != "checks"}
    assert [(c["name"], c["threshold"], c["passed"]) for c in got["checks"]] == [
        (c["name"], c["threshold"], c["passed"]) for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        if "residual" in w["name"]:
            assert g["value"] == pytest.approx(w["value"], rel=1e-9, abs=0.0), w["name"]
        elif w["name"].startswith("shooting_vs_wronskian"):
            assert g["value"] == pytest.approx(w["value"], rel=0.0, abs=1e-13), w["name"]
        else:
            assert g["value"] == w["value"], w["name"]


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


def test_default_weights_are_one_per_state(capsys):
    code, out = run_cli(capsys, "superpose", "--states", "2,5,9", "--t-samples", "2")
    assert code == 0
    assert json.loads(out)["weights"] == [1.0, 1.0, 1.0]


def test_weights_not_one_per_state_exit_2(capsys):
    code = main(["superpose", "--states", "2,5,9", "--weights", "1,1", "--t-samples", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "2 weights given for 3 states" in captured.err


def test_repeated_state_exit_2(capsys):
    code = main(["superpose", "--states", "1,1", "--weights", "1,-1", "--t-samples", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n=1 is repeated" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--n", str(10**200)],
        ["state", "--z", str(10**200)],
        ["free", "--v", "1e160"],
        ["free", "--v", "1e-200"],
    ],
)
def test_numbers_float64_cannot_hold_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "out of float64 range" in captured.err


def test_state_of_a_huge_z_exits_0(capsys):
    # k_o**2*alpha overflows at Z = 10**103, but beta1 = 2Z does not
    code, printed = run_cli(capsys, "state", "--z", str(10**103))
    assert code == 0
    assert json.loads(printed)["beta1"] == 2e103


def test_free_node_position_overflow_exit_2_names_the_branch(capsys):
    code = main(["free", "--v", "10", "--t", "1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "v=10.0 and m=1.0 are out of float64 range" in captured.err
    assert "branch 0" in captured.err


def test_free_finite_node_positions_past_an_overflowing_pi_over_omega(capsys):
    # pi/omega overflows at v = 2.2e-154, but every position is finite
    code, out = run_cli(capsys, "free", "--v", "2.2e-154", "--branches", "4", "--format", "json")
    assert code == 0
    xs = json.loads(out)["node_positions"]
    assert len(xs) == 4 and all(np.isfinite(xs))
    assert xs[3] == pytest.approx(3.5 * np.pi / 2.2e-154, rel=1e-15)


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
