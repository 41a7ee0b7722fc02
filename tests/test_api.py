"""The public names of the package."""

import importlib

import pytest

import vwave

# public name -> the module that defines it, in the order of vwave.__all__
PUBLIC = {
    "AtomSpec": "units", "BoundWave": "wronskian", "FreeParams": "free_motion",
    "NodeKind": "nodes", "NodeReport": "nodes", "RadialGrid": "wronskian",
    "SeriesSolution": "series", "StateParams": "units", "bohr_ratio": "units",
    "build_series": "series", "derive_state": "units",
    "find_nodes": "nodes", "free_params": "free_motion", "interior_zeros": "series",
    "make_radial_grid": "wronskian", "node_trajectory": "free_motion",
    "ode_residual": "verify", "pde_residual_free": "verify",
    "quantization_scan": "series", "sample_wave": "wronskian", "shoot_inward": "verify",
    "superpose": "wronskian", "track_superposition_nodes": "nodes",
    "u_minus": "wronskian", "u_plus": "series", "wave_value": "free_motion",
}


def test_all_lists_the_public_names():
    assert vwave.__all__ == list(PUBLIC)


def test_every_exported_name_resolves():
    for name in vwave.__all__:
        assert getattr(vwave, name) is not None, name


def test_dir_covers_all():
    assert set(vwave.__all__) <= set(dir(vwave))


def test_star_import_binds_every_name():
    ns = {}
    exec("from vwave import *", ns)
    assert set(PUBLIC) <= set(ns)


@pytest.mark.parametrize("name,module", PUBLIC.items())
def test_each_name_is_its_defining_module_object(name, module):
    assert getattr(vwave, name) is vars(importlib.import_module(f"vwave.{module}"))[name]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vwave.no_such_name


def test_removed_names_not_exported():
    for name in ("Constants", "constants", "classify_locus", "wave_full",
                 "energy_closed_form"):
        assert name not in vwave.__all__
        assert not hasattr(vwave, name)


def test_benchmark_tracer_installs_and_counts_u_minus_points():
    # perfbench/tracing.py looks program names up with getattr, so a rename
    # here must fail a test, not a traced benchmark run; sample_wave's points
    # reach its wronskian.u_minus span through the one evaluation entry point
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    probe = (
        "import tracing\n"
        "t = tracing.Tracer()\n"
        "t.install()\n"
        "from vwave import AtomSpec, build_series, make_radial_grid, sample_wave\n"
        "sol = build_series(AtomSpec(1, 3))\n"
        "sample_wave(sol, make_radial_grid(sol))\n"
        "print(tracing.summarize(t.arrays())['wronskian.u_minus']['count'])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "perfbench"), str(root / "src")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["1000"]
