"""Tests of the benchmark's own spec generators and tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from genequo import cli, geometry  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def pool_bytes(name, seed):
    return [workloads.spec_bytes(s) for s in workloads.generate_specs(name, seed)]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_specs(name):
    assert pool_bytes(name, 7) == pool_bytes(name, 7)


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_gives_different_specs(name):
    first, second = pool_bytes(name, 7), pool_bytes(name, 8)
    assert all(a != b for a, b in zip(first, second))


@pytest.mark.parametrize("name", NAMES)
def test_every_generated_spec_passes_load_spec(name, tmp_path):
    for i, data in enumerate(pool_bytes(name, 3)):
        path = tmp_path / f"spec-{i}.json"
        path.write_bytes(data)
        cli.load_spec(str(path))


def test_catalogue_cones_have_no_nearly_redundant_face():
    rng = np.random.default_rng(0)
    for i in range(workloads.WORKLOADS["certify-polyhedral"].pool):
        rows, _ = workloads.polyhedral_cone_rows(rng, *workloads.cone_shape(i))
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        k = len(unit)
        volume = min(abs(np.linalg.det(unit[[j - 1, j, (j + 1) % k]])) for j in range(k))
        assert volume >= 0.18, i


@pytest.mark.parametrize("rows, point, exact", workloads.PROJECTION_PROBES)
def test_projection_probe_answers_are_exact(rows, point, exact):
    A, y, x = np.array(rows), np.array(point), np.array(exact)
    multipliers, residual = nnls(A.T, y - x)
    assert np.all(A @ x <= 1e-9)            # x lies in the cone {A x <= 0}
    assert residual <= 1e-9                  # y - x lies in the polar cone
    assert abs(x @ (y - x)) <= 1e-9          # and is orthogonal to x
    assert np.all(multipliers * (A @ x) >= -1e-9)


def test_tracer_patches_every_binding_site_and_restores_it():
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "genequo"]
    originals = {fn: getattr(sys.modules[f"genequo.{mod}"], fn)
                 for mod, fn, _ in spans.FUNCTION_LAYERS}
    originals["compile_expression"] = cli.compile_expression

    def bound_sites(fn):
        return [(m.__name__, a) for m in modules for a, v in vars(m).items() if v is fn]

    before = {name: bound_sites(fn) for name, fn in originals.items()}
    cone_project = geometry.Orthant.project
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(bound_sites(fn) == [] for fn in originals.values())
        assert geometry.Orthant.project is not cone_project
        assert len(before["sphere_directions"]) == tracer.binding_sites["sphere_directions"] > 1
    finally:
        tracer.uninstall()
    assert {name: bound_sites(fn) for name, fn in originals.items()} == before
    assert geometry.Orthant.project is cone_project
    assert "distance" not in vars(geometry.PolyhedralCone)
