import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import protoreg as pr


SMALL_PHANTOM = pr.PhantomSpec(
    dims=(32, 32, 32),
    body_semi_axes_mm=(13.0, 12.0, 13.0),
    ctv_center_mm=(3.0, 1.0, -2.0),
    ctv_radius_mm=4.0,
    oars=(((-5.0, -3.0, 3.0), 3.0),),
    dose_tau_mm=5.0,
    seed=7,
)


@pytest.fixture(scope="session")
def small_phantom():
    return pr.make_phantom(SMALL_PHANTOM)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_volume(rng, dims, spacing=(1.0, 1.0, 1.0)):
    return pr.Volume(rng.random(dims).astype(np.float32), spacing=spacing)


def lattice_safe_field(rng, dims, scale=0.3):
    """Random displacements bounded away from lattice planes so the
    trilinear interpolant is smooth within a finite-difference stencil."""
    sign = np.where(rng.random((3,) + tuple(dims)) < 0.5, -1.0, 1.0)
    mag = 0.1 + scale * rng.random((3,) + tuple(dims))
    return pr.DisplacementField((sign * mag).astype(np.float32))


def number_paths(doc, path=()):
    """The index path of every number in a nested JSON document."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in number_paths(v, path + (k,))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in number_paths(v, path + (i,))]
    return [path]


def with_numbers(doc, changes):
    """A deep copy of the JSON document doc with the value at each index
    path in changes replaced by its value there."""
    doc = json.loads(json.dumps(doc))
    for path, value in changes.items():
        *head, last = path
        parent = doc
        for k in head:
            parent = parent[k]
        parent[last] = value
    return doc
