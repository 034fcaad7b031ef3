"""Frozen input generators of the benchmark.

The benchmark owns these draws so that edits to the test helpers never
move a workload. Every draw uses ``numpy.random.default_rng`` and keeps the
call order fixed: changing the order changes every input after it.

Parameter ranges (all lengths in metres, stiffness in N/m, angles in
radians before conversion to the JSON schema's degrees):

- surface point x in U(5, 25), y in U(-5, 10); base origin x, y in
  U(-5, 8): the surface passes a few platform sizes from the base, which is
  the regime of the reference configuration (surface point (19.5, 6.25),
  base origin (5, 3.5)).
- surface angle and base angle in U(0, 2 pi), redrawn while
  |sin(alpha - phi1)| < 0.1: point E (base axis meets surface) must exist
  and stay within a few hundred metres, otherwise the solve is
  ill-posed rather than slow.
- anchor distances O1A1, O2A2 in U(1, 8), pin P at x in U(-4, 4),
  y in U(0.5, 4): platforms of the reference's size (5.5, 4.5, P at
  (2.25, 2.5)), pin kept off the top platform's X axis.
- stiffness k1, k2, k3 in U(0.3, 4): spans the reference's 1.45..1.85
  with a ratio of up to ~13 between springs.
- L01 in U(0.2, 2) for the one-nonzero corpus: the reference uses 1.0;
  below ~0.2 the squared pair nears its L01 -> 0 degeneracy, which the
  solver does not resolve (the skipped continuity test), and that is a
  separate problem from the cost this corpus measures.

This geometry draw matches the order of the test suite's random mechanism
helper at the time the benchmark was written, so the first 40 one-nonzero
mechanisms of seed 2026 are the corpus behind the roadmap's recall
baseline (353 accepted roots; see ``baseline.py``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spring_platform import MechanismParams, Point2

# seed of the one-nonzero mechanism set; it is the roadmap baseline corpus
ONE_NONZERO_MECHANISM_SEED = 2026
L01_RANGE = (0.2, 2.0)

REFERENCE_ONE = Path("configs/one_nonzero_free_length.json")
REFERENCE_ZERO = Path("configs/all_zero_free_lengths.json")


def random_mechanism(rng, l01: float = 0.0) -> MechanismParams:
    """One random, geometrically sane mechanism with first free length
    ``l01`` (the other two are zero)."""
    while True:
        alpha = rng.uniform(0.0, 2 * math.pi)
        phi1 = rng.uniform(0.0, 2 * math.pi)
        if abs(math.sin(alpha - phi1)) < 0.1:
            continue
        return MechanismParams(
            surface_point=Point2(rng.uniform(5.0, 25.0), rng.uniform(-5.0, 10.0)),
            surface_angle=alpha,
            a1_in_base=Point2(rng.uniform(1.0, 8.0), 0.0),
            a2_in_top=Point2(rng.uniform(1.0, 8.0), 0.0),
            p_in_top=Point2(rng.uniform(-4.0, 4.0), rng.uniform(0.5, 4.0)),
            base_origin=Point2(rng.uniform(-5.0, 8.0), rng.uniform(-5.0, 8.0)),
            base_angle=phi1,
            stiffness=tuple(float(k) for k in rng.uniform(0.3, 4.0, 3)),
            free_lengths=(l01, 0.0, 0.0),
        )


def one_nonzero_mechanisms(count: int):
    """The first ``count`` one-nonzero mechanisms of the frozen set: L01
    drawn first, then the geometry."""
    rng = np.random.default_rng(ONE_NONZERO_MECHANISM_SEED)
    out = []
    for _ in range(count):
        l01 = float(rng.uniform(*L01_RANGE))
        out.append(random_mechanism(rng, l01))
    return out


def zero_corpus(seed: int, count: int):
    """sweep-zero random inputs: ``count`` all-zero-free-length
    mechanisms drawn from ``seed``."""
    rng = np.random.default_rng([seed % 2 ** 64, 0])
    return [random_mechanism(rng) for _ in range(count)]


def config_dict(params: MechanismParams) -> dict:
    """The JSON run configuration of a mechanism (degrees, as the CLI
    reads it)."""
    return {
        "P_M": [params.surface_point.x, params.surface_point.y],
        "alpha_deg": math.degrees(params.surface_angle),
        "P_A1_in1": [params.a1_in_base.x, 0.0],
        "P_A2_in2": [params.a2_in_top.x, 0.0],
        "P_P_in2": [params.p_in_top.x, params.p_in_top.y],
        "P_O1": [params.base_origin.x, params.base_origin.y],
        "phi1_deg": math.degrees(params.base_angle),
        "k": list(params.stiffness),
        "L0": list(params.free_lengths),
        "case": "auto",
    }


def write_configs(mechanisms, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, params in enumerate(mechanisms):
        path = directory / f"config_{i:04d}.json"
        path.write_text(json.dumps(config_dict(params), indent=2) + "\n")
        paths.append(path)
    return paths
