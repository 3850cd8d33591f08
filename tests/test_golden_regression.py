"""Seed-equivalence golden tests for the paper artefacts.

Each golden file under ``tests/golden/`` is the canonical JSON serialization
of one experiment's rows+notes on its default config at ``tiny`` scale.  The
tests assert the *serialized bytes* match, so any refactor that drifts a
figure/table number -- a reordered kernel, a changed cost constant, a float
that moved by one ulp -- fails loudly instead of silently rewriting the
paper's numbers.

The experiments build their machines with ``experiments.runner.new_machine``,
which uses the shape backend: the goldens pin the simulated timeline, not
tensor values.  The numeric path those machines skip is guarded by the
per-model ``test_model_iteration_timeline_identical`` in
``tests/test_backend_equivalence.py``.

Regenerate (only when a change is *supposed* to move the numbers, and say so
in the commit message)::

    PYTHONPATH=src python tests/test_golden_regression.py --regenerate
"""

import json
import os

import pytest

from repro.experiments import run_experiment

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Experiments pinned by golden files, with the config the goldens captured.
GOLDEN_EXPERIMENTS = {
    "table1": {},
    "table2": {"scale": "tiny"},
    "fig6": {"scale": "tiny"},
    "fig7": {"scale": "tiny"},
    "fig8": {"scale": "tiny"},
    "fig9": {"scale": "tiny"},
}


def canonical_json(name, kwargs):
    """Deterministic byte-for-byte serialization of one experiment run."""
    result = run_experiment(name, **kwargs)
    payload = {
        "experiment": result.experiment,
        "config": dict(kwargs),
        "rows": result.rows,
        "notes": result.notes,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENTS))
def test_experiment_matches_golden(name):
    path = golden_path(name)
    assert os.path.exists(path), (
        f"golden file {path} is missing; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_regression.py --regenerate`"
    )
    with open(path, "r", encoding="utf-8") as handle:
        expected = handle.read()
    actual = canonical_json(name, GOLDEN_EXPERIMENTS[name])
    assert actual == expected, (
        f"{name} output drifted from the golden file.  If the change is "
        "intentional, regenerate the goldens and justify the drift in the "
        "commit message."
    )


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, kwargs in sorted(GOLDEN_EXPERIMENTS.items()):
        path = golden_path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(name, kwargs))
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
