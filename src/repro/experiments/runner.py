"""Shared experiment plumbing.

Every experiment in this package follows the same recipe the paper's artifact
uses: build a fresh simulated machine for the configuration, construct the
model, perform GPU warm-up outside the measured window, profile one (or a few)
inference iterations, and extract the quantity the figure/table reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import Profile, Profiler
from ..hw.machine import Machine
from ..models import build_model
from ..models.base import DGNNModel


@dataclass
class ExperimentResult:
    """The output of one experiment: named rows plus free-form notes.

    Attributes:
        experiment: Experiment identifier (``"fig6"``, ``"table2"``, ...).
        rows: One dict per reported row/series point.
        notes: Human-readable commentary (assumptions, scaling caveats).
    """

    experiment: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        self.rows.append(dict(values))

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows matching all given column values."""
        selected = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                selected.append(row)
        return selected

    def format_table(self, max_rows: Optional[int] = None) -> str:
        """Render the rows as a plain-text table."""
        if not self.rows:
            return f"{self.experiment}: (no rows)"
        columns = list(self.rows[0].keys())
        for row in self.rows[1:]:
            for key in row:
                if key not in columns:
                    columns.append(key)
        widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows)) for c in columns}
        lines = [self.experiment]
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        lines.append("  ".join("-" * widths[c] for c in columns))
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        for row in rows:
            lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
        if self.notes:
            lines.append("")
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def new_machine(use_gpu: bool = True, **kwargs) -> Machine:
    """A fresh machine for one experiment configuration.

    The machine runs on the ``shape`` backend unless ``backend=`` is given.
    The paper experiments report simulated time, memory and breakdowns only,
    and the shape backend replays the numeric timeline event for event
    without computing values (``tests/test_backend_equivalence.py`` pins this
    per model), so dense numerics here would be work nothing reads.  Callers
    that need values pass ``backend="numeric"``, as the serving experiments
    do by default.
    """
    kwargs.setdefault("backend", "shape")
    return Machine.cpu_gpu(**kwargs) if use_gpu else Machine.cpu_only(**kwargs)


def profile_single_iteration(
    model: DGNNModel,
    machine: Machine,
    label: str = "",
    batch: Optional[Any] = None,
    warm_up: bool = True,
    batch_kwargs: Optional[Dict[str, Any]] = None,
) -> Tuple[Profile, Any]:
    """Warm the model up and profile exactly one inference iteration.

    Returns the captured profile and the batch that was processed.
    """
    if batch is None:
        batch = next(iter(model.iteration_batches(**(batch_kwargs or {}))))
    with machine.activate():
        if warm_up:
            model.warm_up(batch)
        profiler = Profiler(machine)
        with profiler.capture(label or model.name):
            model.inference_iteration(batch)
    return (profiler.last_profile, batch)


def profile_iterations(
    model: DGNNModel,
    machine: Machine,
    num_iterations: int,
    label: str = "",
    warm_up: bool = True,
    batch_kwargs: Optional[Dict[str, Any]] = None,
) -> List[Profile]:
    """Profile several consecutive iterations (one capture per iteration)."""
    profiles: List[Profile] = []
    with machine.activate():
        batches = model.iteration_batches(**(batch_kwargs or {}))
        profiler = Profiler(machine)
        for index, batch in enumerate(batches):
            if index >= num_iterations:
                break
            if warm_up and index == 0:
                model.warm_up(batch)
            with profiler.capture(f"{label or model.name}-iter{index}"):
                model.inference_iteration(batch)
            profiles.append(profiler.last_profile)
    return profiles


def measure_iteration_latency(
    model_name: str,
    use_gpu: bool,
    dataset: Any = None,
    dataset_name: Optional[str] = None,
    scale: str = "small",
    batch_kwargs: Optional[Dict[str, Any]] = None,
    **config_overrides: Any,
) -> float:
    """End-to-end latency (ms) of one inference iteration on CPU or CPU+GPU.

    Builds a fresh machine and model so runs are independent, performs warm-up
    outside the measurement (as the paper does), and returns the host-observed
    elapsed time of one iteration.
    """
    machine = new_machine(use_gpu=use_gpu)
    with machine.activate():
        model = build_model(
            model_name, machine, dataset=dataset, dataset_name=dataset_name,
            scale=scale, **config_overrides,
        )
    profile, _ = profile_single_iteration(
        model, machine, label=f"{model_name}-{'gpu' if use_gpu else 'cpu'}",
        batch_kwargs=batch_kwargs,
    )
    return profile.elapsed_ms
