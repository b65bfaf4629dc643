"""The benchmark harness: config-driven runs through the one funnel.

:class:`Harness` holds a :class:`HarnessConfig` and one shared cost
table.  Each ``run_*`` method builds a :class:`~repro.api.RunSpec` from
the config plus its arguments, compiles it with
:func:`~repro.api.compile_plan` and runs it with
:func:`~repro.api.execute_plan` — the same two steps
:func:`repro.api.execute` takes, so both surfaces produce byte-identical
results by construction.

Prefer the declarative API for new code::

    from repro.api import RunSpec, execute

    report = execute(RunSpec(scenario="ar_gaming", accelerator="J"))

The harness stays for callers that hold live objects a serializable spec
cannot carry: a pre-built :class:`~repro.hardware.AcceleratorSystem` and
mutated :class:`~repro.workload.UsageScenario` objects ride along as
overrides of the names the spec carries, and measured-quality maps as
executor arguments.  New execution features (sweeps, workers, progress
events) land only on the ``RunSpec`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro import registry
from repro.costmodel import CachedCostTable, CostTable
from repro.hardware import AcceleratorSystem
from repro.workload import UsageScenario

from .config import HarnessConfig
from .report import BenchmarkReport, MultiSessionReport, ScenarioReport

if TYPE_CHECKING:
    from repro.api import Report

__all__ = ["Harness"]


def _spec_names(
    scenarios: Sequence[UsageScenario | str],
) -> tuple[tuple[str, ...], dict[str, UsageScenario]]:
    """Spec names for ``scenarios``, plus the inline objects they key.

    Names pass through.  A spec can only name registered scenarios, so
    each distinct scenario object is carried under its own name when
    that is registered and not otherwise used in this run, and under
    another unused registered name when it is not (variants such as
    :func:`repro.workload.deactivate` rename the scenario).  The key only
    routes the object to its session; the report carries the object.
    """
    claimed = {s for s in scenarios if isinstance(s, str)}
    inline: dict[str, UsageScenario] = {}
    names: list[str] = []
    for item in scenarios:
        if isinstance(item, UsageScenario):
            key = next((k for k, v in inline.items() if v == item), None)
            if key is None:
                key = next((
                    k for k in (item.name, *registry.scenarios.names())
                    if k in registry.scenarios
                    and k not in claimed and k not in inline
                ), None)
                if key is None:
                    raise ValueError(
                        f"one run can carry at most "
                        f"{len(registry.scenarios)} distinct scenarios"
                    )
                inline[key] = item
            item = key
        names.append(item)
    return tuple(names), inline


@dataclass
class Harness:
    """Runs scenarios against accelerator systems and scores them.

    A harness instance shares one cost table across runs, so sweeping 13
    accelerators x 7 scenarios re-analyses each (model, engine) pair only
    once.
    """

    config: HarnessConfig = field(default_factory=HarnessConfig)
    costs: CostTable = field(default_factory=CachedCostTable)

    def run_scenario(
        self,
        scenario: UsageScenario | str,
        system: AcceleratorSystem,
        seed: int | None = None,
        measured_quality: dict[str, float] | None = None,
    ) -> ScenarioReport:
        """Simulate and score one scenario on one system."""
        (name,), inline = _spec_names([scenario])
        report = self._run(
            system, seed, measured_quality, inline, scenario=name
        )
        assert isinstance(report, ScenarioReport)
        return report

    def run_sessions(
        self,
        scenario: UsageScenario | str | Sequence[UsageScenario | str],
        system: AcceleratorSystem,
        num_sessions: int = 4,
        seed: int | None = None,
        granularity: str = "model",
        segments_per_model: int = 2,
        measured_quality: dict[str, float] | None = None,
    ) -> MultiSessionReport:
        """Multiplex concurrent scenario sessions onto one system.

        ``scenario`` may be a single scenario (or name) replicated across
        ``num_sessions`` tenants with consecutive seeds, or a sequence of
        per-session scenarios (whose length then sets the session count).
        """
        if isinstance(scenario, (str, UsageScenario)):
            scenarios: Sequence[UsageScenario | str] = (
                [scenario] * num_sessions
            )
        else:
            scenarios = list(scenario)
        if not scenarios:
            raise ValueError("at least one session is required")
        names, inline = _spec_names(scenarios)
        report = self._run(
            system, seed, measured_quality, inline,
            scenario=names, granularity=granularity,
            segments_per_model=segments_per_model,
        )
        assert isinstance(report, MultiSessionReport)
        return report

    def run_suite(
        self,
        system: AcceleratorSystem,
        seed: int | None = None,
    ) -> BenchmarkReport:
        """Run the full seven-scenario suite (Definition 5's Omega)."""
        report = self._run(system, seed, None, {}, suite=True)
        assert isinstance(report, BenchmarkReport)
        return report

    def _run(
        self,
        system: AcceleratorSystem,
        seed: int | None,
        measured_quality: dict[str, float] | None,
        inline: dict[str, UsageScenario],
        **fields: Any,
    ) -> Report:
        """Compile the config plus ``fields`` as a spec and execute it."""
        from repro.api import RunSpec, compile_plan, execute_plan

        # The pre-built system overrides the spec's accelerator; an
        # unregistered custom system keeps the default name as carrier.
        if system.acc_id in registry.accelerators:
            fields["accelerator"] = system.acc_id
        config = self.config
        spec = RunSpec(
            pes=system.total_pes,
            scheduler=config.scheduler,
            duration_s=config.duration_s,
            seed=config.seed if seed is None else seed,
            frame_loss=config.frame_loss_probability,
            **fields,
        )
        return execute_plan(
            compile_plan(spec, system=system),
            system=system,
            costs=self.costs,
            score=config.score,
            measured_quality=measured_quality,
            scenarios=inline,
        )
