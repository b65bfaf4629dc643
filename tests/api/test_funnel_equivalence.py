"""Funnel pins: every front end produces the same runs, byte for byte.

The golden schedule checksums (``tests/runtime/test_schedule_equivalence``)
drive :class:`~repro.runtime.MultiScenarioSimulator` directly, so they
cannot see the API layer above it: how :class:`~repro.core.Harness` and
:func:`~repro.api.execute` turn their arguments into sessions, seeds,
lifetime windows, cost tables and scores.  These pins close that gap.
Each case runs one front-end call on a short horizon and hashes three
views of its report:

* ``records`` — every engine occupancy interval of every session;
* ``requests`` — every request's timing, placement, energy and fault
  stamps (the process-global ``request_id`` counter is left out), plus
  the per-session busy time, spawned-frame counts and active window;
* ``scores`` — the ``repr`` of every session's :class:`ScenarioScore`.

The digests were recorded before ``Harness`` and the three run modes
were merged into the single ``compile_plan`` -> ``execute_plan`` funnel;
any routing change that moves a schedule, a seed or a score fails here.
Regenerate with ``python tests/api/test_funnel_equivalence.py`` only for
a deliberate, separately justified semantics change.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable

import pytest

from repro.api import RunSpec, execute
from repro.core import Harness, HarnessConfig
from repro.core.report import (
    BenchmarkReport,
    MultiSessionReport,
    ScenarioReport,
)
from repro.hardware import build_accelerator
from repro.workload import get_scenario

DURATION_S = 0.25


def _harness() -> Harness:
    return Harness(config=HarnessConfig(duration_s=DURATION_S))


def _sessions(report: Any) -> list[ScenarioReport]:
    if isinstance(report, BenchmarkReport):
        return list(report.scenario_reports)
    if isinstance(report, MultiSessionReport):
        return list(report.session_reports)
    return [report]


def _sha(data: Any) -> str:
    return hashlib.sha256(repr(data).encode("utf-8")).hexdigest()


def digests(report: Any) -> tuple[str, str, str]:
    """``(records, requests, scores)`` sha256 digests of a report."""
    records, requests, scores = [], [], []
    for session in _sessions(report):
        sim = session.simulation
        records.append([dataclasses.astuple(r) for r in sim.records])
        requests.append((
            sim.session_id,
            sim.scenario.name,
            [
                (
                    r.model_code, r.model_frame, r.request_time_s,
                    r.deadline_s, r.start_time_s, r.end_time_s,
                    r.accelerator_id, r.energy_mj, r.dropped, r.faulted,
                    r.fault_retries, r.failed_faulted,
                )
                for r in sim.requests
            ],
            sorted(sim.busy_time_s.items()),
            sorted(sim.spawned_frames.items()),
            sim.active_duration_s,
        ))
        scores.append(repr(session.score))
    return _sha(records), _sha(requests), _sha(scores)


def _figure7_row() -> ScenarioReport:
    scenario = get_scenario("vr_gaming").with_dependency_probability(
        "ES", "GE", 0.3
    )
    return _harness().run_scenario(
        scenario, build_accelerator("B", 4096), seed=2
    )


#: Case name -> the front-end call it pins.
CASES: dict[str, Callable[[], Any]] = {
    "harness_scenario_by_name": lambda: _harness().run_scenario(
        "ar_gaming", build_accelerator("J", 4096), seed=1
    ),
    "harness_scenario_figure7_row": _figure7_row,
    "harness_sessions_model": lambda: _harness().run_sessions(
        "vr_gaming", build_accelerator("J", 4096), num_sessions=3
    ),
    "harness_sessions_segment": lambda: _harness().run_sessions(
        "ar_gaming", build_accelerator("J", 4096), num_sessions=2,
        granularity="segment",
    ),
    "harness_suite": lambda: _harness().run_suite(
        build_accelerator("A", 4096)
    ),
    "execute_single": lambda: execute(RunSpec(
        scenario="outdoor_activity_a", accelerator="J",
        duration_s=DURATION_S, seed=3,
    )),
    "execute_sessions": lambda: execute(RunSpec(
        scenario=("vr_gaming", "ar_assistant"), accelerator="J",
        scheduler="edf", granularity="segment", duration_s=DURATION_S,
    )),
    "execute_static_suite": lambda: execute(RunSpec(
        suite=True, accelerator="J", duration_s=DURATION_S,
    )),
    "execute_dynamic_suite": lambda: execute(RunSpec(
        suite=True, accelerator="J", duration_s=DURATION_S, churn=0.25,
        dvfs_policy="slack", admission="degrade", faults="flaky",
    )),
}

#: Case name -> (records, requests, scores) digests, recorded from the
#: pre-merge funnel.
PINS: dict[str, tuple[str, str, str]] = {
    "execute_dynamic_suite": (
        "ee8b051e5a3a2234d8cd8e86fbd37071d81d70903e01cc24151cba2f69e176fa",
        "4e91b84e8a98a872d33a4d674d78260b399a1b0167de2199dbc46d199719f976",
        "86b6a6cb9584ed85f86d35228d4cdbd12326198312aad0a8ebe2162d53a35b01",
    ),
    "execute_sessions": (
        "dac12286e907ada25698df586118f5b6b8f1314dafe62d92c8afa1b153630193",
        "fdfcd59cf776d1dc95874759398b830c92e5952a019ea0f38067189cfcf16f38",
        "a854a01395537f7db79e6c3c8f040a2d833f5c2f8d3c459937086a885947c591",
    ),
    "execute_single": (
        "8cf484d32c1696777b1ba9a0d0f4ef57cffcb794fc0f0d02bf0a0521d9cd1f82",
        "293fe13ae96d0991454f579ffcb7fce8036d3c6779a597edc68a23585c69a933",
        "9c700d9120ec39083a36d5646ae981601c3eb22546c433c8e43bcd3218069232",
    ),
    "execute_static_suite": (
        "5bc7fd369c3140dfba588c556d0d4d7447c6dd97909d406b36298bfb892fc5ce",
        "591ce42510debb2dd91d905bfaa008c6df8b1a7e2198673cb90d7d5a9c33e114",
        "0769d4a49c08901c9b0787175bb2a066de20ad199494864767ac7efde73efb7e",
    ),
    "harness_scenario_by_name": (
        "b07b4edca9ffba9c252eb18f10a08af7cd67e801cdc86944b87df120ada39efe",
        "55abefc1e0660d3e6cc9eb73dd242f48c3ad970a95e9aacb273da11dd766d9af",
        "755150a37b4d51691fc72692668d1fb6e5afb67a2b65f9a98370bf237047b7b6",
    ),
    "harness_scenario_figure7_row": (
        "b6469e1ab04cf5b51279dd754d6bdee0da06bbe9ad0ef2a8e4104580700f55f4",
        "9d9b3d1c813f94d348a883ce7c4f6472eeedcf7eb3aaa3f61e540df7cceb9124",
        "2715ea96f95e6e0bf5bf9a139d66de0b7d00f1700019fe0ad63bb7bbf761443b",
    ),
    "harness_sessions_model": (
        "7cc30f6e42b9af88c6a17db8474277cb703b6cfb5b40a14e07f83d4aaefe04d2",
        "88140540ee36377eec09788168e209a4cf35931d3bb4aae10c5d4822ab15c231",
        "03555ecd191d1d166987c7e731efc3e96b44ab0c25e2e3eb548f5a78fba9ba92",
    ),
    "harness_sessions_segment": (
        "3960d98ae4ce63b00d8ba39bd41a0e7079ba5e86fe336f83822de37cacd69351",
        "15c3b5ff4a1fcf81ed8b1b0eb7f21e9436597f45313e462e39ff1bb9cf7e50aa",
        "85306518c0744773e69ca8697dd978c269362cecd6aabbad3f40f9729b497ae0",
    ),
    "harness_suite": (
        "a94ca2cc8d330faa80d178475fbe4495374a6b429907dffa1da636aca7f783cd",
        "5b530db87dc40b8a7370ef657caa1bcb9acd88f7495105da78fa40b5dfe26b2f",
        "630275080760b9a6d22d0d38626ec43552f408866ad0c2870e8ad6f9f9d62433",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_funnel_pin(case: str) -> None:
    assert digests(CASES[case]()) == PINS[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": (')
        for digest in digests(CASES[name]()):
            print(f'        "{digest}",')
        print("    ),")
