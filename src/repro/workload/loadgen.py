"""Load generator: turns a usage scenario into timed inference requests.

Root models (those driven directly by sensors) get their full request
schedule generated up front from the jittered sensor streams.  Dependent
models (downstream of a data or control dependency) are *not* scheduled
here — the runtime spawns their requests when the upstream inference
completes, rolling the dependency's trigger probability with a
deterministic per-frame RNG so runs are reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .requests import FramePlan, InferenceRequest
from .scenarios import Dependency, UsageScenario
from .sensors import InputSource

__all__ = ["LoadGenerator"]


@lru_cache(maxsize=1 << 16)
def _unit_roll(key: str) -> float:
    """Deterministic uniform draw in [0, 1) for a stable string key.

    Pure function of the key (the per-draw generator exists only to turn
    a hash into a well-distributed float), so it is memoised: repeated
    runs of the same seeds — benchmark repeats, sweep points sharing a
    scenario — skip the ~50µs generator construction per roll.
    """
    digest = hashlib.sha256(key.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return float(rng.random())


@lru_cache(maxsize=1 << 12)
def _num_frames(plan: FramePlan, duration_s: float) -> int:
    """Memoised :meth:`FramePlan.num_frames` (hashable frozen plan)."""
    return plan.num_frames(duration_s)


def _frame_lost(code: str, frame: int, seed: int, probability: float) -> bool:
    """Deterministically roll whether a model's sensor frame was lost."""
    return probability > 0.0 and (
        _unit_roll(f"loss:{code}:{frame}:{seed}") < probability
    )


@lru_cache(maxsize=1 << 10)
def _root_schedule(
    scenario: UsageScenario,
    duration_s: float,
    seed: int,
    frame_loss_probability: float,
) -> tuple[tuple[float, str, int, float], ...]:
    """The scenario's sorted root-request schedule, as plain tuples.

    ``(request_time_s, model_code, model_frame, deadline_s)`` rows in
    dispatch order — row for row what :meth:`FramePlan.request_time_s`
    and :meth:`FramePlan.deadline_s` give per frame, but built
    stream-wise: each sensor's arrivals are drawn once, in one batch
    (:meth:`InputSource.arrivals_s`), for exactly the frames some root
    model consumes, and every model's rows index into them.  The
    schedule is a pure function of the (frozen, hashable) scenario and
    the generation parameters — every randomness source is keyed
    derivation, not stateful RNG — so it is memoised: sessions
    replicating one scenario at the same seed, benchmark repeats and
    sweep points rebuild request *objects* (mutable, so they must be
    fresh per run) from cached timing rows.
    """
    # Pass 1: each root model's kept frames, the sensor frame ids they
    # read on each of the model's sensors, and their deadlines.
    models = []
    wanted: dict[InputSource, set[int]] = {}
    for sm in scenario.root_models():
        plan = FramePlan(sm)
        stride = plan.stride
        primary = sm.model.primary_sensor
        frames = [
            frame
            for frame in range(_num_frames(plan, duration_s))
            if not _frame_lost(sm.code, frame, seed, frame_loss_probability)
        ]
        primary_frames = [int(frame * stride) for frame in frames]
        reads = []
        for sensor in sm.model.sensors:
            # FramePlan.request_time_s's frame id on each sensor.
            ids = [
                int(round(frame * sensor.fps / primary.fps))
                for frame in primary_frames
            ]
            wanted.setdefault(sensor, set()).update(ids)
            reads.append((sensor, ids))
        # FramePlan.deadline_s: the next consumed frame's nominal arrival
        # (Definition 8).
        deadlines = [
            primary.nominal_arrival_s(int((frame + 1) * stride))
            for frame in frames
        ]
        models.append((sm.code, frames, reads, deadlines))

    # Pass 2: one batched draw per sensor stream.
    arrivals: dict[InputSource, dict[int, float]] = {}
    for sensor, ids in wanted.items():
        ordered = sorted(ids)
        arrivals[sensor] = dict(zip(ordered, sensor.arrivals_s(ordered, seed)))

    # Pass 3: rows by indexing.  A multi-modal model (DR) waits for all
    # its sensors, so its request time is the latest arrival.
    rows: list[tuple[float, str, int, float]] = []
    for code, frames, reads, deadlines in models:
        times = zip(*[
            list(map(arrivals[sensor].__getitem__, ids))
            for sensor, ids in reads
        ])
        rows.extend(zip(map(max, times), repeat(code), frames, deadlines))
    # Same order as sorting the built requests by (time, code): rows are
    # appended in (model, frame) order and the sort is stable.
    rows.sort(key=lambda r: (r[0], r[1]))
    return tuple(rows)


@dataclass
class LoadGenerator:
    """Generates the request stream for one scenario run.

    Attributes:
        scenario: the usage scenario to drive.
        duration_s: how long the input streams run.
        seed: seed for jitter and dependency-trigger randomness.
        frame_loss_probability: failure-injection knob — probability that a
            sensor frame is lost before reaching the device (bus errors,
            sensor glitches).  Lost frames never become requests; the QoE
            denominator still counts them, so sensor flakiness degrades
            QoE exactly like runtime drops do.
    """

    scenario: UsageScenario
    duration_s: float
    seed: int = 0
    frame_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration_s}")
        if not 0.0 <= self.frame_loss_probability < 1.0:
            raise ValueError(
                f"frame_loss_probability must be in [0, 1), got "
                f"{self.frame_loss_probability}"
            )
        self._plans = {
            sm.code: FramePlan(sm) for sm in self.scenario.models
        }

    def frame_lost(self, code: str, model_frame: int) -> bool:
        """Deterministically roll whether a sensor frame was lost."""
        return _frame_lost(
            code, model_frame, self.seed, self.frame_loss_probability
        )

    def plan_for(self, code: str) -> FramePlan:
        return self._plans[code]

    def root_requests(self, offset_s: float = 0.0) -> list[InferenceRequest]:
        """All requests for sensor-driven models, sorted by request time.

        Timing comes from the memoised schedule (:func:`_root_schedule`);
        the request objects themselves are always fresh — the runtime
        mutates them.  ``offset_s`` shifts request and deadline times
        from generator-local to absolute run time (a session phase that
        starts at ``offset_s``).
        """
        return [
            InferenceRequest(
                code, frame, request_time_s + offset_s, deadline_s + offset_s
            )
            for request_time_s, code, frame, deadline_s in _root_schedule(
                self.scenario,
                self.duration_s,
                self.seed,
                self.frame_loss_probability,
            )
        ]

    def dependency_triggers(
        self, dep: Dependency, model_frame: int
    ) -> bool:
        """Deterministically roll whether ``dep`` fires for a frame."""
        if dep.probability >= 1.0:
            return True
        if dep.probability <= 0.0:
            return False
        roll = _unit_roll(
            f"{dep.upstream}->{dep.downstream}:{model_frame}:{self.seed}"
        )
        return roll < dep.probability

    def spawn_dependent(
        self, dep: Dependency, upstream_frame: int, ready_time_s: float
    ) -> InferenceRequest | None:
        """Create the downstream request triggered by an upstream completion.

        Returns ``None`` when the trigger roll fails (dynamic cascading) or
        when the downstream frame falls outside the run duration.  The
        downstream inherits the upstream's frame index mapped onto its own
        frame plan; its request time is when the upstream's output became
        available.
        """
        if not self.dependency_triggers(dep, upstream_frame):
            return None
        down_plan = self._plans[dep.downstream]
        up_plan = self._plans[dep.upstream]
        # Map the upstream model-frame to the downstream frame covering the
        # same instant of the sensor stream.
        ratio = down_plan.effective_fps / up_plan.effective_fps
        down_frame = int(upstream_frame * ratio)
        sensor = down_plan.scenario_model.model.primary_sensor
        nominal = sensor.nominal_arrival_s(
            down_plan.sensor_frame_for(down_frame)
        )
        if nominal >= self.duration_s:
            return None
        return InferenceRequest(
            model_code=dep.downstream,
            model_frame=down_frame,
            request_time_s=ready_time_s,
            deadline_s=down_plan.deadline_s(down_frame),
        )

    def expected_frames(self) -> dict[str, int]:
        """Streamed frame counts per root model (QoE denominators).

        Dependent models' denominators are counted at runtime, since only
        triggered requests are "streamed" work for them.
        """
        downstream = {d.downstream for d in self.scenario.dependencies}
        return {
            sm.code: _num_frames(self._plans[sm.code], self.duration_s)
            for sm in self.scenario.models
            if sm.code not in downstream
        }
