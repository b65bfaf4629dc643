"""Exactness of the batched sensor-jitter draws and stream-wise schedules.

``jitter_units`` re-derives numpy's ``SeedSequence -> PCG64`` seeding for
a whole batch and reuses one generator, instead of building
``np.random.default_rng(key)`` per frame.  These tests hold it to the
per-frame formula bit for bit, and hold ``_root_schedule`` (which draws
each sensor stream once) to a per-frame loop over the public scalar API.
This file is the only place sensor jitter and arrival values are pinned.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.workload import LoadGenerator, benchmark_suite
from repro.workload import loadgen, sensors
from repro.workload.requests import FramePlan
from repro.workload.sensors import SENSORS, jitter_units

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


def oracle_unit(name: str, frame: int, seed: int) -> float:
    """The per-frame draw: a fresh generator seeded from the key's digest."""
    digest = hashlib.sha256(f"{name}:{frame}:{seed}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return float(np.clip(rng.normal(0.5, 1 / 6), 0, 1))


def assert_same_floats(got: list[float], want: list[float]) -> None:
    assert got == want
    assert [repr(x) for x in got] == [repr(x) for x in want]


class TestSeeding:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_matches_seed_sequence(self, seed: int):
        got = sensors._seed_states(np.array([seed], dtype=np.uint64))
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert got.dtype == np.uint64
        assert got.tolist() == [want.tolist()]

    def test_batch_rows_are_independent(self):
        seeds = np.array(EDGE_SEEDS * 3, dtype=np.uint64)
        want = [
            np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()
            for s in seeds.tolist()
        ]
        assert sensors._seed_states(seeds).tolist() == want


class TestJitterUnits:
    @given(
        name=st.one_of(
            st.sampled_from(sorted(SENSORS)),
            st.text(
                alphabet=st.characters(exclude_categories=("Cs",)),
                max_size=12,
            ),
        ),
        frames=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8
        ),
        seed=st.integers(),
    )
    def test_equals_per_frame_generator(
        self, name: str, frames: list[int], seed: int
    ):
        assert_same_floats(
            jitter_units(name, seed, frames),
            [oracle_unit(name, frame, seed) for frame in frames],
        )

    @pytest.mark.parametrize("seed", EDGE_SEEDS + (-1, -(2**70), 2**70))
    def test_edge_seeds(self, seed: int):
        frames = list(range(300))
        assert_same_floats(
            jitter_units("camera", seed, frames),
            [oracle_unit("camera", frame, seed) for frame in frames],
        )

    def test_order_independent(self):
        frames = [5, 0, 17, 3, 5]
        units = jitter_units("lidar", 9, frames)
        assert units == [jitter_units("lidar", 9, [f])[0] for f in frames]

    def test_empty_batch(self):
        assert jitter_units("camera", 0, []) == []

    def test_no_generator_per_frame(self, monkeypatch: pytest.MonkeyPatch):
        jitter_units("camera", 0, [0])  # builds this thread's generator

        def forbidden(*args: object, **kwargs: object) -> None:
            raise AssertionError("a generator was built for a draw")

        for ctor in ("default_rng", "Generator", "PCG64", "SeedSequence"):
            monkeypatch.setattr(np.random, ctor, forbidden)
        assert len(jitter_units("camera", 0, range(100))) == 100

    def test_numpy_random_loaded_lazily(self):
        code = (
            "import sys, repro, repro.api, repro.workload; "
            "assert 'numpy.random' not in sys.modules"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )


class TestPinnedValues:
    """The jitter stream itself; any change here moves every golden."""

    def test_first_arrivals(self):
        assert [SENSORS["camera"].arrival_s(f, 0) for f in range(3)] == [
            0.0, 0.01665704533720535, 0.03332892724366763,
        ]
        assert [SENSORS["lidar"].arrival_s(f, 0) for f in range(3)] == [
            2.8207809175522214e-05, 0.016693610453028626, 0.0333318177558832,
        ]
        assert [SENSORS["microphone"].arrival_s(f, 0) for f in range(3)] == [
            0.0, 0.3333058110679109, 0.6665922971795202,
        ]

    def test_stream_digest(self):
        h = hashlib.sha256()
        for name in sorted(SENSORS):
            sensor = SENSORS[name]
            for seed in (0, 1, 7):
                frames = list(range(200))
                jitters = sensor.jitters_s(frames, seed)
                arrivals = sensor.arrivals_s(frames, seed)
                for frame, jitter, arrival in zip(frames, jitters, arrivals):
                    h.update(
                        f"{name} {seed} {frame} {jitter!r} {arrival!r}\n"
                        .encode()
                    )
        assert h.hexdigest() == (
            "9d0e8a8c63fac51c23b2dd17dde0bbd8d204800a85a60a0b67eb40dbbfdc6ac5"
        )

    def test_scalar_api_is_the_batch(self):
        camera = SENSORS["camera"]
        frames = list(range(40))
        assert [camera.jitter_s(f, 3) for f in frames] == camera.jitters_s(
            frames, 3
        )
        assert [camera.arrival_s(f, 3) for f in frames] == camera.arrivals_s(
            frames, 3
        )


def reference_schedule(
    scenario, duration_s: float, seed: int, loss: float
) -> list[tuple[float, str, int, float]]:
    """Per-frame schedule through the public scalar API."""
    gen = LoadGenerator(scenario, duration_s, seed, loss)
    rows = []
    for sm in scenario.root_models():
        plan = FramePlan(sm)
        for frame in range(plan.num_frames(duration_s)):
            if gen.frame_lost(sm.code, frame):
                continue
            rows.append((
                plan.request_time_s(frame, seed),
                sm.code,
                frame,
                plan.deadline_s(frame),
            ))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def clear_memos() -> None:
    loadgen._root_schedule.cache_clear()
    loadgen._num_frames.cache_clear()
    loadgen._unit_roll.cache_clear()
    vars(sensors._thread_state).clear()


class TestStreamWiseSchedule:
    @pytest.mark.parametrize("scenario", benchmark_suite(), ids=lambda s: s.name)
    @pytest.mark.parametrize(
        ("duration_s", "seed", "loss"),
        [(0.5, 0, 0.0), (0.71, 11, 0.0), (0.41, 2**40, 0.3)],
    )
    def test_equals_per_frame_loop(self, scenario, duration_s, seed, loss):
        clear_memos()
        cold = loadgen._root_schedule(scenario, duration_s, seed, loss)
        # Rebuilt with the frame-count and loss memos and this thread's
        # generator warm, then served from the schedule memo.
        loadgen._root_schedule.cache_clear()
        rebuilt = loadgen._root_schedule(scenario, duration_s, seed, loss)
        warm = loadgen._root_schedule(scenario, duration_s, seed, loss)
        want = reference_schedule(scenario, duration_s, seed, loss)
        assert list(cold) == want
        assert repr(list(cold)) == repr(want)
        assert rebuilt == cold and rebuilt is not cold
        assert warm is rebuilt

    def test_suite_covers_multimodal_models(self):
        assert any(
            len(sm.model.sensors) > 1
            for scenario in benchmark_suite()
            for sm in scenario.root_models()
        )

    def test_loss_roll_drops_frames(self):
        scenario = benchmark_suite()[0]
        full = loadgen._root_schedule(scenario, 0.5, 4, 0.0)
        lossy = loadgen._root_schedule(scenario, 0.5, 4, 0.3)
        assert 0 < len(lossy) < len(full)
        assert set(lossy) <= set(full)
