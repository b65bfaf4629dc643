"""Input sources of a metaverse device (paper Table 3).

Three sensors feed the unit models: a camera (images, 60 FPS), a lidar
(sparse depth points, 60 FPS) and a microphone (audio segments, 3 FPS).
Each data frame arrives with a small jitter around its nominal streaming
time; Definition 7 formalises the jittered request time as

    Treq = Linit + frame_id / FPS + 2*Jt*(Dist(rand(...)) - 0.5)

with ``Dist`` a distribution over [0, 1] (Gaussian by default in the paper;
we use a clipped Gaussian) and ``rand`` a deterministic function of the
sensor and frame id, so a run is reproducible for a given seed.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputSource",
    "CAMERA",
    "LIDAR",
    "MICROPHONE",
    "SENSORS",
    "get_sensor",
    "jitter_units",
]

# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
#: PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k < count, as a uint32 column."""
    return np.array(
        [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count)],
        dtype=np.uint32,
    )[:, None]


#: ``hashmix`` xors the k-th call's input with ``A[k]`` and multiplies by
#: ``A[k + 1]``; ``generate_state`` does the same with ``B`` for word k.
#: The sequences never depend on the data, so they are precomputed.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 17)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 9)
#: ``generate_state`` cycles through the pool for its eight words.
_STATE_WORDS = np.array([0, 1, 2, 3, 0, 1, 2, 3])
#: Per source word of the pool-mixing pass: the other three words, in
#: the order numpy updates them.
_MIX_DST = [np.array([i for i in range(4) if i != src]) for src in range(4)]
_SHIFT = np.uint32(16)


def _hashmix(values: np.ndarray, k: int, rows: int) -> np.ndarray:
    """numpy's ``hashmix`` as calls ``k .. k+rows-1`` of one sequence."""
    mixed = (values ^ _HASH_A[k:k + rows]) * _HASH_A[k + 1:k + rows + 1]
    mixed ^= mixed >> _SHIFT
    return mixed


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every ``s``.

    A vectorised transcription of numpy's ``mix_entropy`` and
    ``generate_state`` for the default four-word pool, over an array of
    uint64 seeds; returns an ``(n, 4)`` uint64 array.  ``SeedSequence``
    splits an int into little-endian 32-bit words (just one when
    ``s < 2**32``) and fills the rest of the pool with ``hashmix(0)``,
    which is exactly what hashing a zero high word gives — so every seed
    takes the same two-word path.  uint32 array arithmetic wraps like
    the C original; the three updates one source word makes are
    independent, so they run as one array operation.
    """
    words = np.asarray(seeds).astype("<u8").view("<u4").reshape(-1, 2)
    pool = np.zeros((4, len(words)), dtype=np.uint32)
    pool[:2] = words.T
    pool = _hashmix(pool, 0, 4)
    for src, dst in enumerate(_MIX_DST):
        mixed = _MIX_MULT_L * pool[dst]
        mixed -= _MIX_MULT_R * _hashmix(pool[src], 4 + 3 * src, 3)
        mixed ^= mixed >> _SHIFT
        pool[dst] = mixed
    state = (pool[_STATE_WORDS] ^ _HASH_B[:8]) * _HASH_B[1:]
    state ^= state >> _SHIFT
    out = np.ascontiguousarray(state.T, dtype="<u4")
    return out.view("<u8").astype(np.uint64)


_thread_state = threading.local()


def _reused_generator() -> tuple[np.random.PCG64, np.random.Generator]:
    """This thread's draw generator, built on first use.

    Built lazily, not at import: ``import numpy`` leaves ``numpy.random``
    unloaded, and loading it is a measurable share of start-up.
    """
    try:
        return _thread_state.generator
    except AttributeError:
        bitgen = np.random.PCG64(0)
        _thread_state.generator = (bitgen, np.random.Generator(bitgen))
        return _thread_state.generator


def jitter_units(
    name: str, seed: int, frame_ids: Sequence[int]
) -> list[float]:
    """The clipped-Gaussian draws ``u`` of one sensor stream's frames.

    Each draw is ``np.random.default_rng(k).normal(0.5, 1/6)`` clipped
    to [0, 1], with ``k`` the first 8 bytes (little-endian) of
    ``sha256(f"{name}:{frame}:{seed}")``: a pure function of its key,
    which is what makes frames order-independent.  Building that
    generator per key would dominate the draw, so instead the batch's
    PCG64 seeding is derived at once (:func:`_seed_states`, then PCG64's
    ``srandom`` step in Python ints) and one reused generator is set to
    each state in turn: the same stream, bit-identical.
    """
    digests = b"".join([
        hashlib.sha256(f"{name}:{frame}:{seed}".encode()).digest()[:8]
        for frame in frame_ids
    ])
    states = _seed_states(np.frombuffer(digests, dtype="<u8")).tolist()
    bitgen, generator = _reused_generator()
    sigma = 1.0 / 6.0
    units = []
    for state_hi, state_lo, seq_hi, seq_lo in states:
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        init = state_hi << 64 | state_lo
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {
                "state": ((inc + init) * _PCG_MULT + inc) & _MASK128,
                "inc": inc,
            },
            "has_uint32": 0,
            "uinteger": 0,
        }
        units.append(min(max(generator.normal(0.5, sigma), 0.0), 1.0))
    return units


@dataclass(frozen=True)
class InputSource:
    """A sensor stream (``sigma`` in Definition 1).

    Attributes:
        name: ``inSrcID`` — the sensor identifier.
        input_type: human-readable payload description (Table 3).
        fps: nominal streaming rate in frames per second.
        jitter_ms: maximum absolute jitter ``Jt`` in milliseconds.
        init_latency_ms: ``Linit``, the stream's setup latency.
    """

    name: str
    input_type: str
    fps: float
    jitter_ms: float
    init_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError(f"sensor fps must be > 0, got {self.fps}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter_ms}")
        if self.init_latency_ms < 0:
            raise ValueError(
                f"init latency must be >= 0, got {self.init_latency_ms}"
            )

    @property
    def period_s(self) -> float:
        """Nominal seconds between consecutive frames."""
        return 1.0 / self.fps

    def nominal_arrival_s(self, frame_id: int) -> float:
        """Unjittered arrival time of ``frame_id`` (seconds)."""
        if frame_id < 0:
            raise ValueError(f"frame_id must be >= 0, got {frame_id}")
        return self.init_latency_ms / 1e3 + frame_id / self.fps

    def jitters_s(
        self, frame_ids: Sequence[int], seed: int = 0
    ) -> list[float]:
        """Deterministic jitter of each of ``frame_ids``, in seconds.

        The jitter is ``2*Jt*(u - 0.5)`` where ``u`` is drawn from a
        Gaussian centred at 0.5 (sigma 1/6) clipped to [0, 1], seeded by a
        stable hash of (sensor, frame, seed) so every harness component
        observing a frame sees the same arrival time
        (:func:`jitter_units`).
        """
        if self.jitter_ms == 0.0:
            return [0.0] * len(frame_ids)
        scale = 2.0 * (self.jitter_ms / 1e3)
        return [
            scale * (u - 0.5)
            for u in jitter_units(self.name, seed, frame_ids)
        ]

    def jitter_s(self, frame_id: int, seed: int = 0) -> float:
        """Deterministic jitter for ``frame_id`` in seconds."""
        return self.jitters_s([frame_id], seed)[0]

    def arrivals_s(
        self, frame_ids: Sequence[int], seed: int = 0
    ) -> list[float]:
        """Jittered arrival time of each of ``frame_ids`` (Definition 7).

        Clamped at zero: a frame cannot arrive before the stream starts.
        One batched draw covers every frame.
        """
        return [
            max(0.0, self.nominal_arrival_s(frame) + jitter)
            for frame, jitter in zip(
                frame_ids, self.jitters_s(frame_ids, seed)
            )
        ]

    def arrival_s(self, frame_id: int, seed: int = 0) -> float:
        """Jittered arrival time of ``frame_id`` (Definition 7), seconds."""
        return self.arrivals_s([frame_id], seed)[0]


CAMERA = InputSource("camera", "Images", fps=60.0, jitter_ms=0.05)
LIDAR = InputSource("lidar", "Sparse Depth Points", fps=60.0, jitter_ms=0.05)
MICROPHONE = InputSource("microphone", "Audio", fps=3.0, jitter_ms=0.1)

SENSORS: dict[str, InputSource] = {
    s.name: s for s in (CAMERA, LIDAR, MICROPHONE)
}


def get_sensor(name: str) -> InputSource:
    """Look up a sensor by ``inSrcID``; raises ``KeyError`` with options."""
    try:
        return SENSORS[name]
    except KeyError:
        raise KeyError(
            f"unknown sensor {name!r}; available: {sorted(SENSORS)}"
        ) from None
