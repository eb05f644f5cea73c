"""Body-model kinematics: joint selection and differentiation to acceleration.

Motion generators emit full-body joint trajectories (22 joints, 3D positions
per frame).  This module picks the joint matching a wearable sensor placement
and differentiates the position track into a triaxial accelerometer series.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import DataError

JOINT_COUNT = 22

# Seconds per frame of the motion generators' output, as 1/frame_rate.
DEFAULT_FRAME_RATE_HZ = 46.0


class ActivityLabel(IntEnum):
    ADL = 0
    FALL = 1


class Provenance(str, Enum):
    REAL = "real"
    SYNTHETIC = "synthetic"


class SensorPlacement(str, Enum):
    LEFT_WRIST = "left_wrist"
    RIGHT_WRIST = "right_wrist"
    WAIST_PELVIS = "waist_pelvis"
    LEFT_FOOT = "left_foot"
    RIGHT_HIP = "right_hip"


_JOINT_INDEX: dict[SensorPlacement, int] = {
    SensorPlacement.LEFT_WRIST: 20,
    SensorPlacement.RIGHT_WRIST: 21,
    SensorPlacement.WAIST_PELVIS: 0,
    SensorPlacement.LEFT_FOOT: 10,
    SensorPlacement.RIGHT_HIP: 2,
}


def _as_finite_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class JointTrajectory:
    """F x 22 x 3 joint positions (meters) at a fixed frame rate."""

    positions: np.ndarray
    frame_rate: float = DEFAULT_FRAME_RATE_HZ

    def __post_init__(self):
        arr = _as_finite_float_array(self.positions, "positions")
        if arr.ndim != 3 or arr.shape[1] != JOINT_COUNT or arr.shape[2] != 3:
            raise DataError(
                f"trajectory must have shape (F, {JOINT_COUNT}, 3), got {arr.shape}"
            )
        if arr.shape[0] < 2:
            raise DataError("trajectory needs at least 2 frames")
        if not self.frame_rate > 0:
            raise DataError("frame_rate must be positive")
        object.__setattr__(self, "positions", arr)

    @property
    def frames(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class PositionSeries:
    """Single-joint F x 3 position track plus the frame interval dt (seconds)."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        arr = _as_finite_float_array(self.samples, "samples")
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DataError(f"position series must have shape (F, 3), got {arr.shape}")
        if arr.shape[0] < 2:
            raise DataError("position series needs at least 2 frames")
        if not self.dt > 0:
            raise DataError("dt must be positive")
        object.__setattr__(self, "samples", arr)

    @property
    def frames(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class AccelSeries:
    """Triaxial acceleration samples (m/s^2) with label and provenance metadata."""

    samples: np.ndarray
    sampling_rate: float
    label: ActivityLabel = ActivityLabel.ADL
    provenance: Provenance = Provenance.REAL
    subject_id: str | None = None

    def __post_init__(self):
        arr = _as_finite_float_array(self.samples, "samples")
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DataError(f"accel series must have shape (N, 3), got {arr.shape}")
        if not self.sampling_rate > 0:
            raise DataError("sampling_rate must be positive")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "label", ActivityLabel(self.label))
        object.__setattr__(self, "provenance", Provenance(self.provenance))

    def __len__(self) -> int:
        return self.samples.shape[0]


def joint_index_for(placement: SensorPlacement) -> int:
    """Fixed joint index (0..21) of the body model matching a sensor placement."""
    return _JOINT_INDEX[SensorPlacement(placement)]


def extract_joint(traj: JointTrajectory, placement: SensorPlacement) -> PositionSeries:
    """Slice one joint's F x 3 position track out of a full-body trajectory."""
    idx = joint_index_for(placement)
    return PositionSeries(
        samples=traj.positions[:, idx, :].copy(),
        dt=1.0 / traj.frame_rate,
    )


def differentiate_to_accel(
    pos: PositionSeries,
    *,
    central_second_difference: bool = False,
    subject_id: str | None = None,
) -> AccelSeries:
    """Differentiate a position track into a synthetic fall accelerometer series.

    Default scheme: a(f) = (p(f+1) - p(f)) / dt^2, yielding F-1 samples; each
    axis is computed independently.  With ``central_second_difference`` the
    scheme is (p(f+1) - 2 p(f) + p(f-1)) / dt^2, yielding F-2 samples; this
    variant exists for sensitivity studies only.
    """
    p = pos.samples
    dt2 = pos.dt * pos.dt
    if central_second_difference:
        if pos.frames < 3:
            raise DataError("central second difference needs at least 3 frames")
        accel = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / dt2
    else:
        accel = (p[1:] - p[:-1]) / dt2
    return AccelSeries(
        samples=accel,
        sampling_rate=1.0 / pos.dt,
        label=ActivityLabel.FALL,
        provenance=Provenance.SYNTHETIC,
        subject_id=subject_id,
    )
