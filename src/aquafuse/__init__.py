"""aquafuse: tightly coupled visual-inertial-acoustic-depth state estimation
with a synthetic underwater scenario simulator and evaluation harness."""

from .backend import (BackendConfig, Factor, FactorKind, LocalWindow,
                      SensorNoise, SensorRig, SolverConfig, assemble_window,
                      solve)
from .depth import (DepthExtrinsics, PressureSample, pressure_pair_residuals,
                    pressure_position_estimate)
from .dvl import (DvlExtrinsics, DvlPreintegrated, DvlSample,
                  correct_dvl_bias, dvl_position_pair_residuals,
                  dvl_velocity_estimate, dvl_velocity_pair_residuals,
                  preintegrate_dvl, stack_dvl_position_pairs,
                  stack_dvl_velocity_pairs)
from .evaluation import (ErrorReport, Trajectory, align_to_truth,
                         error_metrics, preprocess)
from .frontend import (EstimatorMode, FrameState, RunConfig, TrackerConfig,
                       TrackingStatus, keyframe_decision,
                       predict_state_degraded, refine_photometric,
                       run_estimator, track_coarse)
from .imu import (ImuPreintegrated, ImuSample, correct_imu_bias,
                  imu_pair_residuals, integrate_imu, predict_state_imu,
                  stack_imu_pairs)
from .manifold import Pose, exp_so3, hat, log_so3, right_jacobian_so3
from .sim import (ScenarioConfig, SensorDataset, read_dataset, simulate,
                  trajectory_truth, write_dataset)
from .state import NavState, StateStack, stack_states
from .visual import CameraModel, IntensityField, LandmarkObservation

__version__ = "0.1.0"
