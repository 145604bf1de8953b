"""droptrack: tracking-by-detection under frame dropping.

Quantifies how multi-object tracking quality (HOTA, CLEAR) and modeled
system draw trade off when the detection step runs on only n out of every
m frames and a constant-velocity Kalman tracker fills the gaps with
predictions.
"""

from .geometry import (Detection, LabeledObject, OrientedBox, bev_iou,
                       footprint_intersection_area, iou_3d, wrap_angle)
from .schedule import (DropPattern, Schedule, TARGET_PATTERNS, build_schedule,
                       effective_target, parse_pattern, processed_count)
from .detectors import (NoiseProfile, SceneContext, gt_detect, noisy_detect,
                        scene_context)
from .tracker import (FrameOutput, TrackEntry, Tracker, TrackerConfig,
                      TrackState, associate, predict, solve_assignment, update)
from .metrics import (ALPHA_GRID, ClearResult, HotaResult, NoGroundTruthError,
                      build_frame_tables, clear_mot, clear_pooled, hota,
                      hota_pooled)
from .energy import (ENERGY_PRESETS, EnergyParams, PowerLog, estimate_draw_multi,
                     read_power_log_csv, summarize_power_log, yield_metric)
from .kitti_io import (DatasetError, SequenceData, load_label_dir,
                       load_manifest, parse_kitti_labels, read_frame_outputs,
                       write_frame_outputs, write_kitti_labels)
from .scenario import (KITTI_VAL_SEQUENCE_LENGTHS, REFERENCE_CARS,
                       reference_scenario)
from .pipeline import (CellResult, ComputationError, ConfigError, MetricsRow,
                       RunConfig, SweepReport, config_from_dict,
                       config_from_json, read_sweep_json, run_once, run_sweep,
                       variant_detector, write_report)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
