"""
A full sweep on the bundled reference scenario
==============================================

Cross-product of detector variants and drop patterns, each cell running
the complete pipeline: schedule, detector, tracker, metrics, energy
model. The reference scenario is seven constant-velocity cars over 200
frames at 10 Hz, including entries, exits, and a lane-crossing car, so
no external dataset is needed.
"""

import tempfile

from droptrack import config_from_dict, run_sweep, write_report

config = config_from_dict({
    "dataset": {"kind": "reference"},
    "patterns": [100, 90, 75, 50, 25, 10],
    "variants": ["gt", "noisy:field"],
    "profiles": {
        # A mid-quality detector: 92% recall, moderate center jitter,
        # occasional clutter.
        "field": {"detection_probability": 0.92, "center_sigma": 0.15,
                  "yaw_sigma": 0.03, "false_positives_per_frame": 0.1,
                  "score_range": [0.5, 1.0]},
    },
    "tracker": {"process_noise": 0.0, "measurement_noise": 0.05},
    "energy": {"default": {"preset": "second"}},
    "rng_seed": 7,
})

rows = run_sweep(config)

print(f"{'variant':<12} {'target':>6} {'hota':>8} {'mota':>8} {'motp':>8} "
      f"{'draw W':>8} {'yield':>7}")
for row in rows:
    yld = f"{row.yield_w_per_pt:7.2f}" if row.yield_w_per_pt is not None \
        else "      -"
    print(f"{row.variant:<12} {row.target:>6} {row.hota:>8.3f} "
          f"{row.mota:>8.3f} {row.motp:>8.3f} {row.draw_watts:>8.1f} {yld}")

# Reports land as CSV (full table) and JSON (same rows). This demo writes
# them into a temporary directory that is removed when the block ends.
with tempfile.TemporaryDirectory(prefix="droptrack_sweep_") as out_dir:
    paths = write_report(rows, out_dir)
    print("\nwrote:")
    for name in sorted(paths):
        print(f"  {paths[name].name} ({paths[name].stat().st_size} bytes)")

# Rerunning with the same config reproduces these files byte for byte;
# see tests/test_acceptance.py.
