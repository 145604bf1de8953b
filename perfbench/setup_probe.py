"""Child process timed for ``setup_s``.

Does what every droptrack CLI call does before its first frame: import the
package, parse the run config, and build or load the dataset. It prints
``ready`` when done; the parent times the span from spawning it to that
line.

    python3 perfbench/setup_probe.py <config.json>
"""

import sys

from program import MissingProgram, import_droptrack

try:
    modules = import_droptrack()
except MissingProgram as exc:
    sys.exit(f"setup_probe: {exc}")
config = modules["pipeline"].config_from_json(sys.argv[1])
sequences = modules["pipeline"].load_sequences(config)
print(f"ready {sum(len(seq.labels) for seq in sequences)}", flush=True)
