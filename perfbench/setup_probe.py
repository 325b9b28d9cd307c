"""One set-up in a fresh interpreter, timed from before the first import.

Set-up is what every workload pays before its first operation: importing the
package, parsing a config file, initialising the parameters, and writing and
reading back a checkpoint.  Prints the elapsed seconds as one JSON object,
with the median time of five runs of the simulation kernel right after, in
the same process.

Usage: python3 perfbench/setup_probe.py <work-dir> <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

from nafdrive import cli  # noqa: E402
from nafdrive.learner import make_rngs, opt_states_init  # noqa: E402
from nafdrive.nafq import NafParams  # noqa: E402


def main(work_dir: str, seed: int) -> int:
    config_path = os.path.join(work_dir, "setup-config.json")
    checkpoint_path = os.path.join(work_dir, "setup-checkpoint.json")
    with open(config_path, "w") as fh:
        json.dump(cli.default_config_dict(seed), fh)
    cfg = cli.load_config(config_path)
    params = NafParams.init(make_rngs(cfg.seed)["init"], **cfg.naf_constants)
    cli.save_checkpoint(checkpoint_path, 0, params, params.copy(),
                        opt_states_init(params), make_rngs(cfg.seed),
                        cli.config_digest(cfg.raw))
    loaded = cli.load_checkpoint(checkpoint_path)["params"]
    elapsed = time.perf_counter() - T0
    for name, net in params.nets().items():
        other = getattr(loaded, name)
        if not all(np.array_equal(a, b) for a, b in zip(net.weights + net.biases,
                                                          other.weights + other.biases)):
            print(f"error: {name} does not survive a checkpoint round trip", file=sys.stderr)
            return 1
    from calibrate import SIMULATION

    SIMULATION.warm_up()
    kernel_s = sorted(SIMULATION.seconds() for _ in range(5))[2]
    print(json.dumps({"setup_s": elapsed, "kernel_s": kernel_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
