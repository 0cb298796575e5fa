"""Time one cold set-up in a fresh interpreter and print it as JSON.

    python3 bench/setup_probe.py EPSILON BETA0 ELL

Set-up is what a user pays before the first ``store``: ``import
tamperstore``, building the example1:12 prefix code, and
``ProtocolInstance.derive`` (the parameter recipe plus code construction).
"""

import time

_t0 = time.perf_counter()
import tamperstore  # noqa: E402  (the import is what is being timed)

_t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tamperstore.protocol import ProtocolInstance  # noqa: E402
from tamperstore.randomizer import example1_code  # noqa: E402


def main(argv):
    epsilon, beta0, ell = float(argv[0]), float(argv[1]), int(argv[2])
    t2 = time.perf_counter()
    prefix = example1_code(12)
    t3 = time.perf_counter()
    instance = ProtocolInstance.derive(epsilon, beta0, ell, prefix)
    t4 = time.perf_counter()
    print(json.dumps({
        "import_s": _t1 - _t0,
        "prefix_code_s": t3 - t2,
        "derive_s": t4 - t3,
        "code": instance.code.name,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
