"""Time one cold start of periodlab in a fresh process.

Imports the package from ``src/`` next to this directory, builds the built-in
catalog and the SL(2) surrogates, and prints one JSON line with the seconds
taken and the module file that was imported.
"""

import json
import sys
import time

from run import SRC, build_models


def main() -> None:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import periodlab
    build_models()
    seconds = time.perf_counter() - start
    print(json.dumps({"setup_s": seconds, "module": periodlab.__file__}))


if __name__ == "__main__":
    main()
