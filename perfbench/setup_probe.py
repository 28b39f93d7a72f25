"""Library set-up as a user pays it once per process.

    python3 perfbench/setup_probe.py <src-dir>

imports the library, builds the qutrit preset's spectral, fusion, moment and
ring data, loads the qutrit isometry document without its pinned basis (which
runs eigendecompose), and prints the seconds taken from before the import.
"""

import sys
import time


def library_setup():
    from treefield import models
    m = models.preset("qutrit")
    m.spectral, m.fusion, m.vacuum_moments, m.ring
    doc = models.to_document(m)
    del doc["pinned_basis"]
    return models.load_model(doc).spectral


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    library_setup()  # its first import loads the whole treefield package
    print(time.perf_counter() - t0)
