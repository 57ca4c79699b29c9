"""Pin BLAS to one thread for the test run unless the caller chose a count.

NumPy and SciPy each bundle an OpenBLAS, and each reads these variables
once, when it is loaded; unpinned, their thread pools contend for the cores.
pytest imports this file before any test module, so before either library.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
