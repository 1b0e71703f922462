"""Set-up time of one workload, measured in a fresh interpreter.

``probe.py WORKLOAD WORKDIR`` imports zenofloquet (through ``workloads``) and
runs the workload's warm-up op, then prints the seconds both took.

``probe.py --reference`` imports only numpy and scipy.linalg, the libraries
zenofloquet loads, and prints the seconds that took: the same kind of work,
reading and linking modules, with nothing of the program in it.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    if sys.argv[1] == "--reference":
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401
    else:
        import workloads

        workloads.WORKLOADS[sys.argv[1]].warm_up(sys.argv[2])
    print(time.perf_counter() - start)
