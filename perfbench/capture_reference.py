"""Write ``reference.json``: the seed-0 outputs of every workload at full size.

    PYTHONPATH=src python3 perfbench/capture_reference.py

The committed file was captured from the program before any optimisation;
recapture it only when a change is meant to alter the numerical results.
"""

import json

import workloads


def main():
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        result = workload.prepare(0, "full")()
        reference[name] = workload.measures(result)
        print(name, reference[name], flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
