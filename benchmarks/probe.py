"""Set-up probe: import semifem, build one workload's inputs, print `ready`.

run.py starts this script several times and times each start up to the
`ready` line, which gives `setup_s` from process start onwards.

    python3 benchmarks/probe.py <workload> <seed>
"""

import sys

import env


def main(argv):
    env.prepare()
    env.import_semifem()
    import workloads

    workloads.WORKLOADS[argv[0]].build(int(argv[1]))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
